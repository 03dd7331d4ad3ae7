//! Plan execution: expression evaluation, joins, grouping/aggregation,
//! sub-queries and the operator-DAG walker.
//!
//! Queries are first lowered by [`crate::plan::Planner`] into a physical
//! [`Plan`] (scans with pushed-down conjuncts and partition pruning, hash /
//! nested-loop joins, aggregation, sort, limit); the [`Executor`] walks that
//! DAG. Every operator consumes and produces a [`Relation`] of
//! reference-counted [`SharedRow`]s, so relations flowing between operators
//! share row storage with the base tables instead of deep-cloning it.
//!
//! [`Plan::SeqScan`] evaluates its pushed conjuncts *during* the scan
//! (non-qualifying rows are never copied) and skips partition buckets its
//! `ttid = k` / `ttid IN (...)` pruning predicates exclude. Every bucket is
//! scanned by one routine, `Executor::scan_range`: the compiled predicates
//! run as column kernels over a selection bitmap
//! (see [`crate::conjuncts::eval_vectorized_range`]), only the qualifying row
//! ids are late-materialized into [`SharedRow`]s, and interpreted conjuncts
//! run on those survivors. A serial scan calls it once per bucket over the
//! whole visible prefix. When [`crate::EngineConfig::parallel_scan`] (or its
//! `MT_THREADS` execution-time override) allows, the scan runs
//! *morsel-driven* instead: the selected buckets are split into
//! fixed-size row ranges pulled by a scoped worker pool, each worker
//! calls the same routine per morsel, and the per-morsel outputs merge in
//! morsel order, so the result is bit-identical to a serial scan. When the
//! scan feeds a `HashAggregate` directly, workers additionally fold their
//! morsel into a *partial aggregate state*; the partial states merge in
//! morsel order on the coordinator, parallelizing scan→filter→aggregate end
//! to end. Uncorrelated sub-queries are evaluated once per query and cached;
//! sub-query *plans* are cached even for correlated sub-queries, which are
//! re-executed per outer row.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use mtsql::ast::*;
use mtsql::visit::contains_subquery;

use crate::conjuncts::{
    between_matches, eval_vectorized_range, fast_filter_matches, fast_pred_matches,
    flip_comparison, has_columns, CompiledPred, Selection,
};
use crate::error::{err, EngineError, Result};
use crate::plan::{HashAggregate, JoinVariant, Plan, Planner, Project, SeqScan, SortKey};
use crate::schema::Schema;
use crate::table::{ColumnBucket, Row, SharedRow, Snapshot};
use crate::value::{add_months, civil_from_days, parse_date, Value};
use crate::Engine;

pub use crate::conjuncts::{like_match, LikePattern};

/// Minimum number of selected-bucket rows before a scan fans out to worker
/// threads; below this the spawn overhead dominates the scan itself.
const PARALLEL_SCAN_MIN_ROWS: usize = 8192;

/// Minimum rows each worker should own — the thread count is capped so a
/// spawned thread always has enough work to amortize its spawn cost.
const PARALLEL_SCAN_MIN_ROWS_PER_WORKER: usize = 4096;

/// The process-wide execution-time parallel budget: the `MT_THREADS`
/// environment variable (a positive integer), when set, overrides
/// [`crate::EngineConfig::parallel_scan`] for every engine in the process —
/// benches and CI matrix legs force the worker pool on without touching
/// deployment configuration. Parsed once per process; EXPLAIN deliberately
/// keeps rendering from the *configured* budget so plan snapshots stay
/// stable under the override.
pub(crate) fn effective_parallel_budget(config: &crate::EngineConfig) -> usize {
    static OVERRIDE: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    OVERRIDE
        .get_or_init(|| {
            std::env::var("MT_THREADS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or(config.parallel_scan)
}

/// Rows per morsel — the unit of work the pool's workers pull.
pub(crate) const MORSEL_ROWS: usize = 4096;

/// Number of workers a scan over `total_rows` split into `morsel_count`
/// morsels uses under a parallel budget — `1` means serial. Shared by the
/// scan itself and the EXPLAIN renderer so both report the same decision.
/// Budgeting on morsels (not buckets) means a single oversized bucket still
/// spreads across the whole pool instead of monopolizing one worker.
pub(crate) fn scan_worker_count(budget: usize, morsel_count: usize, total_rows: usize) -> usize {
    if total_rows < PARALLEL_SCAN_MIN_ROWS {
        return 1;
    }
    budget
        .max(1)
        .min(morsel_count)
        .min((total_rows / PARALLEL_SCAN_MIN_ROWS_PER_WORKER).max(1))
}

/// One unit of pooled scan work: a row range of one selected bucket. Morsels
/// are bounded at the scan's per-bucket *visible* length, so a pooled scan
/// under a pinned snapshot never observes rows appended after the pin.
#[derive(Debug, Clone, Copy)]
struct Morsel {
    /// Index into the scan's selected-bucket list.
    bucket: usize,
    /// First row of the range.
    start: usize,
    /// One past the last row of the range.
    end: usize,
}

/// Split the selected buckets into [`MORSEL_ROWS`]-row ranges, in bucket
/// order. Morsels of one bucket are contiguous and ascending, so merging
/// per-morsel outputs in morsel order reproduces the serial row order
/// exactly.
fn build_morsels(selected: &[(&ColumnBucket, usize)]) -> Vec<Morsel> {
    let mut morsels = Vec::new();
    for (bucket, &(_, visible)) in selected.iter().enumerate() {
        let mut start = 0;
        while start < visible {
            let end = (start + MORSEL_ROWS).min(visible);
            morsels.push(Morsel { bucket, start, end });
            start = end;
        }
    }
    morsels
}

/// The number of morsels [`build_morsels`] would produce, without building
/// them (serial-path bail-out sizing).
fn morsel_count(selected: &[(&ColumnBucket, usize)]) -> usize {
    selected.iter().map(|&(_, v)| v.div_ceil(MORSEL_ROWS)).sum()
}

/// Run `work` over every morsel on a pool of `threads` scoped workers.
/// Workers *pull* morsels from a shared index — a slow morsel never stalls
/// the rest of the pool — and each worker evaluates through its own
/// [`Executor`] (the engine is shared and `Sync`; executor-local caches are
/// not). Results are returned in morsel order regardless of which worker
/// produced them; a panicking worker surfaces as a typed error; and when
/// several morsels fail, the error of the lowest morsel index wins — the one
/// the serial scan would have hit first.
fn run_morsel_pool<T, F>(
    engine: &Engine,
    params: &[Value],
    threads: usize,
    morsels: &[Morsel],
    work: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&Executor, Morsel) -> Result<T> + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    let next = AtomicUsize::new(0);
    let joined = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (next, work) = (&next, &work);
                scope.spawn(move || {
                    let worker = Executor::with_params(engine, params.to_vec());
                    let mut done: Vec<(usize, Result<T>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                        let Some(morsel) = morsels.get(i) else { break };
                        done.push((i, work(&worker, *morsel)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join())
            .collect::<Vec<std::thread::Result<_>>>()
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None)
        .take(morsels.len())
        .collect();
    let mut first_err: Option<(usize, EngineError)> = None;
    for outcome in joined {
        let done = outcome.map_err(|_| {
            EngineError::with_kind(
                crate::EngineErrorKind::Poisoned,
                "parallel scan worker panicked",
            )
        })?;
        for (i, result) in done {
            match result {
                Ok(v) => slots[i] = Some(v),
                Err(e) => {
                    if first_err.as_ref().is_none_or(|f| i < f.0) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    let mut results = Vec::with_capacity(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(v) => results.push(v),
            // Every morsel index is pulled exactly once by construction; an
            // empty slot means a worker died without reporting.
            None => {
                return Err(EngineError::with_kind(
                    crate::EngineErrorKind::Poisoned,
                    format!("morsel {i} was never completed by any worker"),
                ))
            }
        }
    }
    Ok(results)
}

/// Per-scan accounting fed into the engine counters afterwards.
#[derive(Debug, Default, Clone, Copy)]
struct ScanTally {
    /// Rows visited (loose-row loops) or covered by column kernels.
    visited: u64,
    /// Rows whose predicates were evaluated column-at-a-time.
    vectorized: u64,
    /// Rows late-materialized from buckets after qualifying.
    materialized: u64,
    /// Rows processed through dictionary code space (per-predicate code
    /// kernels, code-space grouping, dictionary-decoding materializations).
    dict: u64,
}

impl ScanTally {
    fn absorb(&mut self, other: ScanTally) {
        self.visited += other.visited;
        self.vectorized += other.vectorized;
        self.materialized += other.materialized;
        self.dict += other.dict;
    }
}

/// Sentinel group-key code for NULL slots in code-space grouping
/// (dictionaries are bounded far below it, so it can never collide with a
/// real code). Shared by the serial code-space grouping scan and the
/// morsel workers' per-morsel code memos.
const NULL_CODE: u32 = u32::MAX;

/// Select the partition buckets a scan visits under an optional pruning key
/// set, each paired with its *visible length* — the whole bucket normally,
/// or the rows visible at the executor's pinned snapshot — together with
/// the `(scanned, pruned)` bucket counts. Shared by every scan path so
/// bucket selection, snapshot bounding and partition accounting can never
/// drift apart. A snapshot that predates an open transaction's destructive
/// rewrite is served from the table's retained pre-rewrite shadow (see
/// [`crate::table::Table::read_at`]), so committed-floor readers never
/// observe uncommitted rewritten storage.
fn select_buckets<'t>(
    table: &'t crate::table::Table,
    prune_keys: &Option<std::collections::BTreeSet<i64>>,
    snapshot: Option<&Snapshot>,
) -> (Vec<(&'t ColumnBucket, usize)>, u64, u64) {
    let view = table.read_at(snapshot);
    match prune_keys {
        Some(keys) => {
            let mut selected = Vec::new();
            let (mut scanned, mut pruned) = (0u64, 0u64);
            for (key, bucket) in view.partitions() {
                if keys.contains(&key) {
                    scanned += 1;
                    selected.push((bucket, view.visible_bucket_len(key).min(bucket.len())));
                } else {
                    pruned += 1;
                }
            }
            (selected, scanned, pruned)
        }
        None => {
            let selected: Vec<(&ColumnBucket, usize)> = view
                .partitions()
                .map(|(k, b)| (b, view.visible_bucket_len(k).min(b.len())))
                .collect();
            let scanned = selected.len() as u64;
            (selected, scanned, 0)
        }
    }
}

/// Run the fast predicates of `filter` as column kernels over rows `range`
/// of one bucket. Returns the surviving selection (bit `i` stands for bucket
/// row `range.start + i`) and the range's accounting, with every survivor
/// already charged as late-materialized — each caller builds exactly those
/// rows. Pure (no engine access).
fn kernel_select(
    cols: &ColumnBucket,
    range: &std::ops::Range<usize>,
    filter: &[CompiledPred],
) -> (Selection, ScanTally) {
    let mut sel = Selection::all(range.len());
    let mut tally = ScanTally {
        visited: range.len() as u64,
        vectorized: range.len() as u64,
        ..ScanTally::default()
    };
    for pred in filter.iter().filter(|p| p.is_fast()) {
        tally.dict += eval_vectorized_range(pred, cols, range.start, &mut sel);
    }
    tally.materialized = sel.count() as u64;
    if cols.dict_column_count() > 0 {
        // Qualifying rows decode their dictionary columns while
        // materializing.
        tally.dict += tally.materialized;
    }
    (sel, tally)
}

/// A materialized intermediate result. Rows are shared with their producers;
/// cloning a relation (or filtering one) copies pointers, not values.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    pub schema: Schema,
    pub rows: Vec<SharedRow>,
}

/// Evaluation environment: the row currently in scope plus the chain of outer
/// rows for correlated sub-queries.
#[derive(Clone, Copy)]
pub struct Env<'a> {
    pub schema: &'a Schema,
    pub row: &'a [Value],
    pub parent: Option<&'a Env<'a>>,
}

impl<'a> Env<'a> {
    /// Borrowing column lookup: the resolved value plus whether it came from
    /// an outer (parent) environment. Comparison-only call sites use the
    /// borrow directly; owning sites clone the (cheap, `Arc`-interned) value.
    fn lookup_ref(&self, col: &ColumnRef) -> Option<(&'a Value, bool)> {
        if let Some(idx) = self.schema.resolve(col) {
            return Some((&self.row[idx], false));
        }
        self.parent
            .and_then(|p| p.lookup_ref(col))
            .map(|(v, _)| (v, true))
    }
}

/// Per-query executor borrowing the engine (tables, UDFs, statistics).
pub struct Executor<'e> {
    engine: &'e Engine,
    /// Bound parameter values; `Expr::Param(i)` evaluates to `params[i]`.
    /// Empty for statements without parameters — evaluating an unbound
    /// parameter is an error, and constant folding over an unbound parameter
    /// simply fails (so planning a parameterized query defers those
    /// predicates to execution time).
    params: Vec<Value>,
    /// Cache of uncorrelated sub-query results, keyed by their SQL text.
    subquery_cache: RefCell<HashMap<String, Rc<Relation>>>,
    /// Cache of sub-query plans (correlated sub-queries re-execute per outer
    /// row but are lowered only once).
    plan_cache: RefCell<HashMap<String, Rc<Plan>>>,
    /// LIKE patterns precompiled once per pattern text instead of once per row.
    like_cache: RefCell<HashMap<String, Arc<LikePattern>>>,
    /// `true` while the executor detected an escape to an outer row during the
    /// currently executing sub-query (conservative correlation detection).
    correlation_witness: Cell<bool>,
    /// When set, every base-table scan of this executor is bounded at this
    /// snapshot: per-bucket visible lengths and the loose-row prefix resolve
    /// through the table's write marks (or an open transaction's pre-rewrite
    /// shadow), so neither serial scans nor pooled morsels ever observe rows
    /// the snapshot does not admit. Set by snapshot cursors before
    /// materializing blocking plans, by the per-statement committed-floor
    /// pin, and (as [`Snapshot::Txn`]) by in-transaction reads.
    snapshot: Option<Snapshot>,
}

impl<'e> Executor<'e> {
    /// Create an executor for one top-level query.
    pub fn new(engine: &'e Engine) -> Self {
        Executor::with_params(engine, Vec::new())
    }

    /// Create an executor with bound parameter values (`Expr::Param(i)`
    /// evaluates to `params[i]`).
    pub fn with_params(engine: &'e Engine, params: Vec<Value>) -> Self {
        Executor {
            engine,
            params,
            subquery_cache: RefCell::new(HashMap::new()),
            plan_cache: RefCell::new(HashMap::new()),
            like_cache: RefCell::new(HashMap::new()),
            correlation_witness: Cell::new(false),
            snapshot: None,
        }
    }

    /// Bound every scan of this executor at the given mutation-epoch
    /// watermark (snapshot-isolated cursors, per-statement floor pins).
    pub(crate) fn pin_snapshot(&mut self, epoch: u64) {
        self.snapshot = Some(Snapshot::At(epoch));
    }

    /// Bound every scan at the committed floor *plus* one transaction's own
    /// uncommitted epochs — the read-your-writes pin for statements running
    /// inside that transaction (other open transactions' staged rows stay
    /// invisible).
    pub(crate) fn pin_txn_snapshot(&mut self, floor: u64, own: Arc<BTreeSet<u64>>) {
        self.snapshot = Some(Snapshot::Txn { floor, own });
    }

    /// The compiled form of a LIKE pattern, cached per executor.
    fn compiled_like(&self, pattern: &str) -> Arc<LikePattern> {
        if let Some(hit) = self.like_cache.borrow().get(pattern) {
            return Arc::clone(hit);
        }
        let compiled = Arc::new(LikePattern::new(pattern));
        self.like_cache
            .borrow_mut()
            .insert(pattern.to_string(), Arc::clone(&compiled));
        compiled
    }

    // ------------------------------------------------------------------
    // Query execution: lower to a plan, walk the plan
    // ------------------------------------------------------------------

    /// Execute a query with an optional outer environment (for correlated
    /// sub-queries): lower it to a physical plan and walk that.
    pub fn execute_query(&self, query: &Query, outer: Option<&Env>) -> Result<Relation> {
        let plan = Planner::new(self.engine).plan_query(query)?;
        if crate::verify::verify_enabled(&self.engine.config) {
            let opts = crate::verify::VerifyOptions {
                param_count: Some(self.params.len()),
                // Correlated sub-queries reference enclosing-scope columns
                // that only resolve against the outer environment.
                outer: outer.is_some(),
                ..Default::default()
            };
            crate::verify::verify_plan_with(self.engine, &plan, opts)?;
            self.engine.counters.add_plans_verified(1);
        }
        self.execute_plan(&plan, outer)
    }

    /// Execute a physical plan.
    pub fn execute_plan(&self, plan: &Plan, outer: Option<&Env>) -> Result<Relation> {
        match plan {
            Plan::Empty { .. } => Ok(Relation {
                schema: Schema::new(),
                rows: vec![Vec::new().into()],
            }),
            Plan::SeqScan(scan) => self.exec_scan(scan, outer),
            Plan::Filter { input, predicates } => {
                let rel = self.execute_plan(input, outer)?;
                self.filter_relation(&rel, predicates, outer)
            }
            Plan::HashJoin {
                left,
                right,
                keys,
                residual,
                kind,
                ..
            } => match kind {
                JoinVariant::Plain(k) => {
                    let l = self.execute_plan(left, outer)?;
                    let r = self.execute_plan(right, outer)?;
                    self.hash_join(&l, &r, keys, residual, *k, outer)
                }
                variant => self.key_join(left, right, keys, residual, *variant, outer),
            },
            Plan::NestedLoopJoin {
                left,
                right,
                predicates,
                kind,
                ..
            } => {
                let l = self.execute_plan(left, outer)?;
                let r = self.execute_plan(right, outer)?;
                if predicates.is_empty() && *kind == JoinKind::Cross {
                    Ok(cross_product(&l, &r))
                } else {
                    self.nested_loop_join(&l, &r, predicates, *kind, outer)
                }
            }
            Plan::Subquery { input, schema, .. } => {
                let rel = self.execute_plan(input, outer)?;
                Ok(Relation {
                    schema: schema.clone(),
                    rows: rel.rows,
                })
            }
            Plan::Project(project) => self.exec_project(project, outer),
            Plan::HashAggregate(agg) => self.exec_hash_aggregate(agg, outer),
            Plan::Sort {
                input,
                keys,
                prune_to,
            } => {
                let mut rel = self.execute_plan(input, outer)?;
                sort_rows(&mut rel.rows, keys);
                if let Some(width) = prune_to {
                    // Strip the hidden sort-key columns appended by the
                    // projection head.
                    for row in &mut rel.rows {
                        *row = row[..*width].to_vec().into();
                    }
                }
                Ok(rel)
            }
            Plan::Limit { input, limit } => {
                let mut rel = self.execute_plan(input, outer)?;
                rel.rows.truncate(*limit as usize);
                Ok(rel)
            }
        }
    }

    /// Projection head: evaluate the output items (visible projection plus
    /// hidden sort keys) per row, then DISTINCT on the visible prefix.
    fn exec_project(&self, project: &Project, outer: Option<&Env>) -> Result<Relation> {
        let input = self.execute_plan(&project.input, outer)?;
        let mut rows: Vec<SharedRow> = Vec::with_capacity(input.rows.len());
        for row in &input.rows {
            let env = Env {
                schema: &input.schema,
                row,
                parent: outer,
            };
            rows.push(self.project_row(&project.items, &env)?.into());
        }
        if project.distinct {
            dedup_visible(&mut rows, project.visible_width);
        }
        Ok(Relation {
            schema: project.schema.clone(),
            rows,
        })
    }

    /// Grouping head: hash rows into groups (first-seen order), evaluate
    /// aggregates, HAVING and the output items per group. When the input is
    /// a base-table scan large enough for the worker pool, the whole
    /// scan→filter→group→fold pipeline runs morsel-parallel (see
    /// [`Executor::try_parallel_aggregate`]); when it is a serial scan whose
    /// group keys are dictionary-encoded columns, grouping runs in *code
    /// space* (see [`Executor::try_group_on_codes`]); otherwise rows are
    /// grouped by their evaluated key values.
    fn exec_hash_aggregate(&self, agg: &HashAggregate, outer: Option<&Env>) -> Result<Relation> {
        if let Some(rel) = self.try_parallel_aggregate(agg, outer)? {
            return Ok(rel);
        }
        let grouped = match self.try_group_on_codes(agg, outer)? {
            Some(grouped) => grouped,
            None => {
                let input = self.execute_plan(&agg.input, outer)?;
                self.group_by_values(agg, input, outer)?
            }
        };
        self.finish_aggregate(agg, grouped, outer)
    }

    /// The standard grouping path: evaluate the group expressions per input
    /// row and hash the key values, preserving first-seen group order. The
    /// index map *owns* each key (moved in, never cloned); lookups borrow
    /// the candidate key.
    fn group_by_values(
        &self,
        agg: &HashAggregate,
        input: Relation,
        outer: Option<&Env>,
    ) -> Result<GroupedInput> {
        let mut group_index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (i, row) in input.rows.iter().enumerate() {
            let env = Env {
                schema: &input.schema,
                row,
                parent: outer,
            };
            let key = agg
                .group_exprs
                .iter()
                .map(|e| self.eval(e, &env))
                .collect::<Result<Vec<_>>>()?;
            match group_index.get(key.as_slice()) {
                Some(&g) => members[g].push(i),
                None => {
                    members.push(vec![i]);
                    group_index.insert(key, members.len() - 1);
                }
            }
        }
        let mut keys: Vec<Vec<Value>> = vec![Vec::new(); members.len()];
        for (key, g) in group_index {
            keys[g] = key;
        }
        Ok(GroupedInput {
            input,
            keys,
            members,
        })
    }

    /// Evaluate aggregates, HAVING and the output items per group — the
    /// shared back half of hash aggregation, identical for both serial
    /// grouping paths.
    fn finish_aggregate(
        &self,
        agg: &HashAggregate,
        grouped: GroupedInput,
        outer: Option<&Env>,
    ) -> Result<Relation> {
        let GroupedInput {
            input,
            mut keys,
            mut members,
        } = grouped;
        // Aggregates without GROUP BY over empty input still produce one row.
        if members.is_empty() && agg.group_exprs.is_empty() {
            members.push(Vec::new());
            keys.push(Vec::new());
        }

        // A group with no members (global aggregate over an empty input) still
        // needs a representative row so that non-aggregated columns (e.g. the
        // constant factors of inlined conversion functions) resolve — to NULL.
        let null_row: SharedRow = vec![Value::Null; input.schema.len()].into();
        let mut agg_values: Vec<Vec<Value>> = Vec::with_capacity(keys.len());
        let mut reps: Vec<SharedRow> = Vec::with_capacity(keys.len());
        for group_members in &members {
            let mut per_group = Vec::with_capacity(agg.aggregates.len());
            for call in &agg.aggregates {
                per_group.push(self.eval_aggregate(call, &input, group_members, outer)?);
            }
            agg_values.push(per_group);
            reps.push(
                group_members
                    .first()
                    .map(|&i| SharedRow::clone(&input.rows[i]))
                    .unwrap_or_else(|| SharedRow::clone(&null_row)),
            );
        }
        self.emit_groups(agg, &input.schema, &keys, &agg_values, &reps, outer)
    }

    /// Evaluate HAVING and the output items per group and assemble the
    /// output relation — the shared back half of *every* aggregation path
    /// (serial and morsel-parallel), operating on precomputed per-group
    /// aggregate values and representative rows.
    fn emit_groups(
        &self,
        agg: &HashAggregate,
        schema: &Schema,
        keys: &[Vec<Value>],
        agg_values: &[Vec<Value>],
        reps: &[SharedRow],
        outer: Option<&Env>,
    ) -> Result<Relation> {
        let mut rows: Vec<SharedRow> = Vec::new();
        for (g, key) in keys.iter().enumerate() {
            let gctx = GroupContext {
                group_exprs: &agg.group_exprs,
                group_key: key,
                aggregates: &agg.aggregates,
                agg_values: &agg_values[g],
                env: Env {
                    schema,
                    row: &reps[g],
                    parent: outer,
                },
            };
            if let Some(h) = &agg.having {
                if !self.eval_in_group(h, &gctx)?.as_bool().unwrap_or(false) {
                    continue;
                }
            }
            let mut out_row = Vec::with_capacity(agg.items.len());
            for item in &agg.items {
                match item {
                    SelectItem::Wildcard => out_row.extend(gctx.env.row.iter().cloned()),
                    SelectItem::QualifiedWildcard(q) => {
                        for idx in gctx.env.schema.indices_of_qualifier(q) {
                            out_row.push(gctx.env.row[idx].clone());
                        }
                    }
                    SelectItem::Expr { expr, .. } => out_row.push(self.eval_in_group(expr, &gctx)?),
                }
            }
            rows.push(out_row.into());
        }
        if agg.distinct {
            dedup_visible(&mut rows, agg.visible_width);
        }
        Ok(Relation {
            schema: agg.schema.clone(),
            rows,
        })
    }

    /// Code-space grouping: when the aggregation input is a base-table scan
    /// whose group keys are plain columns with at least one
    /// dictionary-encoded among them, perform the scan and the grouping in
    /// one pass — per bucket, rows map their group through a small
    /// `codes -> group` memo (one key *evaluation* per distinct code
    /// combination instead of one per row; Q1's `l_returnflag, l_linestatus`
    /// hashes two `u32`s per row instead of two strings).
    ///
    /// Returns `None` (deferring to the standard path) whenever any piece
    /// does not fit: non-column group keys, interpreted conjuncts (their
    /// error/UDF evaluation order must stay identical to the hybrid scan),
    /// no dictionary-encoded group column anywhere, or a scan large enough
    /// to fan out to worker threads — this path scans serially, and losing
    /// the parallel fan-out would cost more than per-row key hashing saves,
    /// so such scans keep the standard scan-then-group pipeline. Buckets
    /// whose group columns were demoted below the scan still group correctly
    /// — they evaluate key values per row, same as the standard path.
    /// Results are identical to the standard path by construction: rows are
    /// visited in bucket order, groups keep first-seen order, and the
    /// memoized key values are exactly the column values.
    fn try_group_on_codes(
        &self,
        agg: &HashAggregate,
        outer: Option<&Env>,
    ) -> Result<Option<GroupedInput>> {
        let _ = outer; // group keys are scan columns; outer rows never resolve them
        if !self.engine.config().dictionary_encoding || agg.group_exprs.is_empty() {
            return Ok(None);
        }
        let Plan::SeqScan(scan) = agg.input.as_ref() else {
            return Ok(None);
        };
        let Ok(table) = self.engine.database().table(&scan.table) else {
            return Ok(None);
        };
        let mut group_cols: Vec<usize> = Vec::with_capacity(agg.group_exprs.len());
        for e in &agg.group_exprs {
            match e {
                Expr::Column(c) => match scan.schema.resolve(c) {
                    Some(idx) => group_cols.push(idx),
                    None => return Ok(None),
                },
                _ => return Ok(None),
            }
        }

        let prune_keys = self.effective_prune_keys(scan, table.partition_column());
        let bucket_filter = self.compile_bucket_filter(scan, prune_keys.is_some());
        if !bucket_filter.iter().all(CompiledPred::is_fast) {
            return Ok(None);
        }
        let loose_filter = if self.visible_loose_rows(table).is_empty() {
            Vec::new()
        } else {
            self.compile_full_scan_filter(scan)
        };
        if !loose_filter.iter().all(CompiledPred::is_fast) {
            return Ok(None);
        }

        let (selected, buckets_scanned, buckets_pruned) =
            select_buckets(table, &prune_keys, self.snapshot.as_ref());
        let any_dict_group = selected
            .iter()
            .any(|&(c, _)| group_cols.iter().any(|&g| c.column(g).is_dict()));
        if !any_dict_group {
            return Ok(None);
        }
        // A scan the worker pool would engage keeps the standard path — its
        // aggregation runs morsel-parallel end to end (or, when
        // `try_parallel_aggregate` declined for sub-query reasons, at least
        // its scan pools), and this one-pass grouping scan runs serially.
        let total_rows: usize = selected.iter().map(|&(_, v)| v).sum();
        if scan_worker_count(
            effective_parallel_budget(&self.engine.config()),
            morsel_count(&selected),
            total_rows,
        ) > 1
        {
            return Ok(None);
        }

        let mut rows: Vec<SharedRow> = Vec::new();
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        let mut group_index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut tally = ScanTally::default();

        // Shared group lookup: first-seen order, keyed by value — so groups
        // merge across buckets (each bucket has its own dictionary) exactly
        // like the standard path.
        let group_of = |key: Vec<Value>,
                        group_index: &mut HashMap<Vec<Value>, usize>,
                        keys: &mut Vec<Vec<Value>>,
                        members: &mut Vec<Vec<usize>>|
         -> usize {
            match group_index.get(key.as_slice()) {
                Some(&g) => g,
                None => {
                    keys.push(key.clone());
                    members.push(Vec::new());
                    group_index.insert(key, members.len() - 1);
                    members.len() - 1
                }
            }
        };

        for &(cols, visible) in &selected {
            let (sel, bucket_tally) = kernel_select(cols, &(0..visible), &bucket_filter);
            tally.absorb(bucket_tally);
            let all_dict = group_cols.iter().all(|&g| cols.column(g).is_dict());
            if all_dict {
                // Code-space grouping: one key evaluation per distinct code
                // combination, one memo hit per row after that.
                let mut memo: HashMap<Vec<u32>, usize> = HashMap::new();
                sel.for_each(|i| {
                    let codes: Vec<u32> = group_cols
                        .iter()
                        .map(|&g| {
                            let col = cols.column(g);
                            if col.is_null(i) {
                                NULL_CODE
                            } else {
                                match col.data() {
                                    crate::table::ColumnVec::Dict(d) => d.code(i),
                                    _ => unreachable!("all_dict checked above"),
                                }
                            }
                        })
                        .collect();
                    let g = match memo.get(&codes) {
                        Some(&g) => g,
                        None => {
                            let key: Vec<Value> = group_cols
                                .iter()
                                .map(|&g| cols.column(g).value(i))
                                .collect();
                            let g = group_of(key, &mut group_index, &mut keys, &mut members);
                            memo.insert(codes, g);
                            g
                        }
                    };
                    members[g].push(rows.len());
                    rows.push(cols.materialize(i));
                    tally.dict += 1;
                });
            } else {
                // A demoted bucket: evaluate key values per row, exactly
                // like the standard path would.
                sel.for_each(|i| {
                    let key: Vec<Value> = group_cols
                        .iter()
                        .map(|&g| cols.column(g).value(i))
                        .collect();
                    let g = group_of(key, &mut group_index, &mut keys, &mut members);
                    members[g].push(rows.len());
                    rows.push(cols.materialize(i));
                });
            }
        }
        for row in self.visible_loose_rows(table) {
            tally.visited += 1;
            if !fast_filter_matches(&loose_filter, row) {
                continue;
            }
            let key: Vec<Value> = group_cols.iter().map(|&g| row[g].clone()).collect();
            let g = group_of(key, &mut group_index, &mut keys, &mut members);
            members[g].push(rows.len());
            rows.push(SharedRow::clone(row));
        }

        self.engine.note_rows_scanned(tally.visited);
        self.engine.note_partitions(buckets_scanned, buckets_pruned);
        self.engine
            .note_vectorized(tally.vectorized, tally.materialized);
        self.engine.note_dict_kernel_rows(tally.dict);
        Ok(Some(GroupedInput {
            input: Relation {
                schema: scan.schema.clone(),
                rows,
            },
            keys,
            members,
        }))
    }

    /// Morsel-parallel aggregation: when the aggregation input is a plain
    /// base-table scan large enough for the worker pool, run
    /// scan → filter → partial aggregation per morsel on the pool and merge
    /// the per-morsel partial states in morsel order — Q1/Q6-style
    /// scan-and-aggregate queries parallelize end to end instead of only at
    /// selection, and the input rows are never collected into one relation
    /// (each worker keeps at most a morsel's rows live). Merging in morsel
    /// order reproduces the serial path exactly: groups keep first-seen
    /// order and every aggregate's values fold in row order (float SUM/AVG
    /// are not associative, so fold order is part of result identity).
    /// Loose rows (bounded at the snapshot) fold in serially after the
    /// pool; HAVING, the output items and DISTINCT run on the coordinator
    /// via the shared [`Executor::emit_groups`] back half.
    ///
    /// Returns `None` — deferring to the serial paths — for correlated
    /// inputs (an outer row in scope), non-scan inputs, sub-query-bearing
    /// group or aggregate expressions (each worker would re-execute the
    /// sub-query against its own cold cache), and scans the pool would not
    /// engage anyway. UDFs in group keys or aggregate arguments are fine:
    /// they evaluate on the workers, and the engine's UDF registry is
    /// shared and thread-safe, so call/cache-hit totals stay exact.
    fn try_parallel_aggregate(
        &self,
        agg: &HashAggregate,
        outer: Option<&Env>,
    ) -> Result<Option<Relation>> {
        if outer.is_some() {
            return Ok(None);
        }
        let Plan::SeqScan(scan) = agg.input.as_ref() else {
            return Ok(None);
        };
        let Ok(table) = self.engine.database().table(&scan.table) else {
            return Ok(None);
        };
        if agg.group_exprs.iter().any(contains_subquery)
            || agg
                .aggregates
                .iter()
                .any(|c| c.args.iter().any(contains_subquery))
        {
            return Ok(None);
        }
        let budget = effective_parallel_budget(&self.engine.config());
        if budget <= 1 {
            return Ok(None);
        }
        let prune_keys = self.effective_prune_keys(scan, table.partition_column());
        let (selected, buckets_scanned, buckets_pruned) =
            select_buckets(table, &prune_keys, self.snapshot.as_ref());
        let total: usize = selected.iter().map(|&(_, v)| v).sum();
        let morsels = build_morsels(&selected);
        let threads = scan_worker_count(budget, morsels.len(), total);
        if threads <= 1 {
            return Ok(None);
        }
        let bucket_filter = self.compile_bucket_filter(scan, prune_keys.is_some());
        // Plain-column group keys unlock the per-morsel code memo over
        // dictionary-encoded buckets (the worker-side analogue of
        // `try_group_on_codes`).
        let group_cols: Option<Vec<usize>> = agg
            .group_exprs
            .iter()
            .map(|e| match e {
                Expr::Column(c) => scan.schema.resolve(c),
                _ => None,
            })
            .collect();

        let partials =
            run_morsel_pool(self.engine, &self.params, threads, &morsels, |worker, m| {
                worker.agg_morsel_partial(
                    selected[m.bucket].0,
                    m,
                    &bucket_filter,
                    agg,
                    &scan.schema,
                    group_cols.as_deref(),
                )
            })?;

        // Merge partial states in morsel order: first-seen group order and
        // per-group value order match the serial single pass exactly.
        let mut tally = ScanTally::default();
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut merged = AggPartial::with_aggregates(agg.aggregates.len());
        let merges = partials.len() as u64;
        for partial in partials {
            tally.absorb(partial.tally);
            let AggPartial {
                keys,
                reps,
                counts,
                mut args,
                ..
            } = partial;
            for (p, key) in keys.into_iter().enumerate() {
                let g = merged.group_of(key, &mut index, &reps[p]);
                merged.counts[g] += counts[p];
                for (a, per_agg) in args.iter_mut().enumerate() {
                    merged.args[a][g].append(&mut per_agg[p]);
                }
            }
        }

        // Loose rows carry arbitrary partition keys; fold them in serially
        // (they are few — the write path spills them only until the next
        // bucket rebuild) with the same filter choice as the serial scan.
        let loose_filter = if prune_keys.is_none() {
            Some(bucket_filter)
        } else if self.visible_loose_rows(table).is_empty() {
            None
        } else {
            Some(self.compile_full_scan_filter(scan))
        };
        if let Some(loose_filter) = &loose_filter {
            for row in self.visible_loose_rows(table) {
                tally.visited += 1;
                if !self.filter_matches(loose_filter, &scan.schema, row, None)? {
                    continue;
                }
                let env = Env {
                    schema: &scan.schema,
                    row,
                    parent: None,
                };
                let key = agg
                    .group_exprs
                    .iter()
                    .map(|e| self.eval(e, &env))
                    .collect::<Result<Vec<_>>>()?;
                let g = merged.group_of(key, &mut index, row);
                self.accumulate_partial(agg, &mut merged, g, &env)?;
            }
        }

        self.engine.note_rows_scanned(tally.visited);
        self.engine.note_partitions(buckets_scanned, buckets_pruned);
        self.engine
            .note_vectorized(tally.vectorized, tally.materialized);
        self.engine.note_dict_kernel_rows(tally.dict);
        self.engine
            .note_morsel_scan(morsels.len() as u64, threads as u64);
        self.engine.note_partial_agg_merges(merges);

        let AggPartial {
            mut keys,
            mut reps,
            mut counts,
            mut args,
            ..
        } = merged;
        // Aggregates without GROUP BY over empty input still produce one
        // row, represented by an all-NULL row (same as the serial path).
        if keys.is_empty() && agg.group_exprs.is_empty() {
            keys.push(Vec::new());
            reps.push(vec![Value::Null; scan.schema.len()].into());
            counts.push(0);
            for per_agg in &mut args {
                per_agg.push(Vec::new());
            }
        }
        let mut agg_values: Vec<Vec<Value>> = Vec::with_capacity(keys.len());
        for g in 0..keys.len() {
            let mut per_group = Vec::with_capacity(agg.aggregates.len());
            for (a, call) in agg.aggregates.iter().enumerate() {
                per_group.push(self.fold_aggregate(
                    call,
                    std::mem::take(&mut args[a][g]),
                    counts[g] as usize,
                )?);
            }
            agg_values.push(per_group);
        }
        self.emit_groups(agg, &scan.schema, &keys, &agg_values, &reps, outer)
            .map(Some)
    }

    /// Scan one morsel and fold its qualifying rows into a partial
    /// aggregation state. Buckets whose group columns are all
    /// dictionary-encoded (under an all-fast filter) group through a
    /// per-morsel `codes -> group` memo, exactly like the serial code-space
    /// path; everything else evaluates the group keys per row. Aggregate
    /// arguments evaluate per qualifying row (skipping NULLs), then the
    /// row buffer is dropped — a worker's live memory is bounded by the
    /// morsel size, not the scan size.
    fn agg_morsel_partial(
        &self,
        cols: &ColumnBucket,
        morsel: Morsel,
        filter: &[CompiledPred],
        agg: &HashAggregate,
        schema: &Schema,
        group_cols: Option<&[usize]>,
    ) -> Result<AggPartial> {
        let mut partial = AggPartial::with_aggregates(agg.aggregates.len());
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let range = morsel.start..morsel.end;
        if let Some(gcols) = group_cols {
            let all_dict = !gcols.is_empty() && gcols.iter().all(|&g| cols.column(g).is_dict());
            if all_dict && filter.iter().all(CompiledPred::is_fast) {
                let (sel, tally) = kernel_select(cols, &range, filter);
                partial.tally = tally;
                let mut memo: HashMap<Vec<u32>, usize> = HashMap::new();
                let mut survivors: Vec<usize> = Vec::with_capacity(sel.count());
                sel.for_each(|i| survivors.push(range.start + i));
                for i in survivors {
                    let codes: Vec<u32> = gcols
                        .iter()
                        .map(|&g| {
                            let col = cols.column(g);
                            if col.is_null(i) {
                                NULL_CODE
                            } else {
                                match col.data() {
                                    crate::table::ColumnVec::Dict(d) => d.code(i),
                                    _ => unreachable!("all_dict checked above"),
                                }
                            }
                        })
                        .collect();
                    let row = cols.materialize(i);
                    partial.tally.dict += 1;
                    let g = match memo.get(&codes) {
                        Some(&g) => g,
                        None => {
                            let key: Vec<Value> =
                                gcols.iter().map(|&g| cols.column(g).value(i)).collect();
                            let g = partial.group_of(key, &mut index, &row);
                            memo.insert(codes, g);
                            g
                        }
                    };
                    let env = Env {
                        schema,
                        row: &row,
                        parent: None,
                    };
                    self.accumulate_partial(agg, &mut partial, g, &env)?;
                }
                return Ok(partial);
            }
        }
        // Generic: scan the morsel (hybrid filter included), then group by
        // evaluated key values.
        let mut rows_buf: Vec<SharedRow> = Vec::new();
        partial.tally = self.scan_range(cols, range, filter, schema, None, &mut rows_buf)?;
        for row in rows_buf {
            let env = Env {
                schema,
                row: &row,
                parent: None,
            };
            let key = agg
                .group_exprs
                .iter()
                .map(|e| self.eval(e, &env))
                .collect::<Result<Vec<_>>>()?;
            let g = partial.group_of(key, &mut index, &row);
            self.accumulate_partial(agg, &mut partial, g, &env)?;
        }
        Ok(partial)
    }

    /// Fold one qualifying row into group `g` of a partial state: bump the
    /// member count and append each aggregate's non-null argument value (in
    /// row order).
    fn accumulate_partial(
        &self,
        agg: &HashAggregate,
        partial: &mut AggPartial,
        g: usize,
        env: &Env,
    ) -> Result<()> {
        partial.counts[g] += 1;
        for (a, call) in agg.aggregates.iter().enumerate() {
            let Some(arg) = call.args.first() else {
                continue;
            };
            let v = self.eval(arg, env)?;
            if !v.is_null() {
                partial.args[a][g].push(v);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scans
    // ------------------------------------------------------------------

    /// Execute one base-table scan: skip partition buckets the plan's pruning
    /// keys exclude, evaluate the pushed filter per visited row (vectorized
    /// inside buckets), and share (rather than copy) every qualifying row.
    fn exec_scan(&self, scan: &SeqScan, outer: Option<&Env>) -> Result<Relation> {
        let table = self.engine.database().table(&scan.table)?;
        let prune_keys = self.effective_prune_keys(scan, table.partition_column());

        let mut tally = ScanTally::default();
        let (selected, buckets_scanned, buckets_pruned) =
            select_buckets(table, &prune_keys, self.snapshot.as_ref());
        let bucket_filter = self.compile_bucket_filter(scan, prune_keys.is_some());
        let mut rows = self.scan_buckets(
            &selected,
            &bucket_filter,
            &scan.schema,
            outer,
            &mut tally,
            |_, rows, _| Ok(rows),
        )?;

        // Loose rows carry arbitrary partition keys, so the full pushed
        // filter (including pruning predicates) applies to them; the pruned
        // branch compiles it only when loose rows exist.
        let full_filter = if prune_keys.is_none() {
            // The un-pruned bucket filter already is the full pushed filter.
            Some(bucket_filter)
        } else if self.visible_loose_rows(table).is_empty() {
            None
        } else {
            Some(self.compile_full_scan_filter(scan))
        };
        if let Some(full_filter) = &full_filter {
            for row in self.visible_loose_rows(table) {
                tally.visited += 1;
                if self.filter_matches(full_filter, &scan.schema, row, outer)? {
                    rows.push(SharedRow::clone(row));
                }
            }
        }

        self.engine.note_rows_scanned(tally.visited);
        self.engine.note_partitions(buckets_scanned, buckets_pruned);
        self.engine
            .note_vectorized(tally.vectorized, tally.materialized);
        self.engine.note_dict_kernel_rows(tally.dict);
        Ok(Relation {
            schema: scan.schema.clone(),
            rows,
        })
    }

    /// The scan's effective partition-key set: the statically planned keys
    /// intersected with the key sets its parameter-dependent pruning
    /// conjuncts fold to now that parameters are bound. A conjunct whose
    /// parameters are (still) unbound simply contributes nothing — the
    /// conjunct is also part of the scan's residual filter, so correctness
    /// never depends on this pruning. `None` scans every bucket.
    ///
    /// The common case (no parameter-dependent pruning) borrows the plan's
    /// static key set — correlated sub-queries re-execute their scans per
    /// outer row, so this path must not allocate.
    pub(crate) fn effective_prune_keys<'s>(
        &self,
        scan: &'s SeqScan,
        partition_col: Option<usize>,
    ) -> std::borrow::Cow<'s, Option<std::collections::BTreeSet<i64>>> {
        use std::borrow::Cow;
        if scan.param_pruning.is_empty() || self.params.is_empty() {
            return Cow::Borrowed(&scan.prune_keys);
        }
        let Some(pidx) = partition_col else {
            return Cow::Borrowed(&scan.prune_keys);
        };
        let mut keys = scan.prune_keys.clone();
        let fold = |e: &Expr| self.fold_const(e);
        for c in &scan.param_pruning {
            if let Some(k) =
                crate::conjuncts::partition_keys_of_conjunct(c, &scan.schema, pidx, &fold)
            {
                keys = Some(match keys {
                    None => k,
                    Some(prev) => prev.intersection(&k).copied().collect(),
                });
            }
        }
        Cow::Owned(keys)
    }

    /// The table's loose rows, bounded at the executor's pinned snapshot.
    /// Like `select_buckets`, a snapshot predating an open transaction's
    /// rewrite reads the retained pre-rewrite shadow.
    fn visible_loose_rows<'t>(&self, table: &'t crate::table::Table) -> &'t [SharedRow] {
        let view = table.read_at(self.snapshot.as_ref());
        let loose = view.loose_rows();
        &loose[..view.visible_loose_len().min(loose.len())]
    }

    /// Scan the selected buckets and pass the qualifying rows through
    /// `keep` (identity for a plain scan, the key probe for a decorrelated
    /// join). Serial: [`Executor::scan_range`] over each bucket's whole
    /// visible prefix on the calling thread, then one `keep` over all rows.
    /// Morsel-driven: the buckets split into row-range morsels pulled by a
    /// scoped worker pool, each worker runs `scan_range` and `keep` per
    /// morsel through its own executor, and per-morsel outputs merge in
    /// morsel order — results and row order are identical to the serial
    /// scan by construction. Filters with interpreted conjuncts pool too;
    /// only correlated scans under an outer row with interpreted conjuncts
    /// stay serial, because those conjuncts must resolve against the
    /// coordinator's environment chain.
    fn scan_buckets<F>(
        &self,
        selected: &[(&ColumnBucket, usize)],
        filter: &[CompiledPred],
        schema: &Schema,
        outer: Option<&Env>,
        tally: &mut ScanTally,
        keep: F,
    ) -> Result<Vec<SharedRow>>
    where
        F: Fn(&Executor, Vec<SharedRow>, Option<&Env>) -> Result<Vec<SharedRow>> + Sync,
    {
        let total: usize = selected.iter().map(|&(_, v)| v).sum();
        let budget = effective_parallel_budget(&self.engine.config());
        let fast = filter.iter().all(CompiledPred::is_fast);
        let pool = if budget > 1 && (fast || outer.is_none()) {
            let morsels = build_morsels(selected);
            let threads = scan_worker_count(budget, morsels.len(), total);
            (threads > 1).then_some((morsels, threads))
        } else {
            None
        };
        let Some((morsels, threads)) = pool else {
            let mut rows: Vec<SharedRow> = Vec::new();
            for &(cols, visible) in selected {
                tally.absorb(self.scan_range(
                    cols,
                    0..visible,
                    filter,
                    schema,
                    outer,
                    &mut rows,
                )?);
            }
            return keep(self, rows, outer);
        };
        let results =
            run_morsel_pool(self.engine, &self.params, threads, &morsels, |worker, m| {
                let mut local: Vec<SharedRow> = Vec::new();
                let t = worker.scan_range(
                    selected[m.bucket].0,
                    m.start..m.end,
                    filter,
                    schema,
                    None,
                    &mut local,
                )?;
                Ok((keep(worker, local, None)?, t))
            })?;
        let mut rows: Vec<SharedRow> = Vec::new();
        for (local, morsel_tally) in results {
            rows.extend(local);
            tally.absorb(morsel_tally);
        }
        self.engine
            .note_morsel_scan(morsels.len() as u64, threads as u64);
        Ok(rows)
    }

    /// The one bucket-scan routine: run the fast predicates of `filter` as
    /// column kernels over rows `range` of one bucket, late-materialize the
    /// survivors, and check the interpreted conjuncts on those. The
    /// conjuncts are side-effect-free boolean filters under AND, so running
    /// the compiled ones first cannot change the qualifying row set; what it
    /// *can* change is error/UDF behaviour — an interpreted conjunct is
    /// never evaluated (and thus cannot raise an evaluation error or count
    /// UDF calls) for rows a compiled conjunct rejects, whatever their
    /// WHERE-clause order. Callers pre-bound `range` at the scan's snapshot
    /// watermark.
    fn scan_range(
        &self,
        cols: &ColumnBucket,
        range: std::ops::Range<usize>,
        filter: &[CompiledPred],
        schema: &Schema,
        outer: Option<&Env>,
        out: &mut Vec<SharedRow>,
    ) -> Result<ScanTally> {
        let (sel, tally) = kernel_select(cols, &range, filter);
        let interpreted: Vec<&CompiledPred> = filter.iter().filter(|p| !p.is_fast()).collect();
        if interpreted.is_empty() {
            sel.for_each(|i| out.push(cols.materialize(range.start + i)));
            return Ok(tally);
        }
        let mut survivors: Vec<usize> = Vec::with_capacity(sel.count());
        sel.for_each(|i| survivors.push(range.start + i));
        'rows: for i in survivors {
            let row = cols.materialize(i);
            for pred in &interpreted {
                if !self.filter_matches(std::slice::from_ref(*pred), schema, &row, outer)? {
                    continue 'rows;
                }
            }
            out.push(row);
        }
        Ok(tally)
    }

    /// The full pushed filter of a scan — pruning predicates followed by the
    /// residual ones — as applied to loose rows and un-pruned scans.
    pub(crate) fn compile_full_scan_filter(&self, scan: &SeqScan) -> Vec<CompiledPred> {
        let mut preds = self.compile_filter(&scan.pruning, &scan.schema);
        preds.extend(self.compile_filter(&scan.residual, &scan.schema));
        preds
    }

    /// The filter applied to rows *inside* the scanned partition buckets:
    /// when pruning selected the buckets, rows satisfy the pruning
    /// predicates by construction (the bucket key *is* the partition value)
    /// and only the residual conjuncts run; otherwise the full pushed
    /// filter applies. Shared by the batch scan, the code-space grouping
    /// scan and the streaming cursor so the choice can never drift apart.
    pub(crate) fn compile_bucket_filter(&self, scan: &SeqScan, pruned: bool) -> Vec<CompiledPred> {
        if pruned {
            self.compile_filter(&scan.residual, &scan.schema)
        } else {
            self.compile_full_scan_filter(scan)
        }
    }

    /// Does this scan's per-bucket filter compile entirely to fast predicate
    /// forms? Fast filters run fully as column kernels. (Used by the EXPLAIN
    /// renderer.)
    pub(crate) fn scan_compiles_fast(&self, scan: &SeqScan) -> bool {
        let filter = if scan.prune_keys.is_some() {
            self.compile_filter(&scan.residual, &scan.schema)
        } else {
            self.compile_full_scan_filter(scan)
        };
        filter.iter().all(CompiledPred::is_fast)
    }

    /// Evaluate a column- and sub-query-free expression to a constant. Also
    /// used by the planner to fold partition-key predicates, so pruning
    /// recognises every constant form the scan filter would (functions and
    /// UDFs over literals included).
    pub(crate) fn fold_const(&self, expr: &Expr) -> Option<Value> {
        if has_columns(expr) || contains_subquery(expr) {
            return None;
        }
        let schema = Schema::new();
        let env = Env {
            schema: &schema,
            row: &[],
            parent: None,
        };
        self.eval(expr, &env).ok()
    }

    fn filter_relation(
        &self,
        rel: &Relation,
        predicates: &[Expr],
        outer: Option<&Env>,
    ) -> Result<Relation> {
        let compiled = self.compile_filter(predicates, &rel.schema);
        let mut rows = Vec::with_capacity(rel.rows.len());
        for row in &rel.rows {
            if self.filter_matches(&compiled, &rel.schema, row, outer)? {
                rows.push(SharedRow::clone(row));
            }
        }
        Ok(Relation {
            schema: rel.schema.clone(),
            rows,
        })
    }

    // ------------------------------------------------------------------
    // Compiled scan filters
    // ------------------------------------------------------------------

    /// Compile conjuncts into the fast per-row predicate forms where possible
    /// (pre-resolved column index, pre-folded constants, precompiled LIKE
    /// patterns); everything else falls back to interpreted evaluation.
    pub(crate) fn compile_filter(&self, conjuncts: &[Expr], schema: &Schema) -> Vec<CompiledPred> {
        conjuncts
            .iter()
            .map(|c| self.compile_pred(c, schema))
            .collect()
    }

    fn compile_pred(&self, conjunct: &Expr, schema: &Schema) -> CompiledPred {
        let column_index = |e: &Expr| match e {
            Expr::Column(c) => schema.resolve(c),
            _ => None,
        };
        match conjunct {
            Expr::BinaryOp { left, op, right }
                if matches!(
                    op,
                    BinaryOperator::Eq
                        | BinaryOperator::NotEq
                        | BinaryOperator::Lt
                        | BinaryOperator::LtEq
                        | BinaryOperator::Gt
                        | BinaryOperator::GtEq
                ) =>
            {
                if let (Some(idx), Some(value)) = (column_index(left), self.fold_const(right)) {
                    return CompiledPred::Compare {
                        idx,
                        op: *op,
                        value,
                    };
                }
                if let (Some(idx), Some(value)) = (column_index(right), self.fold_const(left)) {
                    return CompiledPred::Compare {
                        idx,
                        op: flip_comparison(*op),
                        value,
                    };
                }
                CompiledPred::Generic(conjunct.clone())
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                if let Some(idx) = column_index(expr) {
                    let values: Option<Vec<Value>> =
                        list.iter().map(|i| self.fold_const(i)).collect();
                    if let Some(values) = values {
                        return CompiledPred::InSet {
                            idx,
                            values,
                            negated: *negated,
                        };
                    }
                }
                CompiledPred::Generic(conjunct.clone())
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                if let (Some(idx), Some(lo), Some(hi)) = (
                    column_index(expr),
                    self.fold_const(low),
                    self.fold_const(high),
                ) {
                    return CompiledPred::Between {
                        idx,
                        lo,
                        hi,
                        negated: *negated,
                    };
                }
                CompiledPred::Generic(conjunct.clone())
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                if let (Some(idx), Expr::Literal(Literal::String(p))) =
                    (column_index(expr), pattern.as_ref())
                {
                    return CompiledPred::Like {
                        idx,
                        pattern: self.compiled_like(p),
                        negated: *negated,
                    };
                }
                CompiledPred::Generic(conjunct.clone())
            }
            other => CompiledPred::Generic(other.clone()),
        }
    }

    /// `true` when every compiled conjunct accepts the row. The fast forms
    /// compare against borrowed values; only the generic fallback builds an
    /// evaluation environment.
    pub(crate) fn filter_matches(
        &self,
        filter: &[CompiledPred],
        schema: &Schema,
        row: &[Value],
        outer: Option<&Env>,
    ) -> Result<bool> {
        for pred in filter {
            let ok = match pred {
                CompiledPred::Generic(expr) => {
                    let env = Env {
                        schema,
                        row,
                        parent: outer,
                    };
                    self.eval(expr, &env)?.as_bool().unwrap_or(false)
                }
                fast => fast_pred_matches(fast, row),
            };
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn hash_join(
        &self,
        left: &Relation,
        right: &Relation,
        keys: &[(Expr, Expr)],
        residual: &[Expr],
        kind: JoinKind,
        outer: Option<&Env>,
    ) -> Result<Relation> {
        let schema = left.schema.concat(&right.schema);
        // Build hash table on the right input.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (i, row) in right.rows.iter().enumerate() {
            let env = Env {
                schema: &right.schema,
                row,
                parent: outer,
            };
            let key = keys
                .iter()
                .map(|(_, r)| self.eval(r, &env))
                .collect::<Result<Vec<_>>>()?;
            if key.iter().any(Value::is_null) {
                continue;
            }
            table.entry(key).or_default().push(i);
        }
        let right_width = right.schema.len();
        let mut rows = Vec::new();
        for lrow in &left.rows {
            let lenv = Env {
                schema: &left.schema,
                row: lrow,
                parent: outer,
            };
            let key = keys
                .iter()
                .map(|(l, _)| self.eval(l, &lenv))
                .collect::<Result<Vec<_>>>()?;
            let mut matched = false;
            if !key.iter().any(Value::is_null) {
                if let Some(candidates) = table.get(&key) {
                    for &ri in candidates {
                        let combined = concat_rows(lrow, &right.rows[ri]);
                        if residual.is_empty() || {
                            let env = Env {
                                schema: &schema,
                                row: &combined,
                                parent: outer,
                            };
                            let mut ok = true;
                            for r in residual {
                                if !self.eval(r, &env)?.as_bool().unwrap_or(false) {
                                    ok = false;
                                    break;
                                }
                            }
                            ok
                        } {
                            matched = true;
                            rows.push(combined.into());
                        }
                    }
                }
            }
            if !matched && kind == JoinKind::Left {
                rows.push(null_extend(lrow, right_width));
            }
        }
        Ok(Relation { schema, rows })
    }

    /// Execute a decorrelated semi-/anti-/aggregate-join (see
    /// [`crate::decorrelate`]): materialize the build (right) side once,
    /// project its keys into a hash map (NULL keys skipped — they equal
    /// nothing), and filter the probe (left) side by key membership,
    /// emitting probe rows unchanged and in order. When the probe side is a
    /// base-table scan with plain column keys, the probe runs *inside* the
    /// scan pipeline ([`Executor::key_join_scan`]); otherwise the probe plan
    /// materializes and filters row-wise through the environment chain.
    fn key_join(
        &self,
        left: &Plan,
        right: &Plan,
        keys: &[(Expr, Expr)],
        residual: &[Expr],
        variant: JoinVariant,
        outer: Option<&Env>,
    ) -> Result<Relation> {
        let build = self.execute_plan(right, outer)?;
        let mut map: HashMap<Vec<Value>, usize> = HashMap::with_capacity(build.rows.len());
        for (i, row) in build.rows.iter().enumerate() {
            let env = Env {
                schema: &build.schema,
                row,
                parent: outer,
            };
            let key = keys
                .iter()
                .map(|(_, r)| self.eval(r, &env))
                .collect::<Result<Vec<_>>>()?;
            if key.iter().any(Value::is_null) {
                continue;
            }
            map.entry(key).or_insert(i);
        }
        self.engine.note_subquery_unnested(1);

        if let Plan::SeqScan(scan) = left {
            if let Some(rel) =
                self.key_join_scan(scan, keys, residual, variant, &build, &map, outer)?
            {
                return Ok(rel);
            }
        }
        let l = self.execute_plan(left, outer)?;
        let combined = l.schema.concat(&build.schema);
        let mut rows = Vec::new();
        for lrow in &l.rows {
            let env = Env {
                schema: &l.schema,
                row: lrow,
                parent: outer,
            };
            let key = keys
                .iter()
                .map(|(p, _)| self.eval(p, &env))
                .collect::<Result<Vec<_>>>()?;
            if self.key_probe_matches(
                &key, variant, &map, &build, residual, lrow, &combined, outer,
            )? {
                rows.push(SharedRow::clone(lrow));
            }
        }
        Ok(Relation {
            schema: l.schema,
            rows,
        })
    }

    /// Membership outcome of one probe row against the build-key map. The
    /// `Single` variant looks up its (unique) build row, NULL-extends on a
    /// miss, and evaluates the rewritten comparison over the concatenated
    /// row — a miss therefore compares against NULL aggregates and fails,
    /// matching the interpreted aggregate over an empty inner set.
    #[allow(clippy::too_many_arguments)]
    fn key_probe_matches(
        &self,
        key: &[Value],
        variant: JoinVariant,
        map: &HashMap<Vec<Value>, usize>,
        build: &Relation,
        residual: &[Expr],
        lrow: &[Value],
        combined: &Schema,
        outer: Option<&Env>,
    ) -> Result<bool> {
        let has_null = key.iter().any(Value::is_null);
        match variant {
            JoinVariant::Semi => Ok(!has_null && map.contains_key(key)),
            JoinVariant::Anti => Ok(has_null || !map.contains_key(key)),
            JoinVariant::Single => {
                let hit = if has_null {
                    None
                } else {
                    map.get(key).copied()
                };
                let row = match hit {
                    Some(i) => concat_rows(lrow, &build.rows[i]),
                    None => {
                        let mut r = Vec::with_capacity(lrow.len() + build.schema.len());
                        r.extend_from_slice(lrow);
                        r.extend(std::iter::repeat_n(Value::Null, build.schema.len()));
                        r
                    }
                };
                let env = Env {
                    schema: combined,
                    row: &row,
                    parent: outer,
                };
                for r in residual {
                    if !self.eval(r, &env)?.as_bool().unwrap_or(false) {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            JoinVariant::Plain(_) => unreachable!("plain joins use hash_join"),
        }
    }

    /// Probe a decorrelated join inside the probe-side scan itself:
    /// snapshot-bounded bucket selection, the scan's compiled filter — plus,
    /// for semi joins, the build-key columns injected as membership kernels
    /// ([`CompiledPred::KeySet`], code space on dictionary-encoded keys), so
    /// non-matching rows are never materialized — and the morsel pool with
    /// the key probe running per morsel on the workers. Returns `None`
    /// when a probe key is not a plain scan column; the caller falls back to
    /// materialize-then-filter (correctness never depends on this path).
    #[allow(clippy::too_many_arguments)]
    fn key_join_scan(
        &self,
        scan: &SeqScan,
        keys: &[(Expr, Expr)],
        residual: &[Expr],
        variant: JoinVariant,
        build: &Relation,
        map: &HashMap<Vec<Value>, usize>,
        outer: Option<&Env>,
    ) -> Result<Option<Relation>> {
        let mut key_cols = Vec::with_capacity(keys.len());
        for (probe, _) in keys {
            let Expr::Column(c) = probe else {
                return Ok(None);
            };
            let Some(idx) = scan.schema.resolve(c) else {
                return Ok(None);
            };
            key_cols.push(idx);
        }

        let table = self.engine.database().table(&scan.table)?;
        let prune_keys = self.effective_prune_keys(scan, table.partition_column());
        let (selected, buckets_scanned, buckets_pruned) =
            select_buckets(table, &prune_keys, self.snapshot.as_ref());
        let mut bucket_filter = self.compile_bucket_filter(scan, prune_keys.is_some());
        // Per-column build-key sets are a superset filter for multi-key
        // joins; the exact tuple probe below still runs on the survivors.
        // Anti/aggregate joins keep (or NULL-extend) non-matching rows, so
        // only semi joins may pre-filter.
        if variant == JoinVariant::Semi {
            for (i, &idx) in key_cols.iter().enumerate() {
                // The only legal key-set injection site: a decorrelated
                // probe's own scan columns. Under verification, re-check the
                // resolved index against the scan schema before the kernel
                // is installed (the static verifier cannot see this far).
                if crate::verify::verify_enabled(&self.engine.config) && idx >= scan.schema.len() {
                    return Err(crate::verify::PlanError {
                        class: crate::verify::PlanErrorClass::Variant,
                        node: format!("SeqScan {}", scan.table),
                        detail: format!(
                            "key-set kernel column {idx} out of probe schema width {}",
                            scan.schema.len()
                        ),
                    }
                    .into());
                }
                let set: HashSet<Value> = map.keys().map(|k| k[i].clone()).collect();
                bucket_filter.push(CompiledPred::KeySet {
                    idx,
                    set: Arc::new(set),
                });
            }
        }

        let combined = scan.schema.concat(&build.schema);
        let probe_key = |key: &mut Vec<Value>, row: &[Value]| {
            key.clear();
            key.extend(key_cols.iter().map(|&i| row[i].clone()));
        };
        let mut tally = ScanTally::default();
        // The probe is pool-safe by construction (keys read by index, and
        // the rewritten residual only references the probe and build schemas
        // — see `decorrelate`), so it rides `scan_buckets`' per-morsel hook.
        let mut rows = self.scan_buckets(
            &selected,
            &bucket_filter,
            &scan.schema,
            outer,
            &mut tally,
            |exec, scanned, outer| {
                let mut kept: Vec<SharedRow> = Vec::with_capacity(scanned.len());
                let mut key: Vec<Value> = Vec::with_capacity(key_cols.len());
                for row in scanned {
                    probe_key(&mut key, &row);
                    if exec.key_probe_matches(
                        &key, variant, map, build, residual, &row, &combined, outer,
                    )? {
                        kept.push(row);
                    }
                }
                Ok(kept)
            },
        )?;

        // Loose rows: full pushed filter (the bucket filter already is the
        // full filter when nothing was pruned), then the exact key probe.
        let full_filter = if prune_keys.is_none() {
            Some(bucket_filter)
        } else if self.visible_loose_rows(table).is_empty() {
            None
        } else {
            Some(self.compile_full_scan_filter(scan))
        };
        if let Some(full_filter) = &full_filter {
            let mut key: Vec<Value> = Vec::with_capacity(key_cols.len());
            for row in self.visible_loose_rows(table) {
                tally.visited += 1;
                if self.filter_matches(full_filter, &scan.schema, row, outer)? {
                    probe_key(&mut key, row);
                    if self.key_probe_matches(
                        &key, variant, map, build, residual, row, &combined, outer,
                    )? {
                        rows.push(SharedRow::clone(row));
                    }
                }
            }
        }

        self.engine.note_rows_scanned(tally.visited);
        self.engine.note_partitions(buckets_scanned, buckets_pruned);
        self.engine
            .note_vectorized(tally.vectorized, tally.materialized);
        self.engine.note_dict_kernel_rows(tally.dict);
        Ok(Some(Relation {
            schema: scan.schema.clone(),
            rows,
        }))
    }

    fn nested_loop_join(
        &self,
        left: &Relation,
        right: &Relation,
        conjuncts: &[Expr],
        kind: JoinKind,
        outer: Option<&Env>,
    ) -> Result<Relation> {
        let schema = left.schema.concat(&right.schema);
        let right_width = right.schema.len();
        let mut rows = Vec::new();
        for lrow in &left.rows {
            let mut matched = false;
            for rrow in &right.rows {
                let combined = concat_rows(lrow, rrow);
                let env = Env {
                    schema: &schema,
                    row: &combined,
                    parent: outer,
                };
                let mut ok = true;
                for c in conjuncts {
                    if !self.eval(c, &env)?.as_bool().unwrap_or(false) {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    matched = true;
                    rows.push(combined.into());
                }
            }
            if !matched && kind == JoinKind::Left {
                rows.push(null_extend(lrow, right_width));
            }
        }
        Ok(Relation { schema, rows })
    }

    // ------------------------------------------------------------------
    // Aggregates
    // ------------------------------------------------------------------

    /// Evaluate one aggregate over a group's member rows: collect the
    /// argument's non-null values in row order, then fold them via
    /// [`Executor::fold_aggregate`].
    fn eval_aggregate(
        &self,
        agg: &FunctionCall,
        input: &Relation,
        members: &[usize],
        outer: Option<&Env>,
    ) -> Result<Value> {
        // COUNT(*) — no argument; folds from the member count alone.
        let Some(arg) = agg.args.first() else {
            return self.fold_aggregate(agg, Vec::new(), members.len());
        };
        let mut values = Vec::with_capacity(members.len());
        for &i in members {
            let env = Env {
                schema: &input.schema,
                row: &input.rows[i],
                parent: outer,
            };
            let v = self.eval(arg, &env)?;
            if !v.is_null() {
                values.push(v);
            }
        }
        self.fold_aggregate(agg, values, members.len())
    }

    /// Fold an aggregate over its collected non-null argument values (in
    /// row order — float SUM/AVG are not associative, so the order is part
    /// of result identity). The morsel-parallel path concatenates per-morsel
    /// value lists in morsel order and folds here once per group, so DISTINCT
    /// dedup (first occurrence wins) and the fold itself are shared verbatim
    /// with the serial path.
    fn fold_aggregate(
        &self,
        agg: &FunctionCall,
        mut values: Vec<Value>,
        member_count: usize,
    ) -> Result<Value> {
        let name = agg.name.to_ascii_uppercase();
        if agg.args.is_empty() {
            if name != "COUNT" {
                return err(format!("aggregate `{name}` requires an argument"));
            }
            return Ok(Value::Int(member_count as i64));
        }
        if agg.distinct {
            let mut seen = std::collections::HashSet::new();
            values.retain(|v| seen.insert(v.clone()));
        }
        match name.as_str() {
            "COUNT" => Ok(Value::Int(values.len() as i64)),
            "SUM" => {
                if values.is_empty() {
                    return Ok(Value::Null);
                }
                let mut acc = Value::Int(0);
                for v in &values {
                    acc = acc.add(v)?;
                }
                Ok(acc)
            }
            "AVG" => {
                if values.is_empty() {
                    return Ok(Value::Null);
                }
                let mut acc = 0.0;
                for v in &values {
                    acc += v
                        .as_f64()
                        .ok_or_else(|| EngineError::new("AVG over non-numeric value"))?;
                }
                Ok(Value::Float(acc / values.len() as f64))
            }
            "MIN" => Ok(values
                .into_iter()
                .reduce(|a, b| {
                    if b.compare(&a) == Some(Ordering::Less) {
                        b
                    } else {
                        a
                    }
                })
                .unwrap_or(Value::Null)),
            "MAX" => Ok(values
                .into_iter()
                .reduce(|a, b| {
                    if b.compare(&a) == Some(Ordering::Greater) {
                        b
                    } else {
                        a
                    }
                })
                .unwrap_or(Value::Null)),
            other => err(format!("unsupported aggregate `{other}`")),
        }
    }

    fn eval_in_group(&self, expr: &Expr, ctx: &GroupContext) -> Result<Value> {
        // Group-by expressions evaluate to the group key.
        for (i, g) in ctx.group_exprs.iter().enumerate() {
            if g == expr {
                return Ok(ctx.group_key[i].clone());
            }
        }
        // Aggregates evaluate to their precomputed value.
        if let Expr::Function(fc) = expr {
            if fc.is_aggregate() {
                for (i, a) in ctx.aggregates.iter().enumerate() {
                    if a == fc {
                        return Ok(ctx.agg_values[i].clone());
                    }
                }
                return err(format!("aggregate `{}` was not precomputed", fc.name));
            }
        }
        match expr {
            Expr::Column(_) | Expr::Literal(_) => self.eval(expr, &ctx.env),
            Expr::BinaryOp { left, op, right } => {
                let l = self.eval_in_group(left, ctx)?;
                let r = self.eval_in_group(right, ctx)?;
                apply_binary(*op, l, r)
            }
            Expr::UnaryOp { op, expr: inner } => {
                let v = self.eval_in_group(inner, ctx)?;
                apply_unary(*op, v)
            }
            Expr::Case {
                operand,
                when_then,
                else_expr,
            } => {
                let operand_val = operand
                    .as_ref()
                    .map(|o| self.eval_in_group(o, ctx))
                    .transpose()?;
                for (cond, out) in when_then {
                    let hit = match &operand_val {
                        Some(op_val) => {
                            let c = self.eval_in_group(cond, ctx)?;
                            op_val.sql_eq(&c).unwrap_or(false)
                        }
                        None => self.eval_in_group(cond, ctx)?.as_bool().unwrap_or(false),
                    };
                    if hit {
                        return self.eval_in_group(out, ctx);
                    }
                }
                match else_expr {
                    Some(e) => self.eval_in_group(e, ctx),
                    None => Ok(Value::Null),
                }
            }
            Expr::Function(fc) => {
                let args = fc
                    .args
                    .iter()
                    .map(|a| self.eval_in_group(a, ctx))
                    .collect::<Result<Vec<_>>>()?;
                self.call_scalar(&fc.name, &args)
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = self.eval_in_group(expr, ctx)?;
                let lo = self.eval_in_group(low, ctx)?;
                let hi = self.eval_in_group(high, ctx)?;
                Ok(Value::Bool(between_matches(&v, &lo, &hi, *negated)))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.eval_in_group(expr, ctx)?;
                if v.is_null() {
                    return Ok(Value::Bool(false));
                }
                let mut found = false;
                for item in list {
                    if v.sql_eq(&self.eval_in_group(item, ctx)?) == Some(true) {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Bool(found != *negated))
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval_in_group(expr, ctx)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval_in_group(expr, ctx)?;
                let outcome = match v.as_str() {
                    None => None,
                    Some(text) => self
                        .eval_in_group(pattern, ctx)?
                        .as_str()
                        .map(|p| self.compiled_like(p).matches(text)),
                };
                Ok(Value::Bool(outcome.map(|m| m != *negated).unwrap_or(false)))
            }
            Expr::Cast {
                expr: inner,
                data_type,
            } => {
                let v = self.eval_in_group(inner, ctx)?;
                cast_value(v, *data_type)
            }
            // Everything else (sub-queries, EXTRACT/SUBSTRING over group
            // values, ...) falls back to row-level evaluation against the
            // group's representative row.
            _ => self.eval(expr, &ctx.env),
        }
    }

    // ------------------------------------------------------------------
    // Scalar expression evaluation
    // ------------------------------------------------------------------

    /// Evaluate an expression in an environment.
    pub fn eval(&self, expr: &Expr, env: &Env) -> Result<Value> {
        match expr {
            Expr::Literal(l) => literal_value(l),
            Expr::Param(index) => match self.params.get(*index) {
                Some(v) => Ok(v.clone()),
                None => err(format!(
                    "parameter ${} is not bound ({} value(s) bound)",
                    index + 1,
                    self.params.len()
                )),
            },
            Expr::Column(c) => match env.lookup_ref(c) {
                Some((v, escaped)) => {
                    if escaped {
                        // Escaped to an outer row: this (sub-)query is
                        // correlated.
                        self.correlation_witness.set(true);
                    }
                    Ok(v.clone())
                }
                None => err(format!("unknown column `{}`", c.to_display())),
            },
            Expr::BinaryOp { left, op, right } => {
                // Short-circuit AND/OR on the left operand.
                match op {
                    BinaryOperator::And => {
                        let l = self.eval(left, env)?;
                        if l.as_bool() == Some(false) {
                            return Ok(Value::Bool(false));
                        }
                        let r = self.eval(right, env)?;
                        return Ok(Value::Bool(
                            l.as_bool().unwrap_or(false) && r.as_bool().unwrap_or(false),
                        ));
                    }
                    BinaryOperator::Or => {
                        let l = self.eval(left, env)?;
                        if l.as_bool() == Some(true) {
                            return Ok(Value::Bool(true));
                        }
                        let r = self.eval(right, env)?;
                        return Ok(Value::Bool(
                            l.as_bool().unwrap_or(false) || r.as_bool().unwrap_or(false),
                        ));
                    }
                    _ => {}
                }
                let l = self.eval(left, env)?;
                let r = self.eval(right, env)?;
                apply_binary(*op, l, r)
            }
            Expr::UnaryOp { op, expr } => {
                let v = self.eval(expr, env)?;
                apply_unary(*op, v)
            }
            Expr::Function(fc) => {
                if fc.is_aggregate() {
                    return err(format!(
                        "aggregate `{}` used outside of an aggregation context",
                        fc.name
                    ));
                }
                let args = fc
                    .args
                    .iter()
                    .map(|a| self.eval(a, env))
                    .collect::<Result<Vec<_>>>()?;
                self.call_scalar(&fc.name, &args)
            }
            Expr::Case {
                operand,
                when_then,
                else_expr,
            } => {
                let operand_val = operand.as_ref().map(|o| self.eval(o, env)).transpose()?;
                for (cond, out) in when_then {
                    let hit = match &operand_val {
                        Some(op_val) => {
                            let c = self.eval(cond, env)?;
                            op_val.sql_eq(&c).unwrap_or(false)
                        }
                        None => self.eval(cond, env)?.as_bool().unwrap_or(false),
                    };
                    if hit {
                        return self.eval(out, env);
                    }
                }
                match else_expr {
                    Some(e) => self.eval(e, env),
                    None => Ok(Value::Null),
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval(expr, env)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.eval(expr, env)?;
                if v.is_null() {
                    return Ok(Value::Bool(false));
                }
                let mut found = false;
                for item in list {
                    let iv = self.eval(item, env)?;
                    if v.sql_eq(&iv) == Some(true) {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Bool(found != *negated))
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                // SQL three-valued logic: a NULL operand makes the outcome
                // UNKNOWN, which satisfies neither BETWEEN nor NOT BETWEEN.
                let v = self.eval(expr, env)?;
                let lo = self.eval(low, env)?;
                let hi = self.eval(high, env)?;
                Ok(Value::Bool(between_matches(&v, &lo, &hi, *negated)))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval(expr, env)?;
                // Literal patterns (the common case) are compiled once per
                // executor; dynamic patterns are compiled per evaluation.
                let outcome = match v.as_str() {
                    None => None,
                    Some(text) => match pattern.as_ref() {
                        Expr::Literal(Literal::String(p)) => {
                            Some(self.compiled_like(p).matches(text))
                        }
                        dynamic => self
                            .eval(dynamic, env)?
                            .as_str()
                            .map(|pat| LikePattern::new(pat).matches(text)),
                    },
                };
                Ok(Value::Bool(outcome.map(|m| m != *negated).unwrap_or(false)))
            }
            Expr::Extract { field, expr } => {
                let v = self.eval(expr, env)?;
                match v {
                    Value::Date(d) => {
                        let (y, m, day) = civil_from_days(d);
                        Ok(Value::Int(match field {
                            DateField::Year => y as i64,
                            DateField::Month => m as i64,
                            DateField::Day => day as i64,
                        }))
                    }
                    Value::Null => Ok(Value::Null),
                    other => err(format!("EXTRACT from non-date value {other:?}")),
                }
            }
            Expr::Substring {
                expr,
                start,
                length,
            } => {
                let v = self.eval(expr, env)?;
                let s = match v {
                    Value::Str(s) => s.to_string(),
                    Value::Null => return Ok(Value::Null),
                    other => other.to_string(),
                };
                let start = self.eval(start, env)?.as_i64().unwrap_or(1).max(1) as usize;
                let chars: Vec<char> = s.chars().collect();
                let from = (start - 1).min(chars.len());
                let to = match length {
                    Some(len) => {
                        let l = self.eval(len, env)?.as_i64().unwrap_or(0).max(0) as usize;
                        (from + l).min(chars.len())
                    }
                    None => chars.len(),
                };
                Ok(Value::str(chars[from..to].iter().collect::<String>()))
            }
            Expr::Cast { expr, data_type } => {
                let v = self.eval(expr, env)?;
                cast_value(v, *data_type)
            }
            Expr::Exists { query, negated } => {
                let rel = self.execute_subquery(query, env)?;
                Ok(Value::Bool(rel.rows.is_empty() == *negated))
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let v = self.eval(expr, env)?;
                if v.is_null() {
                    return Ok(Value::Bool(false));
                }
                let rel = self.execute_subquery(query, env)?;
                let mut found = false;
                for row in &rel.rows {
                    if let Some(candidate) = row.first() {
                        if v.sql_eq(candidate) == Some(true) {
                            found = true;
                            break;
                        }
                    }
                }
                Ok(Value::Bool(found != *negated))
            }
            Expr::ScalarSubquery(query) => {
                let rel = self.execute_subquery(query, env)?;
                match rel.rows.first() {
                    Some(row) => Ok(row.first().cloned().unwrap_or(Value::Null)),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    /// Evaluate a scalar (non-aggregate) function: engine built-ins first,
    /// then registered UDFs.
    fn call_scalar(&self, name: &str, args: &[Value]) -> Result<Value> {
        match name.to_ascii_uppercase().as_str() {
            "CONCAT" => {
                let mut out = String::new();
                for a in args {
                    if a.is_null() {
                        return Ok(Value::Null);
                    }
                    out.push_str(&a.to_string());
                }
                Ok(Value::str(out))
            }
            "CHAR_LENGTH" | "LENGTH" => match args.first() {
                Some(Value::Str(s)) => Ok(Value::Int(s.chars().count() as i64)),
                Some(Value::Null) | None => Ok(Value::Null),
                Some(other) => Ok(Value::Int(other.to_string().chars().count() as i64)),
            },
            "COALESCE" => Ok(args
                .iter()
                .find(|a| !a.is_null())
                .cloned()
                .unwrap_or(Value::Null)),
            "ABS" => match args.first() {
                Some(Value::Int(i)) => Ok(Value::Int(i.abs())),
                Some(Value::Float(f)) => Ok(Value::Float(f.abs())),
                Some(Value::Null) | None => Ok(Value::Null),
                Some(other) => err(format!("ABS of non-numeric {other:?}")),
            },
            _ => self.engine.udfs().call(name, args),
        }
    }

    /// Execute a sub-query appearing inside an expression, caching the result
    /// when it turned out to be uncorrelated. The *plan* is cached either way,
    /// so a correlated sub-query re-executed per outer row is lowered once.
    fn execute_subquery(&self, query: &Query, env: &Env) -> Result<Rc<Relation>> {
        let key = query.to_string();
        if let Some(hit) = self.subquery_cache.borrow().get(&key) {
            return Ok(Rc::clone(hit));
        }
        let cached_plan = self.plan_cache.borrow().get(&key).cloned();
        let plan = match cached_plan {
            Some(plan) => plan,
            None => {
                let plan = Rc::new(Planner::new(self.engine).plan_query(query)?);
                if crate::verify::verify_enabled(&self.engine.config) {
                    // Verified once per distinct sub-query text (the plan
                    // cache makes re-executions skip this), leniently: outer
                    // scope columns resolve in the enclosing environment.
                    let opts = crate::verify::VerifyOptions {
                        param_count: Some(self.params.len()),
                        outer: true,
                        ..Default::default()
                    };
                    crate::verify::verify_plan_with(self.engine, &plan, opts)?;
                    self.engine.counters.add_plans_verified(1);
                }
                self.plan_cache
                    .borrow_mut()
                    .insert(key.clone(), Rc::clone(&plan));
                plan
            }
        };
        let saved = self.correlation_witness.replace(false);
        let rel = Rc::new(self.execute_plan(&plan, Some(env))?);
        let correlated = self.correlation_witness.get();
        self.correlation_witness.set(saved || correlated);
        if !correlated {
            self.subquery_cache
                .borrow_mut()
                .insert(key, Rc::clone(&rel));
        }
        Ok(rel)
    }

    pub(crate) fn project_row(&self, projection: &[SelectItem], env: &Env) -> Result<Row> {
        let mut out = Vec::with_capacity(projection.len());
        for item in projection {
            match item {
                SelectItem::Wildcard => out.extend(env.row.iter().cloned()),
                SelectItem::QualifiedWildcard(q) => {
                    for idx in env.schema.indices_of_qualifier(q) {
                        out.push(env.row[idx].clone());
                    }
                }
                SelectItem::Expr { expr, .. } => out.push(self.eval(expr, env)?),
            }
        }
        Ok(out)
    }
}

/// Grouped aggregation input: the input relation plus group keys and
/// per-group member row indices, in first-seen group order. Produced by
/// either grouping path (by value, or in dictionary code space) and consumed
/// by the shared aggregate/HAVING/projection back half.
struct GroupedInput {
    input: Relation,
    keys: Vec<Vec<Value>>,
    members: Vec<Vec<usize>>,
}

/// Partial aggregation state of one morsel (and the coordinator's merge
/// target): groups in first-seen order, a representative (first) row per
/// group, member counts, and — per aggregate — the non-null argument values
/// in row order. Merging partials in morsel order reproduces the serial
/// path's first-seen group order and exact fold order.
#[derive(Default)]
struct AggPartial {
    tally: ScanTally,
    keys: Vec<Vec<Value>>,
    reps: Vec<SharedRow>,
    counts: Vec<u64>,
    /// `args[a][g]` = non-null values of aggregate `a`'s argument in group
    /// `g`, in row order. Aggregates without arguments (`COUNT(*)`) keep
    /// empty lists and fold from the member count alone.
    args: Vec<Vec<Vec<Value>>>,
}

impl AggPartial {
    /// Empty state sized for `n` aggregates.
    fn with_aggregates(n: usize) -> Self {
        AggPartial {
            args: vec![Vec::new(); n],
            ..AggPartial::default()
        }
    }

    /// Group index for `key`, creating the group — with `rep` as its
    /// representative row — on first sight. `index` is the caller's
    /// key-to-group map (kept outside so merge loops can reuse it).
    fn group_of(
        &mut self,
        key: Vec<Value>,
        index: &mut HashMap<Vec<Value>, usize>,
        rep: &SharedRow,
    ) -> usize {
        match index.get(key.as_slice()) {
            Some(&g) => g,
            None => {
                self.keys.push(key.clone());
                self.reps.push(SharedRow::clone(rep));
                self.counts.push(0);
                for per_agg in &mut self.args {
                    per_agg.push(Vec::new());
                }
                index.insert(key, self.keys.len() - 1);
                self.keys.len() - 1
            }
        }
    }
}

/// Group-evaluation context: key values, precomputed aggregates and a
/// representative row for functionally dependent columns.
struct GroupContext<'a> {
    group_exprs: &'a [Expr],
    group_key: &'a [Value],
    aggregates: &'a [FunctionCall],
    agg_values: &'a [Value],
    env: Env<'a>,
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Sort shared rows in place by pre-resolved key columns: comparisons borrow
/// the row values directly — no per-row key extraction or cloning.
fn sort_rows(rows: &mut [SharedRow], keys: &[SortKey]) {
    if keys.is_empty() {
        return;
    }
    rows.sort_by(|a, b| {
        for key in keys {
            let cmp = a[key.col].compare(&b[key.col]).unwrap_or(Ordering::Equal);
            let cmp = if key.asc { cmp } else { cmp.reverse() };
            if cmp != Ordering::Equal {
                return cmp;
            }
        }
        Ordering::Equal
    });
}

/// DISTINCT on the visible prefix of each row (hidden sort-key columns do not
/// participate), keeping the first occurrence.
fn dedup_visible(rows: &mut Vec<SharedRow>, width: usize) {
    let mut seen = std::collections::HashSet::new();
    rows.retain(|row| seen.insert(row[..width].to_vec()));
}

pub(crate) fn literal_value(l: &Literal) -> Result<Value> {
    Ok(match l {
        Literal::Null => Value::Null,
        Literal::Boolean(b) => Value::Bool(*b),
        Literal::Integer(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::String(s) => Value::str(s.clone()),
        Literal::Date(d) => Value::Date(parse_date(d)?),
        Literal::Interval { value, unit } => match unit {
            // Intervals participate in date arithmetic; days become plain
            // integers, months/years are applied via `add_months` below.
            IntervalUnit::Day => Value::Int(*value),
            IntervalUnit::Month => Value::Int(*value * 30),
            IntervalUnit::Year => Value::Int(*value * 365),
        },
    })
}

/// Apply a binary operator to two values.
pub fn apply_binary(op: BinaryOperator, l: Value, r: Value) -> Result<Value> {
    use BinaryOperator::*;
    match op {
        Plus => add_with_calendar(l, r),
        Minus => sub_with_calendar(l, r),
        Multiply => l.mul(&r),
        Divide => l.div(&r),
        Modulo => l.modulo(&r),
        Concat => match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (a, b) => Ok(Value::str(format!("{a}{b}"))),
        },
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let cmp = l.compare(&r);
            let result = match cmp {
                None => return Ok(Value::Bool(false)),
                Some(ordering) => match op {
                    Eq => ordering == Ordering::Equal,
                    NotEq => ordering != Ordering::Equal,
                    Lt => ordering == Ordering::Less,
                    LtEq => ordering != Ordering::Greater,
                    Gt => ordering == Ordering::Greater,
                    GtEq => ordering != Ordering::Less,
                    _ => unreachable!(),
                },
            };
            Ok(Value::Bool(result))
        }
        And | Or => {
            let lb = l.as_bool().unwrap_or(false);
            let rb = r.as_bool().unwrap_or(false);
            Ok(Value::Bool(if op == And { lb && rb } else { lb || rb }))
        }
    }
}

/// Date-aware addition: adding an interval expressed in months/years uses
/// calendar arithmetic. Intervals reach us as integer day counts (see
/// [`literal_value`]), so month/year intervals are recognised by multiples of
/// 30/365 only when added to dates; this matches how the TPC-H queries use
/// them (`+ INTERVAL '1' YEAR`, `+ INTERVAL '3' MONTH`).
fn add_with_calendar(l: Value, r: Value) -> Result<Value> {
    match (&l, &r) {
        (Value::Date(d), Value::Int(n)) => Ok(Value::Date(interval_shift(*d, *n))),
        (Value::Int(n), Value::Date(d)) => Ok(Value::Date(interval_shift(*d, *n))),
        _ => l.add(&r),
    }
}

fn sub_with_calendar(l: Value, r: Value) -> Result<Value> {
    match (&l, &r) {
        (Value::Date(d), Value::Int(n)) => Ok(Value::Date(interval_shift(*d, -*n))),
        _ => l.sub(&r),
    }
}

/// Shift a date by an interval encoded as days; multiples of 365/30 are
/// treated as calendar years/months so that month-end boundaries stay exact.
fn interval_shift(date: i32, encoded_days: i64) -> i32 {
    let negative = encoded_days < 0;
    let abs = encoded_days.unsigned_abs() as i32;

    if abs != 0 && abs % 365 == 0 {
        add_months(date, (abs / 365) * 12 * if negative { -1 } else { 1 })
    } else if abs != 0 && abs % 30 == 0 {
        add_months(date, (abs / 30) * if negative { -1 } else { 1 })
    } else {
        date + if negative { -abs } else { abs }
    }
}

pub(crate) fn apply_unary(op: UnaryOperator, v: Value) -> Result<Value> {
    match op {
        UnaryOperator::Not => match v.as_bool() {
            Some(b) => Ok(Value::Bool(!b)),
            None => Ok(Value::Bool(false)),
        },
        UnaryOperator::Minus => v.neg(),
        UnaryOperator::Plus => Ok(v),
    }
}

pub(crate) fn cast_value(v: Value, ty: DataType) -> Result<Value> {
    match ty {
        DataType::Integer | DataType::BigInt => match v {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| EngineError::new(format!("cannot cast '{s}' to integer"))),
            other => Ok(Value::Int(other.as_i64().unwrap_or(0))),
        },
        DataType::Double | DataType::Decimal(_, _) => match v {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| EngineError::new(format!("cannot cast '{s}' to double"))),
            other => Ok(Value::Float(other.as_f64().unwrap_or(0.0))),
        },
        DataType::Varchar(_) | DataType::Char(_) => Ok(match v {
            Value::Null => Value::Null,
            other => Value::str(other.to_string()),
        }),
        DataType::Date => match v {
            Value::Date(_) | Value::Null => Ok(v),
            Value::Str(s) => Value::date_from_str(&s),
            other => err(format!("cannot cast {other:?} to date")),
        },
        DataType::Boolean => Ok(match v.as_bool() {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        }),
    }
}

fn cross_product(left: &Relation, right: &Relation) -> Relation {
    let schema = left.schema.concat(&right.schema);
    let mut rows = Vec::with_capacity(left.rows.len() * right.rows.len());
    for l in &left.rows {
        for r in &right.rows {
            rows.push(concat_rows(l, r).into());
        }
    }
    Relation { schema, rows }
}

/// Concatenate two rows into a fresh build-time row.
fn concat_rows(left: &[Value], right: &[Value]) -> Row {
    let mut combined = Vec::with_capacity(left.len() + right.len());
    combined.extend_from_slice(left);
    combined.extend_from_slice(right);
    combined
}

/// A left row extended with NULLs for an unmatched outer join.
fn null_extend(left: &[Value], right_width: usize) -> SharedRow {
    let mut combined = Vec::with_capacity(left.len() + right_width);
    combined.extend_from_slice(left);
    combined.extend(std::iter::repeat_n(Value::Null, right_width));
    combined.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matching() {
        assert!(like_match("ECONOMY ANODIZED STEEL", "%ANODIZED%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "abcd"));
        assert!(like_match("special%case", "special%case"));
    }

    #[test]
    fn interval_shift_years_and_months() {
        let base = parse_date("1995-01-31").unwrap();
        // one calendar month
        assert_eq!(interval_shift(base, 30), parse_date("1995-02-28").unwrap());
        // one calendar year
        assert_eq!(interval_shift(base, 365), parse_date("1996-01-31").unwrap());
        // plain days
        assert_eq!(interval_shift(base, 7), base + 7);
    }

    #[test]
    fn binary_comparison_with_null_is_false() {
        let v = apply_binary(BinaryOperator::Eq, Value::Null, Value::Int(1)).unwrap();
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn sort_rows_borrows_key_columns() {
        let mut rows: Vec<SharedRow> = vec![
            vec![Value::Int(2), Value::str("b")].into(),
            vec![Value::Int(1), Value::str("c")].into(),
            vec![Value::Int(1), Value::str("a")].into(),
        ];
        sort_rows(
            &mut rows,
            &[
                SortKey { col: 0, asc: true },
                SortKey { col: 1, asc: false },
            ],
        );
        assert_eq!(rows[0][1], Value::str("c"));
        assert_eq!(rows[1][1], Value::str("a"));
        assert_eq!(rows[2][0], Value::Int(2));
    }

    #[test]
    fn morsels_split_within_buckets_and_respect_visible_bounds() {
        let bucket_of = |n: i64| {
            let mut cols = ColumnBucket::new(1);
            for i in 0..n {
                cols.push_row(&[Value::Int(i)]);
            }
            cols
        };
        let (big, small) = (bucket_of(10_000), bucket_of(100));
        // The second bucket's visible length is snapshot-bounded below its
        // physical length; morsels must never cross the watermark.
        let selected: Vec<(&ColumnBucket, usize)> = vec![(&big, 10_000), (&small, 60)];
        let morsels = build_morsels(&selected);
        assert_eq!(morsels.len(), 4, "3 for the big bucket + 1 small");
        assert_eq!((morsels[0].start, morsels[0].end), (0, 4096));
        assert_eq!((morsels[2].start, morsels[2].end), (8192, 10_000));
        assert_eq!(
            (morsels[3].bucket, morsels[3].start, morsels[3].end),
            (1, 0, 60)
        );
        assert_eq!(morsel_count(&selected), morsels.len());
        // A fully invisible bucket contributes no morsels at all.
        assert_eq!(morsel_count(&[(&small, 0)]), 0);
    }

    #[test]
    fn worker_count_budgets_on_morsels_not_buckets() {
        // One oversized bucket used to cap the pool at a single worker
        // (bucket-count cap); budgeting on morsel count spreads it across
        // the whole pool.
        assert_eq!(scan_worker_count(4, 5, 20_000), 4);
        assert_eq!(scan_worker_count(4, 1, 20_000), 1);
        // The engagement floor still keeps small scans serial.
        assert_eq!(scan_worker_count(4, 2, 8_000), 1);
        // And every worker must own enough rows to amortize its spawn.
        assert_eq!(scan_worker_count(8, 8, 9_000), 2);
    }

    #[test]
    fn dedup_visible_ignores_hidden_columns() {
        let mut rows: Vec<SharedRow> = vec![
            vec![Value::Int(1), Value::Int(100)].into(),
            vec![Value::Int(1), Value::Int(200)].into(),
            vec![Value::Int(2), Value::Int(300)].into(),
        ];
        dedup_visible(&mut rows, 1);
        assert_eq!(rows.len(), 2);
        // first occurrence wins
        assert_eq!(rows[0][1], Value::Int(100));
    }
}
