//! Plan execution: scans, joins, projection, expression sub-queries and the
//! operator-DAG walker. (Aggregation lives in [`crate::agg`], bound
//! expression evaluation in [`crate::bound`].)
//!
//! Queries are first lowered by [`crate::plan::Planner`] into a physical
//! [`Plan`] (scans with pushed-down conjuncts and partition pruning, hash /
//! nested-loop joins, aggregation, sort, limit) whose expressions are bound
//! to slots at plan time; the [`Executor`] walks that DAG. Operators consume
//! and produce a [`Relation`] of reference-counted [`SharedRow`]s, so
//! relations flowing between operators share row storage with the base
//! tables instead of deep-cloning it.
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
//! morsel order, so the result is bit-identical to a serial scan. A
//! `HashAggregate` fed by a scan does not materialize rows at all: it reads
//! the kernel survivors off the column vectors (see [`crate::agg`]).
//! Expression sub-queries arrive planned (see [`crate::bound`]): an
//! uncorrelated sub-plan runs at most once per executor, its rows cached per
//! sub-plan node; a correlated one runs once per outer row, with that row as
//! depth 0 of its environment chain.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use mtsql::ast::*;

use crate::bound::{BoundExpr, Frame, LikeArg, Slot, Source};
use crate::conjuncts::{
    eval_vectorized_range, fast_pred_matches, flip_comparison, CompiledPred, Selection,
};
use crate::error::{err, EngineError, Result};
use crate::plan::{BoundJoin, JoinVariant, Plan, Planner, Project, SeqScan, SortKey};
use crate::schema::Schema;
use crate::stats::StmtCtx;
use crate::table::{BucketView, Row, SharedRow, Snapshot, Table};
use crate::value::{add_months, parse_date, Value};
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
pub(crate) struct Morsel {
    /// Index into the scan's selected-bucket list.
    pub bucket: usize,
    /// First row of the range.
    pub start: usize,
    /// One past the last row of the range.
    pub end: usize,
}

/// One partition bucket a scan visits: its partition key, its columns (read
/// through the scan's projection) and its *visible length* — the whole
/// bucket normally, or the rows visible at the executor's pinned snapshot.
#[derive(Clone, Copy)]
pub(crate) struct Selected<'t> {
    pub key: i64,
    pub cols: BucketView<'t>,
    pub visible: usize,
}

/// One execution of a scan, resolved by [`Executor::open_scan`].
pub(crate) struct ScanInput<'s> {
    pub table: &'s Table,
    /// Did partition pruning select the buckets? Their rows then satisfy the
    /// pruning conjuncts by construction.
    pub pruned: bool,
    pub selected: Vec<Selected<'s>>,
    /// `(scanned, pruned)` bucket counts.
    pub buckets: (u64, u64),
    /// The filter rows inside the selected buckets run.
    pub filter: Vec<CompiledPred>,
}

/// A stored row (a loose row, of table arity) as a scan's output row:
/// shared when the scan reads `whole` rows, else its projected columns.
pub(crate) fn project_stored(scan: &SeqScan, whole: bool, row: &SharedRow) -> SharedRow {
    if whole {
        SharedRow::clone(row)
    } else {
        scan.projection.iter().map(|&c| row[c].clone()).collect()
    }
}

/// Split the selected buckets into [`MORSEL_ROWS`]-row ranges, in bucket
/// order. Morsels of one bucket are contiguous and ascending, so merging
/// per-morsel outputs in morsel order reproduces the serial row order
/// exactly.
pub(crate) fn build_morsels(selected: &[Selected]) -> Vec<Morsel> {
    let mut morsels = Vec::new();
    for (bucket, s) in selected.iter().enumerate() {
        let mut start = 0;
        while start < s.visible {
            let end = (start + MORSEL_ROWS).min(s.visible);
            morsels.push(Morsel { bucket, start, end });
            start = end;
        }
    }
    morsels
}

/// Run `work` over every morsel on a pool of `threads` scoped workers and
/// hand the results to `consume` **in morsel order**, on the calling thread,
/// as they become available — consumption overlaps the workers' evaluation
/// and no more results are held than the workers run ahead. Workers *pull*
/// morsels from a shared index — a slow morsel never stalls the rest of the
/// pool — and each evaluates through its own [`Executor`] charging its own
/// [`StmtCtx`] (the engine is shared and `Sync`; executor-local caches and
/// contexts are not). When the pool joins, the coordinator folds every
/// worker's context into its own and charges the morsels dispatched. The
/// first failure in morsel order — of `work` or of `consume` — is the one
/// reported, exactly the one a serial run would have hit first, and stops
/// the pool; a panicking worker surfaces as a typed error.
pub(crate) fn run_morsel_pool<T, F, C>(
    coordinator: &Executor,
    threads: usize,
    morsels: &[Morsel],
    work: F,
    mut consume: C,
) -> Result<()>
where
    T: Send,
    F: Fn(&Executor, Morsel) -> Result<T> + Sync,
    C: FnMut(T) -> Result<()>,
{
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
    let (engine, params) = (coordinator.engine, coordinator.params.as_slice());
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<T>)>();
    let (consumed, outcome, panicked) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (next, stop, work, tx) = (&next, &stop, &work, tx.clone());
                scope.spawn(move || {
                    let ctx = StmtCtx::new();
                    let worker = Executor::with_params(engine, &ctx, params.to_vec());
                    while !stop.load(AtomicOrdering::Relaxed) {
                        let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                        let Some(morsel) = morsels.get(i) else { break };
                        if tx.send((i, work(&worker, *morsel))).is_err() {
                            break;
                        }
                    }
                    ctx.stats()
                })
            })
            .collect();
        drop(tx);
        // Results that arrived ahead of their turn wait here.
        let mut early: BTreeMap<usize, Result<T>> = BTreeMap::new();
        let mut consumed = 0usize;
        let mut outcome = Ok(());
        for (i, result) in rx {
            early.insert(i, result);
            while let Some(result) = early.remove(&consumed) {
                consumed += 1;
                outcome = result.and_then(&mut consume);
                if outcome.is_err() {
                    break;
                }
            }
            if outcome.is_err() {
                stop.store(true, AtomicOrdering::Relaxed);
                break;
            }
        }
        let mut panicked = 0;
        for handle in handles {
            match handle.join() {
                Ok(worker) => coordinator.ctx.charge(|s| *s += worker),
                Err(_) => panicked += 1,
            }
        }
        (consumed, outcome, panicked)
    });
    if panicked > 0 {
        return Err(EngineError::with_kind(
            crate::EngineErrorKind::Poisoned,
            "parallel scan worker panicked",
        ));
    }
    outcome?;
    // Every morsel index is pulled exactly once by construction; a missing
    // result means a worker died without reporting.
    if consumed < morsels.len() {
        return Err(EngineError::with_kind(
            crate::EngineErrorKind::Poisoned,
            format!("morsel {consumed} was never completed by any worker"),
        ));
    }
    coordinator.ctx.charge(|s| {
        s.morsels_dispatched += morsels.len() as u64;
        s.morsel_workers += threads as u64;
    });
    Ok(())
}

/// Per-scan accounting charged to the statement afterwards.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ScanTally {
    /// Rows visited (loose-row loops) or covered by column kernels.
    pub visited: u64,
    /// Rows whose predicates were evaluated column-at-a-time.
    pub vectorized: u64,
    /// Rows late-materialized from buckets after qualifying.
    pub materialized: u64,
    /// Rows processed through dictionary code space (per-predicate code
    /// kernels, code-space grouping, dictionary-decoding materializations).
    pub dict: u64,
}

impl ScanTally {
    pub(crate) fn absorb(&mut self, other: ScanTally) {
        self.visited += other.visited;
        self.vectorized += other.vectorized;
        self.materialized += other.materialized;
        self.dict += other.dict;
    }
}

/// Select the partition buckets a scan visits under an optional pruning key
/// set, read through the scan's `projection`, together with the `(scanned,
/// pruned)` bucket counts. Shared by every scan path so bucket selection,
/// snapshot bounding and partition accounting can never drift apart. A
/// snapshot that predates an open transaction's destructive rewrite is
/// served from the table's retained pre-rewrite shadow (see
/// [`crate::table::Table::read_at`]), so committed-floor readers never
/// observe uncommitted rewritten storage.
pub(crate) fn select_buckets<'t>(
    table: &'t Table,
    prune_keys: &Option<std::collections::BTreeSet<i64>>,
    snapshot: Option<&Snapshot>,
    projection: &'t [usize],
) -> (Vec<Selected<'t>>, u64, u64) {
    let view = table.read_at(snapshot);
    let total = view.partition_count() as u64;
    let selected: Vec<Selected> = view
        .partitions()
        .filter(|(key, _)| prune_keys.as_ref().is_none_or(|keys| keys.contains(key)))
        .map(|(key, cols)| Selected {
            key,
            cols: BucketView::new(cols, projection),
            visible: view.visible_bucket_len(key).min(cols.len()),
        })
        .collect();
    let scanned = selected.len() as u64;
    (selected, scanned, total - scanned)
}

/// Run the fast predicates of `filter` as column kernels over rows `range`
/// of one bucket. Returns the surviving selection (bit `i` stands for bucket
/// row `range.start + i`) and the range's accounting; late materialization
/// is charged by whoever builds rows from the survivors. Pure (no engine
/// access).
pub(crate) fn kernel_select(
    cols: BucketView,
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
    (sel, tally)
}

/// A materialized intermediate result. Rows are shared with their producers;
/// cloning a relation (or filtering one) copies pointers, not values.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    pub schema: Schema,
    pub rows: Vec<SharedRow>,
}

/// The rows a correlated sub-plan runs under: the row of the operator whose
/// expression holds the sub-query, then that operator's own chain.
/// [`crate::bound::Slot::Outer`] `{ depth, index }` reads column `index`
/// `depth` links up.
#[derive(Clone, Copy)]
pub struct Env<'a> {
    pub row: &'a [Value],
    pub parent: Option<&'a Env<'a>>,
}

impl<'a> Env<'a> {
    /// Column `index` of the row `depth` links up the chain.
    pub(crate) fn get(&self, depth: usize, index: usize) -> Option<&'a Value> {
        match depth {
            0 => self.row.get(index),
            _ => self.parent?.get(depth - 1, index),
        }
    }
}

/// Per-query executor borrowing the engine (tables, UDFs) and the context
/// of the statement it runs for, which it charges.
pub struct Executor<'e> {
    engine: &'e Engine,
    ctx: &'e StmtCtx,
    /// Bound parameter values; `Expr::Param(i)` evaluates to `params[i]`.
    /// Empty for statements without parameters — evaluating an unbound
    /// parameter is an error, and constant folding over an unbound parameter
    /// simply fails (so planning a parameterized query defers those
    /// predicates to execution time).
    params: Vec<Value>,
    /// Rows of the uncorrelated expression sub-queries run so far, per
    /// sub-plan node, found by `Arc` identity — each entry holds its node,
    /// so no other plan can take its address while the executor lives.
    subquery_cache: RefCell<Vec<(Arc<Plan>, Rc<Relation>)>>,
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
    /// Create an executor for one top-level query, charging `ctx`.
    pub fn new(engine: &'e Engine, ctx: &'e StmtCtx) -> Self {
        Executor::with_params(engine, ctx, Vec::new())
    }

    /// Create an executor with bound parameter values (`Expr::Param(i)`
    /// evaluates to `params[i]`), charging `ctx`.
    pub fn with_params(engine: &'e Engine, ctx: &'e StmtCtx, params: Vec<Value>) -> Self {
        Executor {
            engine,
            ctx,
            params,
            subquery_cache: RefCell::new(Vec::new()),
            snapshot: None,
        }
    }

    /// Bound every scan of this executor at `snapshot` (snapshot-isolated
    /// cursors, per-statement floor pins, in-transaction reads).
    pub(crate) fn pin(&mut self, snapshot: Snapshot) {
        self.snapshot = Some(snapshot);
    }

    pub(crate) fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// The context of the statement this executor charges.
    pub(crate) fn ctx(&self) -> &'e StmtCtx {
        self.ctx
    }

    /// The value bound to parameter `$index + 1`.
    pub(crate) fn param(&self, index: usize) -> Result<Value> {
        match self.params.get(index) {
            Some(v) => Ok(v.clone()),
            None => err(format!(
                "parameter ${} is not bound ({} value(s) bound)",
                index + 1,
                self.params.len()
            )),
        }
    }

    // ------------------------------------------------------------------
    // Plan execution
    // ------------------------------------------------------------------

    /// Execute a physical plan; `outer` is the row chain a correlated
    /// sub-plan runs under.
    pub fn execute_plan(&self, plan: &Plan, outer: Option<&Env>) -> Result<Relation> {
        match plan {
            Plan::Empty { .. } => Ok(Relation {
                schema: Schema::new(),
                rows: vec![Vec::new().into()],
            }),
            Plan::SeqScan(scan) => self.exec_scan(scan, outer),
            Plan::Filter {
                input,
                predicates,
                bound,
            } => {
                bound_arity("Filter", predicates.len(), bound.len())?;
                let rel = self.execute_plan(input, outer)?;
                let mut rows = Vec::with_capacity(rel.rows.len());
                for row in &rel.rows {
                    if self.bound_all_true(bound, &Frame::row(row, outer))? {
                        rows.push(SharedRow::clone(row));
                    }
                }
                Ok(Relation {
                    schema: rel.schema,
                    rows,
                })
            }
            Plan::HashJoin {
                left,
                right,
                keys,
                residual,
                kind,
                bound,
                ..
            } => {
                bound_arity("HashJoin", keys.len(), bound.keys.len())?;
                bound_arity("HashJoin", residual.len(), bound.residual.len())?;
                match kind {
                    JoinVariant::Plain(k) => {
                        let l = self.execute_plan(left, outer)?;
                        let r = self.execute_plan(right, outer)?;
                        self.hash_join(&l, &r, bound, *k, outer)
                    }
                    variant => self.key_join(left, right, bound, *variant, outer),
                }
            }
            Plan::NestedLoopJoin {
                left,
                right,
                predicates,
                kind,
                bound,
                ..
            } => {
                bound_arity("NestedLoopJoin", predicates.len(), bound.len())?;
                let l = self.execute_plan(left, outer)?;
                let r = self.execute_plan(right, outer)?;
                if predicates.is_empty() && *kind == JoinKind::Cross {
                    Ok(cross_product(&l, &r))
                } else {
                    self.nested_loop_join(&l, &r, bound, *kind, outer)
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
            let frame = Frame::row(row, outer);
            rows.push(self.project_row(project, &frame)?.into());
        }
        if project.distinct {
            dedup_visible(&mut rows, project.visible_width);
        }
        Ok(Relation {
            schema: project.schema.clone(),
            rows,
        })
    }

    /// One output row of a projection head (wildcards were expanded into
    /// slots when the plan was bound).
    pub(crate) fn project_row(&self, project: &Project, frame: &Frame) -> Result<Row> {
        if project.bound.len() < project.items.len() {
            return Err(crate::verify::unbound("Project").into());
        }
        project
            .bound
            .iter()
            .map(|item| self.eval_bound(item, frame))
            .collect()
    }

    // ------------------------------------------------------------------
    // Scans
    // ------------------------------------------------------------------

    /// Execute one base-table scan: skip partition buckets the plan's pruning
    /// keys exclude, evaluate the pushed filter per visited row (vectorized
    /// inside buckets), and build only the projected columns of every
    /// qualifying bucket row (loose rows are shared, or projected).
    fn exec_scan(&self, scan: &SeqScan, outer: Option<&Env>) -> Result<Relation> {
        let input = self.open_scan(scan)?;
        let mut tally = ScanTally::default();
        let mut rows = self.scan_buckets(
            &input.selected,
            &input.filter,
            outer,
            &mut tally,
            |_, rows, _| Ok(rows),
        )?;
        self.scan_loose(scan, &input, outer, &mut tally, |row| {
            rows.push(SharedRow::clone(row));
            Ok(())
        })?;
        self.note_scan(&input, tally);
        Ok(Relation {
            schema: scan.schema.clone(),
            rows,
        })
    }

    /// Resolve one execution of a scan: its table
    /// ([`Executor::scan_table`]), the buckets the effective pruning keys
    /// select, read through the projection, and the filter their rows run.
    pub(crate) fn open_scan<'s>(&self, scan: &'s SeqScan) -> Result<ScanInput<'s>>
    where
        'e: 's,
    {
        let table = self.scan_table(scan)?;
        let prune_keys = self.effective_prune_keys(scan, table.partition_column());
        let (selected, scanned, pruned) =
            select_buckets(table, &prune_keys, self.snapshot.as_ref(), &scan.projection);
        Ok(ScanInput {
            table,
            pruned: prune_keys.is_some(),
            filter: self.compile_bucket_filter(scan, prune_keys.is_some())?,
            selected,
            buckets: (scanned, pruned),
        })
    }

    /// The scan's table, once the scan's projection is checked to address
    /// it (a cached plan may outlive a re-created table).
    pub(crate) fn scan_table(&self, scan: &SeqScan) -> Result<&'e Table> {
        let table = self.engine.database().table(&scan.table)?;
        let width = table.columns.len();
        if scan.projection.len() != scan.schema.len() || scan.projection.iter().any(|&c| c >= width)
        {
            return Err(crate::verify::PlanError {
                class: crate::verify::PlanErrorClass::Schema,
                node: format!("SeqScan {}", scan.table),
                detail: format!(
                    "projection {:?} does not address the {width}-column table",
                    scan.projection
                ),
            }
            .into());
        }
        Ok(table)
    }

    /// Charge a finished scan to the statement.
    pub(crate) fn note_scan(&self, input: &ScanInput, tally: ScanTally) {
        let (scanned, pruned) = input.buckets;
        self.ctx.charge(|s| {
            s.rows_scanned += tally.visited;
            s.partitions_scanned += scanned;
            s.partitions_pruned += pruned;
            s.rows_vectorized += tally.vectorized;
            s.late_materialized += tally.materialized;
            s.dict_kernel_rows += tally.dict;
        });
    }

    /// Hand `each` the scan's loose rows — an unpartitioned table's rows, or
    /// a partitioned table's rows whose key is not an integer — that pass
    /// its full pushed filter, as output rows: the stored row itself when
    /// the scan reads whole rows, else its projected columns. They carry
    /// arbitrary partition keys, so the pruning conjuncts re-check (the
    /// un-pruned bucket filter already is the full filter).
    pub(crate) fn scan_loose(
        &self,
        scan: &SeqScan,
        input: &ScanInput,
        outer: Option<&Env>,
        tally: &mut ScanTally,
        mut each: impl FnMut(&SharedRow) -> Result<()>,
    ) -> Result<()> {
        let loose = self.visible_loose_rows(input.table);
        if loose.is_empty() {
            return Ok(());
        }
        let recompiled;
        let filter = if input.pruned {
            recompiled = self.compile_full_scan_filter(scan)?;
            &recompiled
        } else {
            &input.filter
        };
        let whole = scan.reads_whole_rows(input.table.columns.len());
        for stored in loose {
            tally.visited += 1;
            let projected;
            let row = if whole {
                stored
            } else {
                projected = project_stored(scan, false, stored);
                &projected
            };
            if self.filter_matches(filter, row, outer)? {
                each(row)?;
            }
        }
        Ok(())
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
        // The conjuncts resolve against the scan's output columns.
        let Some(pidx) = partition_col.and_then(|c| scan.output_of(c)) else {
            return Cow::Borrowed(&scan.prune_keys);
        };
        let mut keys = scan.prune_keys.clone();
        let fold = |e: &Expr| self.fold_key(e);
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
    pub(crate) fn visible_loose_rows<'t>(&self, table: &'t Table) -> &'t [SharedRow] {
        let view = table.read_at(self.snapshot.as_ref());
        let loose = view.loose_rows();
        &loose[..view.visible_loose_len().min(loose.len())]
    }

    /// Run `work` over the selected buckets and hand each result to
    /// `consume` in order. Serial: one call per bucket over its whole
    /// visible prefix, on the calling thread. Morsel-driven, when `poolable`
    /// and the parallel budget allow: the buckets split into row-range
    /// morsels pulled by a scoped worker pool, each worker calls `work` per
    /// morsel through its own executor (without the outer row chain), and
    /// results are consumed in morsel order — identical to the serial order
    /// by construction.
    fn scan_parts<'t, T, W, C>(
        &self,
        selected: &[Selected<'t>],
        poolable: bool,
        outer: Option<&Env>,
        work: W,
        mut consume: C,
    ) -> Result<()>
    where
        T: Send,
        W: Fn(&Executor, Selected<'t>, std::ops::Range<usize>, Option<&Env>) -> Result<T> + Sync,
        C: FnMut(T) -> Result<()>,
    {
        let total: usize = selected.iter().map(|s| s.visible).sum();
        let budget = effective_parallel_budget(&self.engine.config());
        let pool = if budget > 1 && poolable {
            let morsels = build_morsels(selected);
            let threads = scan_worker_count(budget, morsels.len(), total);
            (threads > 1).then_some((morsels, threads))
        } else {
            None
        };
        let Some((morsels, threads)) = pool else {
            for s in selected {
                consume(work(self, *s, 0..s.visible, outer)?)?;
            }
            return Ok(());
        };
        run_morsel_pool(
            self,
            threads,
            &morsels,
            |worker, m| work(worker, selected[m.bucket], m.start..m.end, None),
            consume,
        )
    }

    /// Scan the selected buckets ([`Executor::scan_parts`]) and pass each
    /// part's qualifying rows through `keep` (identity for a plain scan, the
    /// key probe for a decorrelated join). Filters with interpreted
    /// conjuncts pool too, except in a scan running under an outer row
    /// (inside a correlated sub-plan), which stays on the calling thread.
    fn scan_buckets<F>(
        &self,
        selected: &[Selected],
        filter: &[CompiledPred],
        outer: Option<&Env>,
        tally: &mut ScanTally,
        keep: F,
    ) -> Result<Vec<SharedRow>>
    where
        F: Fn(&Executor, Vec<SharedRow>, Option<&Env>) -> Result<Vec<SharedRow>> + Sync,
    {
        let poolable = outer.is_none() || filter.iter().all(CompiledPred::is_fast);
        let mut rows: Vec<SharedRow> = Vec::new();
        self.scan_parts(
            selected,
            poolable,
            outer,
            |exec, s, range, outer| {
                let mut scanned: Vec<SharedRow> = Vec::new();
                let part = exec.scan_range(s.cols, range, filter, outer, &mut scanned)?;
                Ok((keep(exec, scanned, outer)?, part))
            },
            |(kept, part)| {
                tally.absorb(part);
                if rows.is_empty() {
                    rows = kept;
                } else {
                    rows.extend(kept);
                }
                Ok(())
            },
        )?;
        Ok(rows)
    }

    /// The one bucket-scan routine: run the fast predicates of `filter` as
    /// column kernels over rows `range` of one bucket, late-materialize the
    /// survivors' projected columns, and check the interpreted conjuncts on
    /// those. The conjuncts are side-effect-free boolean filters under AND,
    /// so running the compiled ones first cannot change the qualifying row
    /// set; what it *can* change is error/UDF behaviour — an interpreted
    /// conjunct is never evaluated (and thus cannot raise an evaluation
    /// error or count UDF calls) for rows a compiled conjunct rejects,
    /// whatever their WHERE-clause order. Callers pre-bound `range` at the
    /// scan's snapshot watermark.
    pub(crate) fn scan_range(
        &self,
        cols: BucketView,
        range: std::ops::Range<usize>,
        filter: &[CompiledPred],
        outer: Option<&Env>,
        out: &mut Vec<SharedRow>,
    ) -> Result<ScanTally> {
        let (sel, mut tally) = kernel_select(cols, &range, filter);
        tally.materialized = sel.count() as u64;
        if cols.decodes_dict() {
            // Qualifying rows decode a projected dictionary column while
            // materializing.
            tally.dict += tally.materialized;
        }
        let interpreted: Vec<&CompiledPred> = filter.iter().filter(|p| !p.is_fast()).collect();
        if interpreted.is_empty() {
            sel.for_each(|i| out.push(cols.materialize(range.start + i)));
            return Ok(tally);
        }
        'rows: for i in sel.iter().map(|i| range.start + i) {
            let row = cols.materialize(i);
            for pred in &interpreted {
                if !self.filter_matches(std::slice::from_ref(*pred), &row, outer)? {
                    continue 'rows;
                }
            }
            out.push(row);
        }
        Ok(tally)
    }

    /// The full pushed filter of a scan — pruning predicates followed by the
    /// residual ones — as applied to loose rows and un-pruned scans.
    pub(crate) fn compile_full_scan_filter(&self, scan: &SeqScan) -> Result<Vec<CompiledPred>> {
        bound_arity("SeqScan", scan.pruning.len(), scan.bound.pruning.len())?;
        let mut preds = self.compile_filter(&scan.bound.pruning);
        preds.extend(self.compile_bucket_filter(scan, true)?);
        Ok(preds)
    }

    /// The filter applied to rows *inside* the scanned partition buckets:
    /// when pruning selected the buckets, rows satisfy the pruning
    /// predicates by construction (the bucket key *is* the partition value)
    /// and only the residual conjuncts run; otherwise the full pushed
    /// filter applies. Shared by the batch scan, the streaming aggregate and
    /// the streaming cursor so the choice can never drift apart.
    pub(crate) fn compile_bucket_filter(
        &self,
        scan: &SeqScan,
        pruned: bool,
    ) -> Result<Vec<CompiledPred>> {
        if !pruned {
            return self.compile_full_scan_filter(scan);
        }
        bound_arity("SeqScan", scan.residual.len(), scan.bound.residual.len())?;
        Ok(self.compile_filter(&scan.bound.residual))
    }

    /// Does this scan's per-bucket filter compile entirely to fast predicate
    /// forms? Fast filters run fully as column kernels. (Used by the EXPLAIN
    /// renderer.)
    pub(crate) fn scan_compiles_fast(&self, scan: &SeqScan) -> bool {
        self.compile_bucket_filter(scan, scan.prune_keys.is_some())
            .is_ok_and(|filter| filter.iter().all(CompiledPred::is_fast))
    }

    /// The constant a partition-key expression folds to: bound against the
    /// empty schema and evaluated by [`Executor::constant_of`] with this
    /// executor's parameters, so pruning recognises every constant form the
    /// scan filter would (functions and UDFs over literals included). `None`
    /// for anything reading a column.
    pub(crate) fn fold_key(&self, expr: &Expr) -> Option<Value> {
        let planner = Planner::new(self.engine, self.ctx);
        let bound = planner
            .bind_expr(expr, &Schema::new(), "partition key")
            .ok()?;
        self.constant_of(&bound)
    }

    // ------------------------------------------------------------------
    // Compiled scan filters
    // ------------------------------------------------------------------

    /// Compile bound conjuncts into the fast per-row predicate forms where
    /// possible (`column <cmp> constant`, `IN`, `BETWEEN`, `LIKE` against a
    /// literal — constants evaluated now that parameters are bound);
    /// everything else keeps its bound expression.
    pub(crate) fn compile_filter(&self, conjuncts: &[BoundExpr]) -> Vec<CompiledPred> {
        conjuncts.iter().map(|c| self.compile_pred(c)).collect()
    }

    /// The value of a row-independent operand, when it has one (a sub-query
    /// is never run here).
    fn constant_of(&self, expr: &BoundExpr) -> Option<Value> {
        let row_free = !expr.any(|e| matches!(e, BoundExpr::Slot(_) | BoundExpr::Subquery { .. }));
        row_free
            .then(|| self.eval_bound(expr, &Frame::empty()).ok())
            .flatten()
    }

    fn compile_pred(&self, conjunct: &BoundExpr) -> CompiledPred {
        let column = |e: &BoundExpr| match e {
            BoundExpr::Slot(Slot::Input(idx)) => Some(*idx),
            _ => None,
        };
        let compiled = match conjunct {
            BoundExpr::Binary { op, left, right } if op.is_comparison() => {
                match (column(left), column(right)) {
                    (Some(idx), _) => self.constant_of(right).map(|value| CompiledPred::Compare {
                        idx,
                        op: *op,
                        value,
                    }),
                    (None, Some(idx)) => {
                        self.constant_of(left).map(|value| CompiledPred::Compare {
                            idx,
                            op: flip_comparison(*op),
                            value,
                        })
                    }
                    (None, None) => None,
                }
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => column(expr).and_then(|idx| {
                let values = list
                    .iter()
                    .map(|i| self.constant_of(i))
                    .collect::<Option<_>>()?;
                Some(CompiledPred::InSet {
                    idx,
                    values,
                    negated: *negated,
                })
            }),
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => column(expr).and_then(|idx| {
                Some(CompiledPred::Between {
                    idx,
                    lo: self.constant_of(low)?,
                    hi: self.constant_of(high)?,
                    negated: *negated,
                })
            }),
            BoundExpr::Like {
                expr,
                pattern: LikeArg::Compiled(pattern),
                negated,
            } => column(expr).map(|idx| CompiledPred::Like {
                idx,
                pattern: Arc::clone(pattern),
                negated: *negated,
            }),
            _ => None,
        };
        compiled.unwrap_or_else(|| CompiledPred::Generic(conjunct.clone()))
    }

    /// `true` when every compiled conjunct accepts the row. The fast forms
    /// compare against borrowed values; only the generic fallback evaluates
    /// an expression.
    pub(crate) fn filter_matches(
        &self,
        filter: &[CompiledPred],
        row: &[Value],
        outer: Option<&Env>,
    ) -> Result<bool> {
        for pred in filter {
            let ok = match pred {
                CompiledPred::Generic(expr) => self
                    .eval_bound(expr, &Frame::row(row, outer))?
                    .as_bool()
                    .unwrap_or(false),
                fast => fast_pred_matches(fast, row),
            };
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Evaluate one side's join keys for `row` into the reusable `key`
    /// buffer; `false` when a key is NULL (NULL equals nothing).
    fn join_key<'k>(
        &self,
        exprs: impl Iterator<Item = &'k BoundExpr>,
        frame: &Frame,
        key: &mut Vec<Value>,
    ) -> Result<bool> {
        key.clear();
        for e in exprs {
            key.push(self.eval_bound(e, frame)?);
        }
        Ok(!key.iter().any(Value::is_null))
    }

    pub(crate) fn hash_join(
        &self,
        left: &Relation,
        right: &Relation,
        join: &BoundJoin,
        kind: JoinKind,
        outer: Option<&Env>,
    ) -> Result<Relation> {
        let schema = left.schema.concat(&right.schema);
        // Build hash table on the right input.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        let mut key: Vec<Value> = Vec::with_capacity(join.keys.len());
        for (i, row) in right.rows.iter().enumerate() {
            let frame = Frame::row(row, outer);
            if self.join_key(join.keys.iter().map(|(_, r)| r), &frame, &mut key)? {
                match table.get_mut(key.as_slice()) {
                    Some(rows) => rows.push(i),
                    None => {
                        table.insert(key.clone(), vec![i]);
                    }
                }
            }
        }
        let right_width = right.schema.len();
        let mut rows = Vec::new();
        for lrow in &left.rows {
            let frame = Frame::row(lrow, outer);
            let mut matched = false;
            if self.join_key(join.keys.iter().map(|(l, _)| l), &frame, &mut key)? {
                for &ri in table.get(key.as_slice()).into_iter().flatten() {
                    let combined = concat_rows(lrow, &right.rows[ri]);
                    if self.bound_all_true(&join.residual, &Frame::row(&combined, outer))? {
                        matched = true;
                        rows.push(combined.into());
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
    /// [`crate::decorrelate`]): index the build (right) side's keys once
    /// (NULL keys skipped — they equal nothing) and filter the probe (left)
    /// side by key membership, emitting probe rows unchanged and in order.
    /// A semi / anti join over a scan reads its keys straight off the scan
    /// ([`Executor::scan_build_keys`]); otherwise the build side
    /// materializes. When the probe side is a base-table scan with plain
    /// column keys, the probe runs *inside* the scan pipeline
    /// ([`Executor::key_join_scan`]); otherwise the probe plan materializes
    /// and filters row-wise.
    fn key_join(
        &self,
        left: &Plan,
        right: &Plan,
        join: &BoundJoin,
        variant: JoinVariant,
        outer: Option<&Env>,
    ) -> Result<Relation> {
        let direct = match variant {
            JoinVariant::Semi | JoinVariant::Anti => self.scan_build_keys(right, join, outer)?,
            _ => None,
        };
        let mut key: Vec<Value> = Vec::with_capacity(join.keys.len());
        let (build, map) = match direct {
            // Semi / anti joins only test membership: no build row is kept.
            Some(map) => (Relation::default(), map),
            None => {
                let build = self.execute_plan(right, outer)?;
                let mut map: HashMap<Vec<Value>, usize> = HashMap::with_capacity(build.rows.len());
                for (i, row) in build.rows.iter().enumerate() {
                    let frame = Frame::row(row, outer);
                    if self.join_key(join.keys.iter().map(|(_, r)| r), &frame, &mut key)?
                        && !map.contains_key(key.as_slice())
                    {
                        map.insert(key.clone(), i);
                    }
                }
                (build, map)
            }
        };
        self.ctx.charge(|s| s.subqueries_unnested += 1);

        if let Plan::SeqScan(scan) = left {
            if let Some(rel) = self.key_join_scan(scan, join, variant, &build, &map, outer)? {
                return Ok(rel);
            }
        }
        let l = self.execute_plan(left, outer)?;
        let mut rows = Vec::new();
        for lrow in &l.rows {
            let frame = Frame::row(lrow, outer);
            self.join_key(join.keys.iter().map(|(p, _)| p), &frame, &mut key)?;
            if self.key_probe_matches(&key, variant, &map, &build, join, lrow, outer)? {
                rows.push(SharedRow::clone(lrow));
            }
        }
        Ok(Relation {
            schema: l.schema,
            rows,
        })
    }

    /// The build-key set of a semi / anti join whose build side is a scan
    /// of a partitioned table — or a `Project` of plain input slots over
    /// one, which the keys are read through — computed without building a
    /// single build row: the scan's kernels narrow each part, its
    /// interpreted conjuncts and the key expressions evaluate on the
    /// survivors through a bucket frame. `None` for any other build side
    /// (and for unpartitioned tables, whose rows are shared, not built).
    /// The keys' positions in the map are meaningless: membership is all
    /// the two variants test.
    fn scan_build_keys(
        &self,
        right: &Plan,
        join: &BoundJoin,
        outer: Option<&Env>,
    ) -> Result<Option<HashMap<Vec<Value>, usize>>> {
        // The build keys read the build side's output: through a `Project`
        // of input slots, they read the scan's output instead.
        let (scan, through) = match right {
            Plan::SeqScan(scan) => (scan, None),
            Plan::Project(p) => {
                let Plan::SeqScan(scan) = p.input.as_ref() else {
                    return Ok(None);
                };
                let slots = p.bound.iter().map(|item| match item {
                    BoundExpr::Slot(Slot::Input(col)) => Some(Some(*col)),
                    _ => None,
                });
                let Some(through) = slots.collect::<Option<Vec<_>>>() else {
                    return Ok(None);
                };
                (scan, Some(through))
            }
            _ => return Ok(None),
        };
        let table = self.engine.database().table(&scan.table)?;
        if table.partition_column().is_none() {
            return Ok(None);
        }
        let mut keys: Vec<BoundExpr> = join.keys.iter().map(|(_, build)| build.clone()).collect();
        if let Some(through) = &through {
            for key in &mut keys {
                crate::prune::apply(key, through);
            }
        }
        let input = self.open_scan(scan)?;
        let interpreted: Vec<&BoundExpr> = input
            .filter
            .iter()
            .filter_map(|pred| match pred {
                CompiledPred::Generic(expr) => Some(expr),
                _ => None,
            })
            .collect();
        let mut map: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut tally = ScanTally::default();
        self.scan_parts(
            &input.selected,
            outer.is_none(),
            outer,
            |exec, s, range, outer| {
                let (sel, part) = kernel_select(s.cols, &range, &input.filter);
                let mut found: Vec<Vec<Value>> = Vec::new();
                let mut key: Vec<Value> = Vec::with_capacity(keys.len());
                'rows: for row in sel.iter().map(|i| range.start + i) {
                    let frame = Frame {
                        src: Source::Bucket(s.cols, row),
                        consts: &[],
                        outer,
                        group: None,
                    };
                    for pred in &interpreted {
                        if !exec.eval_bound(pred, &frame)?.as_bool().unwrap_or(false) {
                            continue 'rows;
                        }
                    }
                    if exec.join_key(keys.iter(), &frame, &mut key)? {
                        found.push(key.clone());
                    }
                }
                Ok((found, part))
            },
            |(found, part)| {
                tally.absorb(part);
                for key in found {
                    map.entry(key).or_insert(0);
                }
                Ok(())
            },
        )?;
        let mut key: Vec<Value> = Vec::with_capacity(keys.len());
        self.scan_loose(scan, &input, outer, &mut tally, |row| {
            if self.join_key(keys.iter(), &Frame::row(row, outer), &mut key)? {
                map.entry(key.clone()).or_insert(0);
            }
            Ok(())
        })?;
        self.note_scan(&input, tally);
        Ok(Some(map))
    }

    /// Membership outcome of one probe row against the build-key map. The
    /// `Single` variant looks up its (unique) build row, NULL-extends on a
    /// miss, and evaluates the rewritten comparison over the concatenated
    /// row — a miss therefore compares against NULL aggregates and fails,
    /// matching the per-row sub-plan's aggregate over an empty inner set.
    #[allow(clippy::too_many_arguments)]
    fn key_probe_matches(
        &self,
        key: &[Value],
        variant: JoinVariant,
        map: &HashMap<Vec<Value>, usize>,
        build: &Relation,
        join: &BoundJoin,
        lrow: &[Value],
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
                        let mut row = lrow.to_vec();
                        row.resize(lrow.len() + build.schema.len(), Value::Null);
                        row
                    }
                };
                self.bound_all_true(&join.residual, &Frame::row(&row, outer))
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
    fn key_join_scan(
        &self,
        scan: &SeqScan,
        join: &BoundJoin,
        variant: JoinVariant,
        build: &Relation,
        map: &HashMap<Vec<Value>, usize>,
        outer: Option<&Env>,
    ) -> Result<Option<Relation>> {
        let mut key_cols = Vec::with_capacity(join.keys.len());
        for (probe, _) in &join.keys {
            let BoundExpr::Slot(Slot::Input(idx)) = probe else {
                return Ok(None);
            };
            key_cols.push(*idx);
        }

        let mut input = self.open_scan(scan)?;
        // Per-column build-key sets are a superset filter for multi-key
        // joins; the exact tuple probe below still runs on the survivors.
        // Anti/aggregate joins keep (or NULL-extend) non-matching rows, so
        // only semi joins may pre-filter.
        if variant == JoinVariant::Semi {
            for (i, &idx) in key_cols.iter().enumerate() {
                // The only legal key-set injection site: a decorrelated
                // probe's own scan columns. Under verification, re-check the
                // bound slot resolves through the scan's projection before
                // the kernel is installed (the static verifier cannot see
                // this far).
                if crate::verify::verify_enabled(&self.engine.config)
                    && idx >= scan.projection.len()
                {
                    return Err(crate::verify::PlanError {
                        class: crate::verify::PlanErrorClass::Variant,
                        node: format!("SeqScan {}", scan.table),
                        detail: format!(
                            "key-set kernel column {idx} out of the probe's {}-column projection",
                            scan.projection.len()
                        ),
                    }
                    .into());
                }
                let set: HashSet<Value> = map.keys().map(|k| k[i].clone()).collect();
                input.filter.push(CompiledPred::KeySet {
                    idx,
                    set: Arc::new(set),
                });
            }
        }

        let probe =
            |exec: &Executor, row: &SharedRow, key: &mut Vec<Value>, outer: Option<&Env>| {
                key.clear();
                key.extend(key_cols.iter().map(|&i| row[i].clone()));
                exec.key_probe_matches(key, variant, map, build, join, row, outer)
            };
        let mut tally = ScanTally::default();
        // The probe is pool-safe by construction (keys read by index, and
        // the rewritten residual only references the probe and build schemas
        // — see `decorrelate`), so it rides `scan_buckets`' per-part hook.
        let mut rows = self.scan_buckets(
            &input.selected,
            &input.filter,
            outer,
            &mut tally,
            |exec, scanned, outer| {
                let mut kept: Vec<SharedRow> = Vec::with_capacity(scanned.len());
                let mut key: Vec<Value> = Vec::with_capacity(key_cols.len());
                for row in scanned {
                    if probe(exec, &row, &mut key, outer)? {
                        kept.push(row);
                    }
                }
                Ok(kept)
            },
        )?;
        // Loose rows: the full pushed filter, then the exact key probe.
        let mut key: Vec<Value> = Vec::with_capacity(key_cols.len());
        self.scan_loose(scan, &input, outer, &mut tally, |row| {
            if probe(self, row, &mut key, outer)? {
                rows.push(SharedRow::clone(row));
            }
            Ok(())
        })?;
        self.note_scan(&input, tally);
        Ok(Some(Relation {
            schema: scan.schema.clone(),
            rows,
        }))
    }

    fn nested_loop_join(
        &self,
        left: &Relation,
        right: &Relation,
        conjuncts: &[BoundExpr],
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
                if self.bound_all_true(conjuncts, &Frame::row(&combined, outer))? {
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
    // Expression sub-queries
    // ------------------------------------------------------------------

    /// The rows of an expression sub-query's plan. An uncorrelated sub-plan
    /// runs at most once per executor, its rows cached per sub-plan node; a
    /// correlated one runs for the frame's row, which becomes depth 0 of its
    /// environment chain.
    pub(crate) fn subquery_rows(
        &self,
        plan: &Arc<Plan>,
        correlated: bool,
        f: &Frame,
    ) -> Result<Rc<Relation>> {
        if correlated {
            let Source::Row(row) = f.src else {
                return err("a correlated sub-query reached a columnar frame (planner defect)");
            };
            let env = Env {
                row,
                parent: f.outer,
            };
            return Ok(Rc::new(self.execute_plan(plan, Some(&env))?));
        }
        let cached = self.subquery_cache.borrow();
        if let Some((_, rows)) = cached.iter().find(|(node, _)| Arc::ptr_eq(node, plan)) {
            return Ok(Rc::clone(rows));
        }
        drop(cached);
        let rows = Rc::new(self.execute_plan(plan, None)?);
        self.subquery_cache
            .borrow_mut()
            .push((Arc::clone(plan), Rc::clone(&rows)));
        Ok(rows)
    }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// An operator whose expression list and bound list differ in length was
/// never bound (or was edited after binding): refuse to run it.
pub(crate) fn bound_arity(node: &str, exprs: usize, bound: usize) -> Result<()> {
    if exprs == bound {
        Ok(())
    } else {
        Err(crate::verify::unbound(node).into())
    }
}

/// Sort shared rows in place by pre-resolved key columns: comparisons borrow
/// the row values directly — no per-row key extraction or cloning. Keys
/// compare by [`Value::sort_cmp`], a total order: NULLs sort last ascending
/// and first descending.
fn sort_rows(rows: &mut [SharedRow], keys: &[SortKey]) {
    if keys.is_empty() {
        return;
    }
    rows.sort_by(|a, b| {
        for key in keys {
            let cmp = a[key.col].sort_cmp(&b[key.col]);
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
pub(crate) fn dedup_visible(rows: &mut Vec<SharedRow>, width: usize) {
    let mut seen = std::collections::HashSet::new();
    rows.retain(|row| seen.insert(row[..width].to_vec()));
}

pub(crate) fn literal_value(l: &Literal) -> Result<Value> {
    Ok(match l {
        Literal::Null => Value::Null,
        Literal::Boolean(b) => Value::Bool(*b),
        Literal::Integer(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::String(s) => Value::str(s.as_str()),
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
pub(crate) fn concat_rows(left: &[Value], right: &[Value]) -> Row {
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
            let mut cols = crate::table::ColumnBucket::new(1);
            for i in 0..n {
                cols.push_row(&[Value::Int(i)]);
            }
            cols
        };
        let (big, small) = (bucket_of(10_000), bucket_of(100));
        // The second bucket's visible length is snapshot-bounded below its
        // physical length; morsels must never cross the watermark.
        let selected = |cols, visible| Selected {
            key: 0,
            cols: BucketView::new(cols, &[0]),
            visible,
        };
        let selected = [selected(&big, 10_000), selected(&small, 60)];
        let morsels = build_morsels(&selected);
        assert_eq!(morsels.len(), 4, "3 for the big bucket + 1 small");
        assert_eq!((morsels[0].start, morsels[0].end), (0, 4096));
        assert_eq!((morsels[2].start, morsels[2].end), (8192, 10_000));
        assert_eq!(
            (morsels[3].bucket, morsels[3].start, morsels[3].end),
            (1, 0, 60)
        );
        // A fully invisible bucket contributes no morsels at all.
        let invisible = Selected {
            visible: 0,
            ..selected[1]
        };
        assert!(build_morsels(&[invisible]).is_empty());
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
