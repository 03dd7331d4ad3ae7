//! Static verification of physical plans: a structural analyzer over the
//! operator DAG that rejects corrupt plans *before* execution.
//!
//! Four stacked plan-transforming layers (conjunct pushdown, derived-table
//! transposition, sub-query decorrelation, morsel scheduling) each promise
//! to preserve semantics. Their invariants used to be checked only
//! dynamically, by the 22-query differential sweeps; this module checks them
//! statically, walking every operator of a freshly planned DAG:
//!
//! * **Schema arithmetic, bottom-up.** A scan's projection names distinct,
//!   in-range table columns, one per scan schema column, each under its
//!   table name; a plain join's schema is the concatenation of its inputs;
//!   a projection's schema is exactly its visible width; a derived table
//!   re-qualifies without changing arity.
//! * **Column resolution.** Every pushed scan conjunct is sub-query-free and
//!   resolves entirely against the scan's schema (the `take_applicable`
//!   contract); filter predicates, projection items, group/aggregate
//!   expressions and join residuals resolve against their input schemas.
//! * **Compiled predicates.** The scan filter compiles to [`CompiledPred`]s
//!   whose pre-resolved column indices resolve through the scan's
//!   projection, and the compiler never
//!   produces a [`CompiledPred::KeySet`] — key-set membership kernels are
//!   injected by the executor into decorrelated probe scans only.
//! * **Join variants.** Hash joins carry at least one key pair, each side
//!   resolving against its own input. Semi/anti joins emit the probe schema
//!   unchanged and carry no residual; `Single` (aggregate) joins emit the
//!   probe schema and evaluate their rewritten comparison over the
//!   concatenated probe+build row; decorrelated key pairs must agree on
//!   comparison class (a string key can never equal a numeric key — such a
//!   join would silently emit nothing).
//! * **Pruning discipline.** Pruning conjuncts and bind-time
//!   (`param_pruning`) conjuncts reference exactly the table's declared
//!   partition column (`ttid`), a scan with resolved prune keys scans a
//!   partitioned table, and every `param_pruning` member is also a
//!   `residual` member (correctness never depends on bind-time pruning).
//! * **Bounds.** Sort keys index into the projected row — visible items
//!   plus hidden ORDER BY keys — and `prune_to` strips exactly back to the
//!   visible width; parameter placeholders stay below the bound-parameter
//!   count.
//! * **Binding.** Every operator's bound expression list matches its AST
//!   list in length; every bound input slot is below its input's width,
//!   every group-key / aggregate slot below the aggregate's key / call count,
//!   every aggregate's argument index inside the argument list; a
//!   bucket-constant slot appears only in a `HashAggregate` directly over a
//!   join marked per-bucket, below the build side's width; the per-bucket
//!   mark sits only on a join of the eligible shape (inner, one key pair,
//!   probe side a scan keyed on its table's partition column) directly
//!   beneath a `HashAggregate`; and an outer slot's `(depth, index)` names a
//!   column of an enclosing scope.
//! * **Sub-plans.** The plan of every expression sub-query is verified with
//!   its parent, under the input schema of the operator holding it as the
//!   innermost enclosing scope: columns its operators cannot resolve locally
//!   must resolve there (or further out).
//! * **Snapshot discipline.** Under a pinned cursor epoch, every scanned
//!   table's rewrite epoch is at or below the pin — the per-bucket
//!   watermarks addressed by `visible_bucket_len` are only meaningful then.
//!
//! Violations surface as a typed [`PlanError`] (kind
//! [`EngineErrorKind::Plan`](crate::EngineErrorKind) once converted), naming
//! the operator and the violated invariant. The verifier runs behind
//! [`EngineConfig::verify_plans`](crate::EngineConfig) — always-on in debug
//! builds, opt-in in release, overridable process-wide via `MT_VERIFY=1`/`0`
//! — and unconditionally under `EXPLAIN`, which appends a `verified` marker
//! so plan snapshots pin the verifier's engagement.

use std::fmt;

use mtsql::ast::{ColumnRef, Expr, SelectItem};
use mtsql::visit::{collect_columns, contains_subquery, max_param_index};

use crate::bound::{BoundAggregate, BoundExpr, Slot};
use crate::conjuncts::CompiledPred;
use crate::error::{EngineError, EngineErrorKind};
use crate::exec::Executor;
use crate::plan::{HashAggregate, JoinVariant, Plan, Project, SeqScan};
use crate::schema::Schema;
use crate::stats::StmtCtx;
use crate::table::ColumnVec;
use crate::{Engine, EngineConfig};

/// What kind of invariant a [`PlanError`] reports. Mutation tests assert the
/// class, not the message, so reworded diagnostics never break them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanErrorClass {
    /// Output arity/schema inconsistency between an operator and its inputs.
    Schema,
    /// An expression references a column its input schema cannot resolve.
    Column,
    /// A compiled predicate's pre-resolved column index is out of bounds,
    /// or an illegal predicate form reached a scan filter.
    Predicate,
    /// A hash-join key pair is missing, unresolvable, or compares
    /// incompatible classes.
    JoinKey,
    /// A join-variant rule is violated (semi/anti residual or schema,
    /// `Single` schema, key-set injection discipline).
    Variant,
    /// Partition-pruning conjuncts do not resolve to the partition column,
    /// or prune keys exist without a partitioned table.
    Pruning,
    /// A parameter placeholder indexes past the bound-parameter count.
    Param,
    /// A sort key or width bound indexes past the operator's row width.
    Bounds,
    /// A scan under a pinned cursor epoch has no valid watermark (the table
    /// was rewritten past the pin).
    Snapshot,
    /// An unknown scalar function, an aggregate call with the wrong number
    /// of arguments or outside an aggregation context — reported by the
    /// planner while binding.
    Function,
    /// A literal that does not denote a value (`DATE 'x'`) — reported by the
    /// planner while binding.
    Literal,
    /// An operator's bound expressions disagree with its inputs: a missing
    /// binding, a slot past its input's width, a bucket-constant slot or a
    /// per-bucket mark outside a per-bucket join.
    Binding,
}

impl fmt::Display for PlanErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self {
            PlanErrorClass::Schema => "schema",
            PlanErrorClass::Column => "column",
            PlanErrorClass::Predicate => "predicate",
            PlanErrorClass::JoinKey => "join-key",
            PlanErrorClass::Variant => "variant",
            PlanErrorClass::Pruning => "pruning",
            PlanErrorClass::Param => "param",
            PlanErrorClass::Bounds => "bounds",
            PlanErrorClass::Snapshot => "snapshot",
            PlanErrorClass::Function => "function",
            PlanErrorClass::Literal => "literal",
            PlanErrorClass::Binding => "binding",
        };
        f.write_str(tag)
    }
}

/// A rejected plan: the violated invariant class, the operator it anchors to
/// and a human-readable detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    pub class: PlanErrorClass,
    /// The operator the violation anchors to (e.g. `SeqScan lineitem`,
    /// `HashJoin[semi]`).
    pub node: String,
    pub detail: String,
}

impl PlanError {
    fn new(class: PlanErrorClass, node: impl Into<String>, detail: impl Into<String>) -> Self {
        PlanError {
            class,
            node: node.into(),
            detail: detail.into(),
        }
    }
}

/// The rejection of an operator that reached execution without (or with a
/// stale) binding — [`crate::plan::Planner::bind`] was never run on it.
pub(crate) fn unbound(node: &str) -> PlanError {
    PlanError::new(
        PlanErrorClass::Binding,
        node,
        "expressions are not bound (Planner::bind was not run on this plan)",
    )
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan rejected [{}] at {}: {}",
            self.class, self.node, self.detail
        )
    }
}

impl std::error::Error for PlanError {}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::with_kind(EngineErrorKind::Plan, e.to_string())
    }
}

/// What a successful verification covered, for the `EXPLAIN` marker and the
/// overhead bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Operators walked.
    pub operators: usize,
    /// Individual invariant checks evaluated.
    pub checks: u64,
}

/// How strictly to verify, and against what execution context.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyOptions {
    /// Bound-parameter count to check `Expr::Param` indices against;
    /// `None` skips the parameter-bound check (plan-time verification of a
    /// statement whose parameters bind later).
    pub param_count: Option<usize>,
    /// Cursor pin epoch: every scanned table's rewrite epoch must be at or
    /// below it (snapshot watermarks stay addressable).
    pub pinned_epoch: Option<u64>,
}

/// Is the verifier enabled for this configuration? The `MT_VERIFY`
/// environment variable (`1`/`true`/`on` forces on, `0`/`false`/`off`
/// forces off), parsed once per process, overrides the configured value —
/// mirroring the `MT_THREADS` execution-time override.
pub fn verify_enabled(config: &EngineConfig) -> bool {
    static OVERRIDE: std::sync::OnceLock<Option<bool>> = std::sync::OnceLock::new();
    OVERRIDE
        .get_or_init(|| {
            let raw = std::env::var("MT_VERIFY").ok()?;
            match raw.trim().to_ascii_lowercase().as_str() {
                "1" | "true" | "on" => Some(true),
                "0" | "false" | "off" => Some(false),
                _ => None,
            }
        })
        .unwrap_or(config.verify_plans)
}

/// Verify a plan strictly (top-level statement context).
pub fn verify_plan(engine: &Engine, plan: &Plan) -> Result<VerifyReport, PlanError> {
    verify_plan_with(engine, plan, VerifyOptions::default())
}

/// Verify a plan under explicit options (parameter counts, pinned cursor
/// epochs), outside any statement: constants the compiled-filter checks
/// evaluate charge a scratch context.
pub fn verify_plan_with(
    engine: &Engine,
    plan: &Plan,
    opts: VerifyOptions,
) -> Result<VerifyReport, PlanError> {
    verify_in(engine, plan, opts, &StmtCtx::new())
}

/// The statement gate: when the verifier is enabled ([`verify_enabled`]),
/// verify `plan` for the statement `ctx` counts and charge it one verified
/// plan.
pub(crate) fn verify_for_statement(
    engine: &Engine,
    plan: &Plan,
    opts: VerifyOptions,
    ctx: &StmtCtx,
) -> crate::Result<()> {
    if verify_enabled(&engine.config()) {
        verify_in(engine, plan, opts, ctx)?;
        ctx.charge(|s| s.plans_verified += 1);
    }
    Ok(())
}

fn verify_in(
    engine: &Engine,
    plan: &Plan,
    opts: VerifyOptions,
    ctx: &StmtCtx,
) -> Result<VerifyReport, PlanError> {
    let mut v = Verifier {
        engine,
        ctx,
        opts,
        report: VerifyReport::default(),
        per_bucket_legal: false,
        scopes: Vec::new(),
    };
    // Transaction discipline: a snapshot may only pin the committed floor.
    // Epochs above it belong to open (uncommitted) transactions — pinning
    // one would let a cursor observe rows a ROLLBACK must take back.
    if let Some(epoch) = v.opts.pinned_epoch {
        v.check();
        let committed = engine.committed_epoch();
        if epoch > committed {
            return Err(PlanError::new(
                PlanErrorClass::Snapshot,
                "plan",
                format!(
                    "pin epoch {epoch} is above the committed floor {committed}: \
                     epochs past it belong to open transactions"
                ),
            ));
        }
    }
    v.walk(plan)?;
    v.check_params(plan)?;
    Ok(v.report)
}

/// Comparison class of a statically inferable column or expression.
/// [`crate::Value::compare`] resolves strings only against strings and
/// everything else through the numeric fallback, so two classes suffice;
/// anything not provable stays `Unknown` and passes every check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TypeClass {
    Str,
    Num,
    Unknown,
}

impl TypeClass {
    fn compatible(self, other: TypeClass) -> bool {
        self == TypeClass::Unknown || other == TypeClass::Unknown || self == other
    }
}

struct Verifier<'e> {
    engine: &'e Engine,
    /// The statement whose plan is checked: the compiled-filter check
    /// evaluates constants, UDF calls included.
    ctx: &'e StmtCtx,
    opts: VerifyOptions,
    report: VerifyReport,
    /// Set by a `HashAggregate` for the walk of its direct input: the one
    /// position where a per-bucket join is legal.
    per_bucket_legal: bool,
    /// While a sub-plan is walked: the input schemas of the operators
    /// enclosing it, innermost first (as the planner bound it).
    scopes: Vec<Schema>,
}

/// What the bound expressions of one operator may read.
#[derive(Clone, Copy, Default)]
struct SlotBounds {
    /// Width of the input row.
    input: usize,
    /// Width of the per-bucket build row; `None` outside a per-bucket join.
    consts: Option<usize>,
    /// `(group keys, aggregates)` in group context.
    group: Option<(usize, usize)>,
}

impl SlotBounds {
    /// Plain operators read their input row and nothing else.
    fn input(width: usize) -> Self {
        SlotBounds {
            input: width,
            ..SlotBounds::default()
        }
    }
}

impl Verifier<'_> {
    fn check(&mut self) {
        self.report.checks += 1;
    }

    /// Every column of `expr` resolves against `schema` — or, when
    /// `lenient`, in an enclosing scope of the sub-plan being walked.
    fn columns_resolve(
        &mut self,
        expr: &Expr,
        schema: &Schema,
        node: &str,
        lenient: bool,
    ) -> Result<(), PlanError> {
        let mut cols: Vec<ColumnRef> = Vec::new();
        collect_columns(expr, &mut cols);
        for col in cols {
            self.check();
            let outer = || self.scopes.iter().any(|s| s.resolve(&col).is_some());
            if schema.resolve(&col).is_none() && !(lenient && outer()) {
                return Err(PlanError::new(
                    PlanErrorClass::Column,
                    node,
                    format!(
                        "`{}` does not resolve in a {}-column input",
                        col.to_display(),
                        schema.len()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// One bound list per AST list, every slot inside `bounds` (outer slots
    /// inside the enclosing scopes), and every sub-plan verified with
    /// `scope` — the input schema the expressions were bound against — as
    /// its innermost enclosing scope.
    fn check_bound<'b>(
        &mut self,
        node: &str,
        exprs: usize,
        bound: impl ExactSizeIterator<Item = &'b BoundExpr>,
        bounds: SlotBounds,
        scope: &Schema,
    ) -> Result<(), PlanError> {
        self.check();
        if exprs != bound.len() {
            return Err(PlanError::new(
                PlanErrorClass::Binding,
                node,
                format!("{exprs} expression(s) but {} bound", bound.len()),
            ));
        }
        for expr in bound {
            let mut bad: Option<String> = None;
            let mut subplans: Vec<&Plan> = Vec::new();
            expr.walk(&mut |e| {
                let slot = match e {
                    BoundExpr::Slot(slot) => slot,
                    BoundExpr::Subquery { plan, .. } => {
                        subplans.push(plan);
                        return;
                    }
                    _ => return,
                };
                self.report.checks += 1;
                let (limit, what, i) = match *slot {
                    Slot::Input(i) => (Some(bounds.input), "input", i),
                    Slot::BucketConst(i) => (bounds.consts, "bucket-constant", i),
                    Slot::GroupKey(i) => (bounds.group.map(|g| g.0), "group-key", i),
                    Slot::Agg(i) => (bounds.group.map(|g| g.1), "aggregate", i),
                    Slot::Outer { depth, index } => {
                        (self.scopes.get(depth).map(Schema::len), "outer", index)
                    }
                };
                match limit {
                    None => bad = Some(format!("{what} slot {i} is not legal here")),
                    Some(width) if i >= width => {
                        bad = Some(format!("{what} slot {i} out of width {width}"))
                    }
                    Some(_) => {}
                }
            });
            if let Some(detail) = bad {
                return Err(PlanError::new(PlanErrorClass::Binding, node, detail));
            }
            for plan in subplans {
                self.scopes.insert(0, scope.clone());
                let verified = self.walk(plan);
                self.scopes.remove(0);
                verified?;
            }
        }
        Ok(())
    }

    /// The runtime row width an operator produces — its schema width, plus
    /// the hidden ORDER BY key columns a projection head appends behind it.
    fn row_width(&self, plan: &Plan) -> usize {
        match plan {
            Plan::Project(p) => items_width(&p.items, p.input.schema()),
            Plan::HashAggregate(a) => items_width(&a.items, a.input.schema()),
            other => other.schema().len(),
        }
    }

    fn walk(&mut self, plan: &Plan) -> Result<(), PlanError> {
        self.report.operators += 1;
        if !matches!(plan, Plan::HashJoin { .. }) {
            self.per_bucket_legal = false;
        }
        match plan {
            Plan::Empty { .. } => Ok(()),
            Plan::SeqScan(scan) => self.verify_scan(scan),
            Plan::Filter {
                input,
                predicates,
                bound,
            } => {
                self.walk(input)?;
                let node = "Filter";
                for p in predicates {
                    self.columns_resolve(p, input.schema(), node, true)?;
                }
                let bounds = SlotBounds::input(input.schema().len());
                self.check_bound(node, predicates.len(), bound.iter(), bounds, input.schema())
            }
            Plan::HashJoin {
                left,
                right,
                keys,
                residual,
                kind,
                schema,
                bound,
            } => {
                let under_aggregate = std::mem::take(&mut self.per_bucket_legal);
                self.walk(left)?;
                self.walk(right)?;
                self.verify_hash_join(left, right, keys, residual, *kind, schema)?;
                self.verify_join_binding(plan, bound, under_aggregate)
            }
            Plan::NestedLoopJoin {
                left,
                right,
                predicates,
                schema,
                bound,
                ..
            } => {
                self.walk(left)?;
                self.walk(right)?;
                let node = "NestedLoopJoin";
                let concat = left.schema().concat(right.schema());
                self.check();
                if schema.len() != concat.len() {
                    return Err(PlanError::new(
                        PlanErrorClass::Schema,
                        node,
                        format!(
                            "output width {} != left {} + right {}",
                            schema.len(),
                            left.schema().len(),
                            right.schema().len()
                        ),
                    ));
                }
                for p in predicates {
                    self.columns_resolve(p, &concat, node, true)?;
                }
                let bounds = SlotBounds::input(concat.len());
                self.check_bound(node, predicates.len(), bound.iter(), bounds, &concat)
            }
            Plan::Subquery {
                input,
                alias,
                schema,
            } => {
                self.walk(input)?;
                self.check();
                if schema.len() != input.schema().len() {
                    return Err(PlanError::new(
                        PlanErrorClass::Schema,
                        format!("Subquery AS {alias}"),
                        format!(
                            "re-qualification changed arity: {} -> {}",
                            input.schema().len(),
                            schema.len()
                        ),
                    ));
                }
                Ok(())
            }
            Plan::Project(p) => self.verify_project(p),
            Plan::HashAggregate(a) => self.verify_aggregate(a),
            Plan::Sort {
                input,
                keys,
                prune_to,
            } => {
                self.walk(input)?;
                let node = "Sort";
                let width = self.row_width(input);
                for key in keys {
                    self.check();
                    if key.col >= width {
                        return Err(PlanError::new(
                            PlanErrorClass::Bounds,
                            node,
                            format!("sort key column {} out of row width {width}", key.col),
                        ));
                    }
                }
                if let Some(w) = prune_to {
                    self.check();
                    // Stripping hidden keys must land exactly on the visible
                    // width of the projection head beneath.
                    let visible = match input.as_ref() {
                        Plan::Project(p) => Some(p.visible_width),
                        Plan::HashAggregate(a) => Some(a.visible_width),
                        _ => None,
                    };
                    if *w > width || visible.is_some_and(|v| v != *w) {
                        return Err(PlanError::new(
                            PlanErrorClass::Bounds,
                            node,
                            format!(
                                "prune_to {w} inconsistent with visible width {visible:?} \
                                 (row width {width})"
                            ),
                        ));
                    }
                }
                Ok(())
            }
            Plan::Limit { input, .. } => self.walk(input),
        }
    }

    fn verify_scan(&mut self, scan: &SeqScan) -> Result<(), PlanError> {
        let node = format!("SeqScan {}", scan.table);
        let Ok(table) = self.engine.database().table(&scan.table) else {
            return Err(PlanError::new(
                PlanErrorClass::Schema,
                node,
                "table does not exist in the catalog",
            ));
        };
        self.verify_projection(scan, &table.columns, &node)?;

        // Pushed conjuncts: sub-query-free and fully resolvable against the
        // scan schema — strict even in outer mode (`take_applicable` only
        // pushes conjuncts it fully resolved).
        for conjunct in scan
            .pruning
            .iter()
            .chain(&scan.residual)
            .chain(&scan.param_pruning)
        {
            self.check();
            if contains_subquery(conjunct) {
                return Err(PlanError::new(
                    PlanErrorClass::Predicate,
                    &node,
                    format!("pushed conjunct `{conjunct}` contains a sub-query"),
                ));
            }
            self.columns_resolve(conjunct, &scan.schema, &node, false)?;
        }

        // Pruning discipline: prune keys and pruning conjuncts require a
        // declared partition column, and every pruning conjunct references
        // exactly that column.
        let partition = table.partition_column();
        if scan.prune_keys.is_some() || !scan.pruning.is_empty() || !scan.param_pruning.is_empty() {
            self.check();
            let Some(pidx) = partition else {
                return Err(PlanError::new(
                    PlanErrorClass::Pruning,
                    &node,
                    "pruning state on a table without a partition column",
                ));
            };
            for conjunct in scan.pruning.iter().chain(&scan.param_pruning) {
                let mut cols: Vec<ColumnRef> = Vec::new();
                collect_columns(conjunct, &mut cols);
                for col in cols {
                    self.check();
                    let table_col = scan
                        .schema
                        .resolve(&col)
                        .and_then(|i| scan.projection.get(i));
                    if table_col != Some(&pidx) {
                        return Err(PlanError::new(
                            PlanErrorClass::Pruning,
                            &node,
                            format!(
                                "pruning conjunct `{conjunct}` references `{}`, \
                                 not the partition column",
                                col.to_display()
                            ),
                        ));
                    }
                }
            }
        }
        // Bind-time pruning conjuncts are also residual members: pruning
        // with them is an optimization, never a correctness dependency.
        for conjunct in &scan.param_pruning {
            self.check();
            if !scan.residual.contains(conjunct) {
                return Err(PlanError::new(
                    PlanErrorClass::Pruning,
                    &node,
                    format!("bind-time pruning conjunct `{conjunct}` missing from the residual"),
                ));
            }
        }

        // The compiled filter: fast forms carry in-bounds column indices and
        // the compiler never emits the executor-injected key-set kernel.
        let executor = Executor::new(self.engine, self.ctx);
        let bounds = SlotBounds::input(scan.schema.len());
        let (pruning, residual) = (&scan.bound.pruning, &scan.bound.residual);
        self.check_bound(
            &node,
            scan.pruning.len(),
            pruning.iter(),
            bounds,
            &scan.schema,
        )?;
        self.check_bound(
            &node,
            scan.residual.len(),
            residual.iter(),
            bounds,
            &scan.schema,
        )?;
        let compiled = executor.compile_filter(&scan.bound.pruning);
        let residual = executor.compile_filter(&scan.bound.residual);
        for pred in compiled.iter().chain(&residual) {
            self.check();
            if matches!(pred, CompiledPred::KeySet { .. }) {
                return Err(PlanError::new(
                    PlanErrorClass::Variant,
                    &node,
                    "the predicate compiler must never produce a key-set kernel \
                     (executor-injected on decorrelated probes only)",
                ));
            }
            if let Some(idx) = pred.column_index() {
                if idx >= scan.projection.len() {
                    return Err(PlanError::new(
                        PlanErrorClass::Predicate,
                        &node,
                        format!(
                            "compiled predicate column index {idx} does not resolve through \
                             the {}-column projection",
                            scan.projection.len()
                        ),
                    ));
                }
            }
        }

        // Snapshot discipline: under a pinned cursor epoch the per-bucket
        // watermarks are addressable only while the table has not been
        // destructively rewritten past the pin — or, for an open
        // transaction's unpublished rewrite, while the pre-rewrite shadow
        // still serves the pin.
        if let Some(epoch) = self.opts.pinned_epoch {
            self.check();
            if !table.snapshot_servable(epoch) {
                return Err(PlanError::new(
                    PlanErrorClass::Snapshot,
                    &node,
                    format!(
                        "scan pinned at epoch {epoch} has no watermark: table rewritten \
                         at epoch {}",
                        table.rewrite_epoch()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// The scan's projection: one distinct, in-range table column per scan
    /// schema column, named like it.
    fn verify_projection(
        &mut self,
        scan: &SeqScan,
        columns: &[String],
        node: &str,
    ) -> Result<(), PlanError> {
        self.check();
        if scan.projection.len() != scan.schema.len() {
            return Err(PlanError::new(
                PlanErrorClass::Schema,
                node,
                format!(
                    "projection width {} != scan schema width {}",
                    scan.projection.len(),
                    scan.schema.len()
                ),
            ));
        }
        for (i, (&col, out)) in scan.projection.iter().zip(&scan.schema.cols).enumerate() {
            self.check();
            let Some(name) = columns.get(col) else {
                return Err(PlanError::new(
                    PlanErrorClass::Bounds,
                    node,
                    format!(
                        "projected column {col} out of table width {}",
                        columns.len()
                    ),
                ));
            };
            if scan.projection[..i].contains(&col) {
                return Err(PlanError::new(
                    PlanErrorClass::Schema,
                    node,
                    format!("table column {col} projected twice"),
                ));
            }
            if !name.eq_ignore_ascii_case(&out.name) {
                return Err(PlanError::new(
                    PlanErrorClass::Schema,
                    node,
                    format!(
                        "output column `{}` projects table column `{name}`",
                        out.name
                    ),
                ));
            }
        }
        Ok(())
    }

    fn verify_hash_join(
        &mut self,
        left: &Plan,
        right: &Plan,
        keys: &[(Expr, Expr)],
        residual: &[Expr],
        kind: JoinVariant,
        schema: &Schema,
    ) -> Result<(), PlanError> {
        let node = match kind {
            JoinVariant::Plain(k) => format!("HashJoin[{k:?}]"),
            JoinVariant::Semi => "HashJoin[semi]".to_string(),
            JoinVariant::Anti => "HashJoin[anti]".to_string(),
            JoinVariant::Single => "HashJoin[single]".to_string(),
        };
        self.check();
        if keys.is_empty() {
            return Err(PlanError::new(
                PlanErrorClass::JoinKey,
                &node,
                "hash join without key pairs (non-equi joins plan as nested loops)",
            ));
        }
        for (lk, rk) in keys {
            self.columns_resolve(lk, left.schema(), &node, true)?;
            self.columns_resolve(rk, right.schema(), &node, true)?;
        }
        match kind {
            JoinVariant::Plain(_) => {
                self.check();
                let concat = left.schema().concat(right.schema());
                if schema.len() != concat.len() {
                    return Err(PlanError::new(
                        PlanErrorClass::Schema,
                        &node,
                        format!(
                            "output width {} != left {} + right {}",
                            schema.len(),
                            left.schema().len(),
                            right.schema().len()
                        ),
                    ));
                }
                for p in residual {
                    self.columns_resolve(p, &concat, &node, true)?;
                }
            }
            JoinVariant::Semi | JoinVariant::Anti => {
                self.check();
                if schema != left.schema() {
                    return Err(PlanError::new(
                        PlanErrorClass::Variant,
                        &node,
                        "semi/anti joins emit the probe schema unchanged",
                    ));
                }
                self.check();
                if !residual.is_empty() {
                    return Err(PlanError::new(
                        PlanErrorClass::Variant,
                        &node,
                        "semi/anti joins carry no residual (decorrelation bails out instead)",
                    ));
                }
            }
            JoinVariant::Single => {
                self.check();
                if schema != left.schema() {
                    return Err(PlanError::new(
                        PlanErrorClass::Variant,
                        &node,
                        "aggregate joins emit the probe schema unchanged",
                    ));
                }
                let concat = left.schema().concat(right.schema());
                for p in residual {
                    self.columns_resolve(p, &concat, &node, true)?;
                }
            }
        }
        // Decorrelated key pairs are planner-synthesized, so a comparison-
        // class mismatch is a rewrite defect, not user input: a string key
        // never equals a numeric key and the join would silently emit
        // nothing (semi/single) or everything (anti).
        if kind != JoinVariant::Plain(mtsql::ast::JoinKind::Inner) {
            if let JoinVariant::Semi | JoinVariant::Anti | JoinVariant::Single = kind {
                for (lk, rk) in keys {
                    self.check();
                    let lc = self.expr_class(left, lk);
                    let rc = self.expr_class(right, rk);
                    if !lc.compatible(rc) {
                        return Err(PlanError::new(
                            PlanErrorClass::JoinKey,
                            &node,
                            format!("key pair `{lk}` = `{rk}` compares {lc:?} against {rc:?}"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn verify_project(&mut self, p: &Project) -> Result<(), PlanError> {
        self.walk(&p.input)?;
        let node = "Project";
        let width = items_width(&p.items, p.input.schema());
        self.check();
        if p.visible_width > width || p.schema.len() != p.visible_width {
            return Err(PlanError::new(
                PlanErrorClass::Schema,
                node,
                format!(
                    "visible width {} / schema width {} inconsistent with {} projected columns",
                    p.visible_width,
                    p.schema.len(),
                    width
                ),
            ));
        }
        for item in &p.items {
            if let SelectItem::Expr { expr, .. } = item {
                self.columns_resolve(expr, p.input.schema(), node, true)?;
            }
        }
        let bounds = SlotBounds::input(p.input.schema().len());
        self.check_bound(node, width, p.bound.iter(), bounds, p.input.schema())
    }

    /// The join's own binding, and the per-bucket mark: legal only on a
    /// join of the eligible shape directly beneath a `HashAggregate`.
    fn verify_join_binding(
        &mut self,
        join: &Plan,
        bound: &crate::plan::BoundJoin,
        under_aggregate: bool,
    ) -> Result<(), PlanError> {
        let Plan::HashJoin {
            left,
            right,
            keys,
            residual,
            ..
        } = join
        else {
            return Ok(());
        };
        let node = "HashJoin";
        let side = |plan: &Plan| SlotBounds::input(plan.schema().len());
        let probe = bound.keys.iter().map(|(l, _)| l);
        self.check_bound(node, keys.len(), probe, side(left), left.schema())?;
        let build = bound.keys.iter().map(|(_, r)| r);
        self.check_bound(node, keys.len(), build, side(right), right.schema())?;
        let concat = left.schema().concat(right.schema());
        let joined = SlotBounds::input(concat.len());
        self.check_bound(node, residual.len(), bound.residual.iter(), joined, &concat)?;
        self.check();
        if bound.per_bucket
            && !(under_aggregate && crate::plan::per_bucket_split(self.engine, join).is_some())
        {
            return Err(PlanError::new(
                PlanErrorClass::Binding,
                node,
                "per-bucket mark on a join that is not an inner single-key join of a \
                 partitioned scan on its partition column directly beneath a HashAggregate",
            ));
        }
        Ok(())
    }

    fn verify_aggregate(&mut self, a: &HashAggregate) -> Result<(), PlanError> {
        self.per_bucket_legal = true;
        self.walk(&a.input)?;
        self.per_bucket_legal = false;
        let node = "HashAggregate";
        let width = items_width(&a.items, a.input.schema());
        self.check();
        if a.visible_width > width || a.schema.len() != a.visible_width {
            return Err(PlanError::new(
                PlanErrorClass::Schema,
                node,
                format!(
                    "visible width {} / schema width {} inconsistent with {} projected columns",
                    a.visible_width,
                    a.schema.len(),
                    width
                ),
            ));
        }
        let input_schema = a.input.schema();
        for g in &a.group_exprs {
            self.columns_resolve(g, input_schema, node, true)?;
        }
        for call in &a.aggregates {
            for arg in &call.args {
                self.columns_resolve(arg, input_schema, node, true)?;
            }
        }
        if let Some(h) = &a.having {
            self.columns_resolve(h, input_schema, node, true)?;
        }
        for item in &a.items {
            if let SelectItem::Expr { expr, .. } = item {
                self.columns_resolve(expr, input_schema, node, true)?;
            }
        }
        self.verify_aggregate_binding(a, width)
    }

    /// Keys and arguments read the input (bucket constants only above a
    /// per-bucket join); HAVING and the items additionally read group keys
    /// and finished aggregates.
    fn verify_aggregate_binding(
        &mut self,
        a: &HashAggregate,
        items_width: usize,
    ) -> Result<(), PlanError> {
        let node = "HashAggregate";
        let BoundAggregate {
            keys,
            args,
            aggs,
            having,
            items,
            ..
        } = a.bound.as_ref();
        let per_row = match a.input.as_ref() {
            Plan::HashJoin {
                left, right, bound, ..
            } if bound.per_bucket => SlotBounds {
                input: left.schema().len(),
                consts: Some(right.schema().len()),
                group: None,
            },
            input => SlotBounds::input(input.schema().len()),
        };
        let input = a.input.schema();
        self.check_bound(node, a.group_exprs.len(), keys.iter(), per_row, input)?;
        self.check_bound(node, args.len(), args.iter(), per_row, input)?;
        self.check();
        if aggs.len() != a.aggregates.len()
            || aggs
                .iter()
                .any(|agg| agg.arg.is_some_and(|i| i >= args.len()))
        {
            return Err(PlanError::new(
                PlanErrorClass::Binding,
                node,
                format!(
                    "{} aggregate call(s) but {} bound over {} argument(s)",
                    a.aggregates.len(),
                    aggs.len(),
                    args.len()
                ),
            ));
        }
        let in_group = SlotBounds {
            group: Some((keys.len(), aggs.len())),
            ..per_row
        };
        self.check_bound(node, a.having.iter().len(), having.iter(), in_group, input)?;
        self.check_bound(node, items_width, items.iter(), in_group, input)
    }

    /// Highest `Expr::Param` index anywhere in the plan must stay below the
    /// bound-parameter count.
    fn check_params(&mut self, plan: &Plan) -> Result<(), PlanError> {
        let Some(count) = self.opts.param_count else {
            return Ok(());
        };
        let mut max: Option<usize> = None;
        each_expr(plan, &mut |e| max_param_index(e, &mut max));
        self.check();
        if let Some(m) = max {
            if m >= count {
                return Err(PlanError::new(
                    PlanErrorClass::Param,
                    "plan",
                    format!("parameter ${} referenced but only {count} bound", m + 1),
                ));
            }
        }
        Ok(())
    }

    /// Comparison class of an expression over one side of a join: a plain
    /// column traces to its base-table storage class; a literal is its own
    /// class; anything else stays `Unknown`.
    fn expr_class(&self, plan: &Plan, expr: &Expr) -> TypeClass {
        match expr {
            Expr::Column(c) => match plan.schema().resolve(c) {
                Some(idx) => self.column_class(plan, idx),
                None => TypeClass::Unknown,
            },
            Expr::Literal(lit) => match lit {
                mtsql::ast::Literal::String(_) => TypeClass::Str,
                mtsql::ast::Literal::Boolean(_)
                | mtsql::ast::Literal::Integer(_)
                | mtsql::ast::Literal::Float(_) => TypeClass::Num,
                _ => TypeClass::Unknown,
            },
            _ => TypeClass::Unknown,
        }
    }

    /// Trace an output column of an operator to its storage class, walking
    /// through pass-through operators and single-column projections.
    fn column_class(&self, plan: &Plan, idx: usize) -> TypeClass {
        match plan {
            Plan::SeqScan(scan) => {
                let Ok(table) = self.engine.database().table(&scan.table) else {
                    return TypeClass::Unknown;
                };
                let Some(&idx) = scan
                    .projection
                    .get(idx)
                    .filter(|&&c| c < table.columns.len())
                else {
                    return TypeClass::Unknown;
                };
                if let Some((_, cols)) = table.partitions().find(|(_, b)| !b.is_empty()) {
                    return match cols.column(idx).data() {
                        ColumnVec::Str(_) | ColumnVec::Dict(_) => TypeClass::Str,
                        ColumnVec::Int(_)
                        | ColumnVec::Float(_)
                        | ColumnVec::Bool(_)
                        | ColumnVec::Date(_) => TypeClass::Num,
                        ColumnVec::Untyped | ColumnVec::Mixed(_) => TypeClass::Unknown,
                    };
                }
                // Loose-row storage (unpartitioned tables): sample the first
                // stored value instead.
                table
                    .loose_rows()
                    .iter()
                    .find_map(|row| match row.get(idx) {
                        Some(crate::Value::Str(_)) => Some(TypeClass::Str),
                        Some(
                            crate::Value::Int(_)
                            | crate::Value::Float(_)
                            | crate::Value::Bool(_)
                            | crate::Value::Date(_),
                        ) => Some(TypeClass::Num),
                        _ => None,
                    })
                    .unwrap_or(TypeClass::Unknown)
            }
            Plan::Filter { input, .. } | Plan::Limit { input, .. } => self.column_class(input, idx),
            Plan::Sort { input, .. } => self.column_class(input, idx),
            Plan::Subquery { input, .. } => self.column_class(input, idx),
            Plan::HashJoin {
                left, right, kind, ..
            } => match kind {
                JoinVariant::Plain(_) => {
                    let lw = left.schema().len();
                    if idx < lw {
                        self.column_class(left, idx)
                    } else {
                        self.column_class(right, idx - lw)
                    }
                }
                _ => self.column_class(left, idx),
            },
            Plan::NestedLoopJoin { left, right, .. } => {
                let lw = left.schema().len();
                if idx < lw {
                    self.column_class(left, idx)
                } else {
                    self.column_class(right, idx - lw)
                }
            }
            Plan::Project(p) => match resolve_item(&p.items, idx) {
                Some(Expr::Column(c)) => match p.input.schema().resolve(c) {
                    Some(inner) => self.column_class(&p.input, inner),
                    None => TypeClass::Unknown,
                },
                Some(Expr::Literal(lit)) => match lit {
                    mtsql::ast::Literal::String(_) => TypeClass::Str,
                    mtsql::ast::Literal::Integer(_) | mtsql::ast::Literal::Float(_) => {
                        TypeClass::Num
                    }
                    _ => TypeClass::Unknown,
                },
                _ => TypeClass::Unknown,
            },
            Plan::HashAggregate(_) | Plan::Empty { .. } => TypeClass::Unknown,
        }
    }
}

/// The expression a projected column index maps to, when the item list is
/// wildcard-free up to that index (wildcards make index mapping
/// input-dependent; give up and stay `Unknown`).
fn resolve_item(items: &[SelectItem], idx: usize) -> Option<&Expr> {
    let mut i = 0usize;
    for item in items {
        match item {
            SelectItem::Expr { expr, .. } => {
                if i == idx {
                    return Some(expr);
                }
                i += 1;
            }
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => return None,
        }
    }
    None
}

/// The row width an item list produces over an input schema (wildcards
/// expand to the input's columns).
fn items_width(items: &[SelectItem], input: &Schema) -> usize {
    items
        .iter()
        .map(|item| match item {
            SelectItem::Expr { .. } => 1,
            SelectItem::Wildcard => input.len(),
            SelectItem::QualifiedWildcard(q) => input.indices_of_qualifier(q).len(),
        })
        .sum()
}

/// Visit every expression embedded in a plan DAG (predicates, keys,
/// residuals, projection items, group/aggregate/having expressions).
fn each_expr<'p>(plan: &'p Plan, f: &mut impl FnMut(&'p Expr)) {
    let items = |list: &'p [SelectItem], f: &mut dyn FnMut(&'p Expr)| {
        for item in list {
            if let SelectItem::Expr { expr, .. } = item {
                f(expr);
            }
        }
    };
    match plan {
        Plan::Empty { .. } => {}
        Plan::SeqScan(scan) => {
            for e in scan
                .pruning
                .iter()
                .chain(&scan.residual)
                .chain(&scan.param_pruning)
            {
                f(e);
            }
        }
        Plan::Filter {
            input, predicates, ..
        } => {
            predicates.iter().for_each(&mut *f);
            each_expr(input, f);
        }
        Plan::HashJoin {
            left,
            right,
            keys,
            residual,
            ..
        } => {
            for (l, r) in keys {
                f(l);
                f(r);
            }
            residual.iter().for_each(&mut *f);
            each_expr(left, f);
            each_expr(right, f);
        }
        Plan::NestedLoopJoin {
            left,
            right,
            predicates,
            ..
        } => {
            predicates.iter().for_each(&mut *f);
            each_expr(left, f);
            each_expr(right, f);
        }
        Plan::Subquery { input, .. } => each_expr(input, f),
        Plan::Project(p) => {
            items(&p.items, f);
            each_expr(&p.input, f);
        }
        Plan::HashAggregate(a) => {
            a.group_exprs.iter().for_each(&mut *f);
            for call in &a.aggregates {
                call.args.iter().for_each(&mut *f);
            }
            if let Some(h) = &a.having {
                f(h);
            }
            items(&a.items, f);
            each_expr(&a.input, f);
        }
        Plan::Sort { input, .. } | Plan::Limit { input, .. } => each_expr(input, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SortKey;
    use crate::Value;

    fn engine() -> Engine {
        let mut e = Engine::new(EngineConfig::default());
        e.create_table("t", &["ttid", "a", "s"]);
        e.set_table_partition("t", "ttid").unwrap();
        e.insert_values(
            "t",
            vec![
                vec![Value::Int(1), Value::Int(10), Value::str("x")],
                vec![Value::Int(2), Value::Int(20), Value::str("y")],
            ],
        )
        .unwrap();
        e.create_table("u", &["k", "v"]);
        e.insert_values("u", vec![vec![Value::Int(1), Value::str("z")]])
            .unwrap();
        e
    }

    fn plan_of(engine: &Engine, sql: &str) -> Plan {
        engine
            .plan_query(&mtsql::parse_query(sql).unwrap())
            .unwrap()
    }

    /// A hand-assembled hash join, bound like the planner would bind it.
    #[allow(clippy::too_many_arguments)]
    fn hash_join(
        engine: &Engine,
        left: Plan,
        right: Plan,
        keys: Vec<(Expr, Expr)>,
        residual: Vec<Expr>,
        kind: JoinVariant,
        schema: Schema,
    ) -> Plan {
        let mut plan = Plan::hash_join(left, right, keys, residual, kind, schema);
        crate::plan::Planner::new(engine, &crate::stats::StmtCtx::new())
            .bind(&mut plan)
            .unwrap();
        plan
    }

    fn class_of(err: PlanError) -> PlanErrorClass {
        err.class
    }

    #[test]
    fn clean_plans_verify() {
        let e = engine();
        for sql in [
            "SELECT a FROM t WHERE ttid = 1",
            "SELECT t.a, u.v FROM t, u WHERE t.a = u.k",
            "SELECT ttid, SUM(a) FROM t GROUP BY ttid ORDER BY SUM(a) DESC",
            "SELECT DISTINCT s FROM t ORDER BY s",
        ] {
            let plan = plan_of(&e, sql);
            let report = verify_plan(&e, &plan).unwrap_or_else(|err| panic!("{sql}: {err}"));
            assert!(report.operators >= 1 && report.checks >= 1);
        }
    }

    #[test]
    fn bad_column_index_in_pushed_conjunct_is_rejected() {
        let e = engine();
        let mut plan = plan_of(&e, "SELECT a FROM t WHERE a > 5");
        // Corrupt the pushed conjunct to reference a column the scan's
        // schema cannot resolve.
        mutate_scan(&mut plan, |scan| {
            scan.residual = vec![mtsql::parse_expression("nope > 5").unwrap()];
        });
        let err = verify_plan(&e, &plan).unwrap_err();
        assert_eq!(class_of(err), PlanErrorClass::Column);
    }

    #[test]
    fn subquery_in_pushed_conjunct_is_rejected() {
        let e = engine();
        let mut plan = plan_of(&e, "SELECT a FROM t WHERE a > 5");
        mutate_scan(&mut plan, |scan| {
            scan.residual = vec![mtsql::parse_expression("a > (SELECT k FROM u)").unwrap()];
        });
        let err = verify_plan(&e, &plan).unwrap_err();
        assert_eq!(class_of(err), PlanErrorClass::Predicate);
    }

    #[test]
    fn scan_schema_arity_mismatch_is_rejected() {
        let e = engine();
        let mut plan = plan_of(&e, "SELECT a FROM t");
        mutate_scan(&mut plan, |scan| {
            scan.schema = Schema::qualified("t", &["ttid".into(), "a".into()]);
        });
        let err = verify_plan(&e, &plan).unwrap_err();
        assert_eq!(class_of(err), PlanErrorClass::Schema);
    }

    #[test]
    fn pruning_on_non_partition_column_is_rejected() {
        let e = engine();
        let mut plan = plan_of(&e, "SELECT a FROM t WHERE ttid = 1");
        mutate_scan(&mut plan, |scan| {
            scan.pruning = vec![mtsql::parse_expression("a = 1").unwrap()];
        });
        let err = verify_plan(&e, &plan).unwrap_err();
        assert_eq!(class_of(err), PlanErrorClass::Pruning);
    }

    #[test]
    fn prune_keys_on_unpartitioned_table_are_rejected() {
        let e = engine();
        let mut plan = plan_of(&e, "SELECT v FROM u");
        mutate_scan(&mut plan, |scan| {
            scan.prune_keys = Some([1i64].into_iter().collect());
        });
        let err = verify_plan(&e, &plan).unwrap_err();
        assert_eq!(class_of(err), PlanErrorClass::Pruning);
    }

    #[test]
    fn param_pruning_outside_residual_is_rejected() {
        let e = engine();
        let mut plan = plan_of(&e, "SELECT a FROM t WHERE ttid = $1");
        mutate_scan(&mut plan, |scan| {
            scan.residual.clear();
        });
        let err = verify_plan(&e, &plan).unwrap_err();
        assert_eq!(class_of(err), PlanErrorClass::Pruning);
    }

    #[test]
    fn out_of_range_param_is_rejected() {
        let e = engine();
        let plan = plan_of(&e, "SELECT a FROM t WHERE a = $2");
        let err = verify_plan_with(
            &e,
            &plan,
            VerifyOptions {
                param_count: Some(1),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(class_of(err), PlanErrorClass::Param);
        verify_plan_with(
            &e,
            &plan,
            VerifyOptions {
                param_count: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
    }

    #[test]
    fn semi_join_with_wrong_schema_or_residual_is_rejected() {
        let e = engine();
        let probe = plan_of(&e, "SELECT a FROM t");
        let build = plan_of(&e, "SELECT k FROM u");
        let keys = vec![(
            mtsql::parse_expression("a").unwrap(),
            mtsql::parse_expression("k").unwrap(),
        )];
        // Wrong output schema: semi joins must emit the probe schema.
        let bad_schema = hash_join(
            &e,
            probe.clone(),
            build.clone(),
            keys.clone(),
            vec![],
            JoinVariant::Semi,
            probe.schema().concat(build.schema()),
        );
        assert_eq!(
            class_of(verify_plan(&e, &bad_schema).unwrap_err()),
            PlanErrorClass::Variant
        );
        // A residual on a semi join means decorrelation failed to bail out.
        let bad_residual = hash_join(
            &e,
            probe.clone(),
            build.clone(),
            keys.clone(),
            vec![mtsql::parse_expression("a > 0").unwrap()],
            JoinVariant::Semi,
            probe.schema().clone(),
        );
        assert_eq!(
            class_of(verify_plan(&e, &bad_residual).unwrap_err()),
            PlanErrorClass::Variant
        );
        // The well-formed semi join passes.
        let good = hash_join(
            &e,
            probe.clone(),
            build,
            keys,
            vec![],
            JoinVariant::Semi,
            probe.schema().clone(),
        );
        verify_plan(&e, &good).unwrap();
    }

    #[test]
    fn mismatched_join_key_classes_are_rejected() {
        let e = engine();
        let probe = plan_of(&e, "SELECT a FROM t");
        let build = plan_of(&e, "SELECT v FROM u");
        // `a` is an Int column, `v` a Str column: the semi join could never
        // match and must be rejected as a decorrelation defect.
        let plan = hash_join(
            &e,
            probe.clone(),
            build,
            vec![(
                mtsql::parse_expression("a").unwrap(),
                mtsql::parse_expression("v").unwrap(),
            )],
            vec![],
            JoinVariant::Semi,
            probe.schema().clone(),
        );
        let err = verify_plan(&e, &plan).unwrap_err();
        assert_eq!(class_of(err), PlanErrorClass::JoinKey);
    }

    #[test]
    fn hash_join_without_keys_is_rejected() {
        let e = engine();
        let probe = plan_of(&e, "SELECT a FROM t");
        let build = plan_of(&e, "SELECT k FROM u");
        let plan = hash_join(
            &e,
            probe.clone(),
            build,
            vec![],
            vec![],
            JoinVariant::Semi,
            probe.schema().clone(),
        );
        assert_eq!(
            class_of(verify_plan(&e, &plan).unwrap_err()),
            PlanErrorClass::JoinKey
        );
    }

    #[test]
    fn sort_key_out_of_bounds_is_rejected() {
        let e = engine();
        let mut plan = plan_of(&e, "SELECT a FROM t ORDER BY a");
        if let Plan::Sort { keys, .. } = &mut plan {
            keys[0] = SortKey { col: 99, asc: true };
        } else {
            panic!("expected a Sort head, got {plan:?}");
        }
        let err = verify_plan(&e, &plan).unwrap_err();
        assert_eq!(class_of(err), PlanErrorClass::Bounds);
    }

    #[test]
    fn missing_watermark_under_pinned_epoch_is_rejected() {
        let mut e = engine();
        // A destructive rewrite bumps the table's rewrite epoch past any
        // previously pinned cursor.
        e.execute("UPDATE t SET a = 11 WHERE ttid = 1").unwrap();
        let pinned = VerifyOptions {
            pinned_epoch: Some(0),
            ..Default::default()
        };
        let plan = plan_of(&e, "SELECT a FROM t");
        let err = verify_plan_with(&e, &plan, pinned).unwrap_err();
        assert_eq!(class_of(err), PlanErrorClass::Snapshot);
        // Pinning at the current epoch is fine.
        let now = VerifyOptions {
            pinned_epoch: Some(e.current_epoch()),
            ..Default::default()
        };
        verify_plan_with(&e, &plan, now).unwrap();
    }

    #[test]
    fn error_converts_to_typed_engine_error() {
        let err = PlanError::new(PlanErrorClass::Bounds, "Sort", "sort key out of range");
        let engine_err: EngineError = err.into();
        assert_eq!(engine_err.kind(), EngineErrorKind::Plan);
        assert!(engine_err.to_string().contains("[bounds]"));
        assert!(engine_err.to_string().contains("Sort"));
    }

    /// Apply `f` to the first SeqScan found in the plan (panics if none).
    fn mutate_scan(plan: &mut Plan, f: impl FnOnce(&mut SeqScan)) {
        fn find(plan: &mut Plan) -> Option<&mut SeqScan> {
            match plan {
                Plan::SeqScan(s) => Some(s),
                Plan::Filter { input, .. }
                | Plan::Subquery { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Limit { input, .. } => find(input),
                Plan::Project(p) => find(&mut p.input),
                Plan::HashAggregate(a) => find(&mut a.input),
                Plan::HashJoin { left, right, .. } | Plan::NestedLoopJoin { left, right, .. } => {
                    find(left).or_else(|| find(right))
                }
                Plan::Empty { .. } => None,
            }
        }
        f(find(plan).expect("plan has a SeqScan"))
    }
}
