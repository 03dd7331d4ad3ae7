//! Physical plans: lowering a (rewritten) [`Query`] into an operator DAG.
//!
//! The planner turns the AST the rewriter produces into an explicit tree of
//! physical operators that the executor walks:
//!
//! * [`Plan::SeqScan`] — one base-table scan carrying its *pushed-down*
//!   WHERE conjuncts and, for tenant-partitioned tables, the set of
//!   partition keys the `ttid = k` / `ttid IN (...)` D-filters select.
//! * [`Plan::Filter`], [`Plan::HashJoin`], [`Plan::NestedLoopJoin`] — the
//!   relational glue; the planner picks hash joins greedily from the
//!   available equi-join conjuncts.
//! * [`Plan::Subquery`] — a derived table (or expanded view) re-qualified
//!   under its alias.
//! * [`Plan::Project`] / [`Plan::HashAggregate`] — the projection and
//!   grouping heads of a query block. ORDER BY expressions that are not
//!   visible output columns are appended as *hidden* key columns so that
//!   [`Plan::Sort`] can compare rows in place (no per-row key vectors) and
//!   strip the extras afterwards.
//! * [`Plan::Sort`] / [`Plan::Limit`] — ordering and truncation.
//!
//! Because filter pushdown is now a plan transformation rather than ad-hoc
//! scan logic, it also crosses derived-table boundaries: a conjunct over a
//! derived table's output columns is *transposed* through the projection
//! (output column → defining expression) and joins the sub-query's own
//! conjunct pool, where it reaches the base scans and prunes partitions.
//! This is what lets the o2/o3 rewrites of the paper — which wrap scans in
//! sub-selects — keep the scan-time tenant pruning of PR 1.
//!
//! The last planning step, [`Planner::bind`], binds every expression of the
//! DAG against its operator's input schema ([`crate::bound`]) — column
//! references become slots, constants fold, functions resolve to handles,
//! expression sub-queries are planned by a nested planner whose scopes are
//! the enclosing operators' inputs —
//! and recognises the streaming-aggregation pipelines: a `HashAggregate`
//! directly over an inner join of a partitioned scan on its partition column
//! (the `X.ttid = T_tenant_key` join conversion inlining emits) marks that
//! join [per-bucket](BoundJoin::per_bucket) and reads its build side through
//! bucket-constant slots. [`Planner::plan_query`] then narrows every scan of
//! a partitioned table to the columns the plan reads ([`crate::prune`]).
//!
//! [`explain`] renders a plan as an indented operator tree (the `EXPLAIN`
//! statement surface), including pruned scans' columns, pushed conjuncts,
//! live partition-pruning counts and parallel-scan eligibility.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};

use mtsql::ast::*;
use mtsql::visit::{collect_aggregate_calls, contains_subquery, split_conjuncts};

use crate::bound::{Binder, BoundAggregate, BoundExpr};
use crate::conjuncts::{
    contains_aggregate, equi_join_keys, expr_resolvable, is_consumed_equi_key,
    is_param_partition_key_conjunct, map_columns, partition_keys_of_conjunct, take_applicable,
};
use crate::error::Result;
use crate::exec::Executor;
use crate::schema::Schema;
use crate::stats::StmtCtx;
use crate::Engine;

/// One ORDER BY key of a [`Plan::Sort`]: a column index into the input rows
/// (visible or hidden) plus the direction.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    pub col: usize,
    pub asc: bool,
}

/// A base-table scan with pushed-down conjuncts and partition pruning. The
/// pushed-down conjuncts are partitioned into `pruning` ∪ `residual`; the
/// full pushed set (applied to loose rows and un-pruned scans) is the
/// concatenation of the two, so the lists cannot drift apart.
#[derive(Debug, Clone)]
pub struct SeqScan {
    /// Table name as referenced (database lookup is case-insensitive).
    pub table: String,
    /// The binding (alias) the scan's columns are qualified under.
    pub binding: String,
    /// The scan's output columns: column `i` is table column
    /// `projection[i]`. All of them when planned; [`Planner::plan_query`]
    /// narrows a partitioned table's scan to the columns the plan reads
    /// (see [`crate::prune`]).
    pub schema: Schema,
    /// Table column index of each output column, in table order.
    pub projection: Vec<usize>,
    /// Pushed conjuncts recognized as partition-key predicates. Rows inside
    /// a selected bucket satisfy them by construction (the bucket key *is*
    /// the partition value); loose rows re-check them.
    pub pruning: Vec<Expr>,
    /// The remaining pushed conjuncts, evaluated for every visited row.
    pub residual: Vec<Expr>,
    /// Keys selected by the pruning predicates; `None` scans every bucket.
    pub prune_keys: Option<BTreeSet<i64>>,
    /// Partition-key predicates whose key side contains parameter
    /// placeholders (`ttid = $1`). They cannot prune at plan time, so they
    /// are *also* members of `residual` (correctness never depends on them);
    /// once parameters are bound, the executor folds them to key sets and
    /// intersects those into the effective pruning set — prepared statements
    /// keep scan-time tenant pruning without replanning per bind.
    pub param_pruning: Vec<Expr>,
    /// The pushed conjuncts, bound (boxed: it keeps [`Plan`] small).
    pub bound: Box<BoundScan>,
}

/// The bound form of a [`SeqScan`]'s pushed conjuncts, against the scan
/// schema. The executor compiles them to kernels per execution (parameters
/// are bound by then); what has no kernel form evaluates as bound.
#[derive(Debug, Clone, Default)]
pub struct BoundScan {
    pub pruning: Vec<BoundExpr>,
    pub residual: Vec<BoundExpr>,
}

impl SeqScan {
    /// `true` when no conjunct at all was pushed into this scan.
    pub fn nothing_pushed(&self) -> bool {
        self.pruning.is_empty() && self.residual.is_empty()
    }

    /// Does the scan output every column of a `width`-column table, in
    /// table order (its rows are the stored rows)?
    pub fn reads_whole_rows(&self, width: usize) -> bool {
        self.projection.len() == width && self.projection.iter().enumerate().all(|(i, &c)| i == c)
    }

    /// The output position of table column `col`, when projected.
    pub fn output_of(&self, col: usize) -> Option<usize> {
        self.projection.iter().position(|&c| c == col)
    }
}

/// Projection head of a non-aggregated query block.
#[derive(Debug, Clone)]
pub struct Project {
    pub input: Box<Plan>,
    /// Visible projection items followed by hidden ORDER BY key items.
    pub items: Vec<SelectItem>,
    /// Width of the visible output (DISTINCT compares this prefix).
    pub visible_width: usize,
    pub distinct: bool,
    /// Schema of the visible output.
    pub schema: Schema,
    /// `items` bound against the input, one entry per output column
    /// (wildcards expanded).
    pub bound: Vec<BoundExpr>,
}

/// Grouping/aggregation head of a query block.
#[derive(Debug, Clone)]
pub struct HashAggregate {
    pub input: Box<Plan>,
    pub group_exprs: Vec<Expr>,
    pub aggregates: Vec<FunctionCall>,
    pub having: Option<Expr>,
    /// Visible projection items followed by hidden ORDER BY key items, all
    /// evaluated in group context.
    pub items: Vec<SelectItem>,
    pub visible_width: usize,
    pub distinct: bool,
    pub schema: Schema,
    /// Everything above, bound: what the streaming operator evaluates
    /// (boxed: it keeps [`Plan`] small).
    pub bound: Box<BoundAggregate>,
}

/// The bound form of a [`Plan::HashJoin`].
#[derive(Debug, Clone, Default)]
pub struct BoundJoin {
    /// `(probe key, build key)`, each bound against its own side.
    pub keys: Vec<(BoundExpr, BoundExpr)>,
    /// Bound against the concatenated probe+build row.
    pub residual: Vec<BoundExpr>,
    /// The join is *elided*: its probe side is a scan of a partitioned table
    /// and its one key pair equates that table's partition column with a
    /// build key, so every row of a bucket joins the same build row. The
    /// `HashAggregate` directly above looks that row up once per bucket and
    /// reads it through [`crate::bound::Slot::BucketConst`] slots. Set by
    /// [`Planner::bind`] only; a build side whose key turns out not to be
    /// unique falls back to the generic join at execution time.
    pub per_bucket: bool,
}

/// How a [`Plan::HashJoin`] combines its probe (left) and build (right)
/// sides. `Plain` carries the SQL join kinds; the other variants are
/// produced only by sub-query decorrelation (see the [`crate::decorrelate`]
/// module) and act as *filters* on the probe side: they emit probe rows
/// unchanged (and in order), so they are drop-in replacements for a
/// correlated sub-query predicate run per outer row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinVariant {
    /// An ordinary SQL join producing concatenated rows.
    Plain(JoinKind),
    /// Semi join (decorrelated `EXISTS`): emit probe rows with at least one
    /// build-side key match. NULL probe keys never match (`=` over NULL is
    /// not true), matching the per-row `EXISTS` over an empty inner set.
    Semi,
    /// Anti join (decorrelated `NOT EXISTS`): emit probe rows with *no*
    /// build-side key match — including rows with NULL probe keys, which
    /// cannot match anything.
    Anti,
    /// Aggregate join (decorrelated scalar-aggregate comparison): look up at
    /// most one build row per probe row (build keys are the GROUP BY keys of
    /// an aggregated build side, hence unique), null-extend on a miss, and
    /// emit the probe row iff the rewritten comparison in `residual` holds
    /// over the concatenated row. A miss yields NULL aggregates, so the
    /// comparison is not-true — exactly the per-row aggregate-over-empty
    /// behaviour (`AVG`/`SUM`/`MIN`/`MAX` only; `COUNT` is never rewritten).
    Single,
}

/// A physical operator DAG node.
#[derive(Debug, Clone)]
pub enum Plan {
    /// `SELECT expr` without FROM: a single empty row.
    Empty {
        schema: Schema,
    },
    SeqScan(SeqScan),
    /// Residual predicates (correlated conjuncts, sub-queries, predicates
    /// over already-joined intermediates).
    Filter {
        input: Box<Plan>,
        predicates: Vec<Expr>,
        /// `predicates`, bound against the input.
        bound: Vec<BoundExpr>,
    },
    HashJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        /// `(left key, right key)` equi-join pairs.
        keys: Vec<(Expr, Expr)>,
        /// Non-equi ON conjuncts checked per candidate pair. For
        /// [`JoinVariant::Single`] this holds the rewritten scalar
        /// comparison, evaluated over the concatenated probe+build row.
        residual: Vec<Expr>,
        kind: JoinVariant,
        schema: Schema,
        bound: BoundJoin,
    },
    NestedLoopJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        predicates: Vec<Expr>,
        kind: JoinKind,
        schema: Schema,
        /// `predicates`, bound against the concatenated row.
        bound: Vec<BoundExpr>,
    },
    /// A derived table or expanded view, re-qualified under `alias`.
    Subquery {
        input: Box<Plan>,
        alias: String,
        schema: Schema,
    },
    Project(Project),
    HashAggregate(HashAggregate),
    Sort {
        input: Box<Plan>,
        keys: Vec<SortKey>,
        /// Strip hidden key columns down to this width after sorting.
        prune_to: Option<usize>,
    },
    Limit {
        input: Box<Plan>,
        limit: u64,
    },
}

impl Plan {
    /// A filter whose predicates are not bound yet (see [`Planner::bind`]).
    pub fn filter(input: Plan, predicates: Vec<Expr>) -> Plan {
        Plan::Filter {
            input: Box::new(input),
            predicates,
            bound: Vec::new(),
        }
    }

    /// A hash join whose keys and residual are not bound yet.
    pub fn hash_join(
        left: Plan,
        right: Plan,
        keys: Vec<(Expr, Expr)>,
        residual: Vec<Expr>,
        kind: JoinVariant,
        schema: Schema,
    ) -> Plan {
        Plan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            keys,
            residual,
            kind,
            schema,
            bound: BoundJoin::default(),
        }
    }

    /// A nested-loop join whose predicates are not bound yet.
    pub fn nested_loop(
        left: Plan,
        right: Plan,
        predicates: Vec<Expr>,
        kind: JoinKind,
        schema: Schema,
    ) -> Plan {
        Plan::NestedLoopJoin {
            left: Box::new(left),
            right: Box::new(right),
            predicates,
            kind,
            schema,
            bound: Vec::new(),
        }
    }

    /// The (visible) output schema of this operator.
    pub fn schema(&self) -> &Schema {
        match self {
            Plan::Empty { schema } => schema,
            Plan::SeqScan(s) => &s.schema,
            Plan::Filter { input, .. } => input.schema(),
            Plan::HashJoin { schema, .. } => schema,
            Plan::NestedLoopJoin { schema, .. } => schema,
            Plan::Subquery { schema, .. } => schema,
            Plan::Project(p) => &p.schema,
            Plan::HashAggregate(a) => &a.schema,
            Plan::Sort { input, .. } => input.schema(),
            Plan::Limit { input, .. } => input.schema(),
        }
    }
}

/// Lowers queries into [`Plan`]s against one engine's catalog and config.
pub struct Planner<'e> {
    pub(crate) engine: &'e Engine,
    /// The statement being planned: constant folding can call UDFs.
    pub(crate) ctx: &'e StmtCtx,
    /// The input schemas of the operators enclosing the query being planned,
    /// innermost first — what [`crate::bound::Slot::Outer`] slots index.
    /// Empty for a top-level statement.
    pub(crate) scopes: Vec<Schema>,
    /// How many of `scopes` the query's bound slots reach into, nested
    /// sub-queries included: non-zero makes it a correlated sub-query.
    pub(crate) reach: Cell<usize>,
}

impl<'e> Planner<'e> {
    /// A planner for the engine's current catalog, charging `ctx`.
    pub fn new(engine: &'e Engine, ctx: &'e StmtCtx) -> Self {
        Planner {
            engine,
            ctx,
            scopes: Vec::new(),
            reach: Cell::new(0),
        }
    }

    /// The planner of a sub-query inside an operator whose input is `scope`.
    pub(crate) fn nested(&self, scope: &Schema) -> Planner<'e> {
        let mut scopes = Vec::with_capacity(self.scopes.len() + 1);
        scopes.push(scope.clone());
        scopes.extend(self.scopes.iter().cloned());
        Planner {
            engine: self.engine,
            ctx: self.ctx,
            scopes,
            reach: Cell::new(0),
        }
    }

    /// Note a slot reading `levels` enclosing scopes out.
    pub(crate) fn note_reach(&self, levels: usize) {
        self.reach.set(self.reach.get().max(levels));
    }

    /// Bind one expression against `schema` — what the DML paths, INSERT
    /// `VALUES` and partition-key folding evaluate.
    pub(crate) fn bind_expr(&self, expr: &Expr, schema: &Schema, node: &str) -> Result<BoundExpr> {
        Binder::new(self, schema, node).bind(expr)
    }

    /// Lower a query into a physical plan, bind its expressions and narrow
    /// its scans to the columns it reads ([`crate::prune`]).
    pub fn plan_query(&self, query: &Query) -> Result<Plan> {
        let mut plan = self.plan(query, Vec::new())?;
        self.bind(&mut plan)?;
        crate::prune::prune_scans(self.engine, &mut plan);
        Ok(plan)
    }

    /// Lower a query with extra conjuncts pushed down from an enclosing
    /// query (derived-table pushdown); they join the WHERE conjunct pool.
    pub(crate) fn plan(&self, query: &Query, extra: Vec<Expr>) -> Result<Plan> {
        let select = &query.body;
        let input = self.plan_from_where(select, extra)?;

        let aggregates = collect_aggregates(select, &query.order_by);
        let grouped = !select.group_by.is_empty() || !aggregates.is_empty();

        let aliases = alias_map(&select.projection);
        let out_schema = projection_schema(&select.projection, input.schema());
        let visible_width = out_schema.len();
        let order_exprs: Vec<Expr> = query
            .order_by
            .iter()
            .map(|o| substitute_aliases(&o.expr, &aliases))
            .collect();

        // ORDER BY keys become column indices into the projected rows: either
        // a visible output column whose defining expression matches, or a
        // hidden key item appended behind the projection (stripped by Sort).
        let plain_items = !select
            .projection
            .iter()
            .any(|i| !matches!(i, SelectItem::Expr { .. }));
        let mut items: Vec<SelectItem> = select.projection.clone();
        let mut hidden: Vec<Expr> = Vec::new();
        let mut sort_keys: Vec<SortKey> = Vec::new();
        for (o, e) in query.order_by.iter().zip(&order_exprs) {
            let visible_match = if plain_items {
                select
                    .projection
                    .iter()
                    .position(|i| matches!(i, SelectItem::Expr { expr, .. } if expr == e))
            } else {
                None
            };
            let col = match visible_match {
                Some(i) => i,
                None => match hidden.iter().position(|h| h == e) {
                    Some(j) => visible_width + j,
                    None => {
                        hidden.push(e.clone());
                        visible_width + hidden.len() - 1
                    }
                },
            };
            sort_keys.push(SortKey { col, asc: o.asc });
        }
        let hidden_count = hidden.len();
        items.extend(
            hidden
                .into_iter()
                .map(|expr| SelectItem::Expr { expr, alias: None }),
        );

        let mut plan = if grouped {
            let group_exprs: Vec<Expr> = select
                .group_by
                .iter()
                .map(|e| substitute_aliases(e, &aliases))
                .collect();
            let having = select
                .having
                .as_ref()
                .map(|h| substitute_aliases(h, &aliases));
            Plan::HashAggregate(HashAggregate {
                input: Box::new(input),
                group_exprs,
                aggregates,
                having,
                items,
                visible_width,
                distinct: select.distinct,
                schema: out_schema,
                bound: Box::default(),
            })
        } else {
            Plan::Project(Project {
                input: Box::new(input),
                items,
                visible_width,
                distinct: select.distinct,
                schema: out_schema,
                bound: Vec::new(),
            })
        };
        if !sort_keys.is_empty() {
            plan = Plan::Sort {
                input: Box::new(plan),
                keys: sort_keys,
                prune_to: (hidden_count > 0).then_some(visible_width),
            };
        }
        if let Some(limit) = query.limit {
            plan = Plan::Limit {
                input: Box::new(plan),
                limit,
            };
        }
        Ok(plan)
    }

    /// Plan the FROM/WHERE part: scans with pushdown, greedy hash-join
    /// ordering, and residual filters as they become resolvable.
    fn plan_from_where(&self, select: &Select, extra: Vec<Expr>) -> Result<Plan> {
        let mut conjuncts: Vec<Expr> = extra;
        if let Some(sel) = &select.selection {
            split_conjuncts(sel, &mut conjuncts);
        }

        if select.from.is_empty() {
            // `SELECT expr` without FROM: a single empty row. A WHERE clause
            // here can only hold column-free predicates; they filter that
            // row (`SELECT 1 WHERE 1 = 0` is empty).
            let mut plan = Plan::Empty {
                schema: Schema::new(),
            };
            if !conjuncts.is_empty() {
                plan = Plan::filter(plan, conjuncts);
            }
            return Ok(plan);
        }

        // Plan each FROM item with its single-item predicates pushed into the
        // item itself. Consumed conjuncts are removed from the pool; FROM
        // order decides which item claims an ambiguous conjunct.
        let mut items: Vec<Plan> = Vec::with_capacity(select.from.len());
        for table_ref in &select.from {
            items.push(self.plan_table_ref(table_ref, &mut conjuncts)?);
        }

        let mut remaining = conjuncts;
        let mut current = items.remove(0);
        while !items.is_empty() {
            let mut chosen: Option<(usize, Vec<(Expr, Expr)>)> = None;
            for (i, item) in items.iter().enumerate() {
                let keys = equi_join_keys(&remaining, current.schema(), item.schema());
                if !keys.is_empty() {
                    chosen = Some((i, keys));
                    break;
                }
            }
            current = match chosen {
                Some((i, keys)) => {
                    let right = items.remove(i);
                    remaining.retain(|c| !is_consumed_equi_key(c, &keys));
                    let schema = current.schema().concat(right.schema());
                    Plan::hash_join(
                        current,
                        right,
                        keys,
                        Vec::new(),
                        JoinVariant::Plain(JoinKind::Inner),
                        schema,
                    )
                }
                None => {
                    let right = items.remove(0);
                    let schema = current.schema().concat(right.schema());
                    Plan::nested_loop(current, right, Vec::new(), JoinKind::Cross, schema)
                }
            };
            // Apply predicates that became resolvable, to keep intermediate
            // results small.
            let mut still: Vec<Expr> = Vec::new();
            let mut apply: Vec<Expr> = Vec::new();
            for c in remaining.drain(..) {
                if !contains_subquery(&c) && expr_resolvable(&c, current.schema()) {
                    apply.push(c);
                } else {
                    still.push(c);
                }
            }
            if !apply.is_empty() {
                current = Plan::filter(current, apply);
            }
            remaining = still;
        }

        // Whatever is left (correlated predicates, sub-queries, ...): first
        // give decorrelation a chance to rewrite correlated sub-query
        // conjuncts into semi-/anti-/aggregate-join nodes over `current`;
        // anything it cannot prove equivalent stays a per-row sub-plan.
        if self.engine.config().decorrelation {
            remaining = self.decorrelate_conjuncts(&mut current, remaining)?;
        }
        if !remaining.is_empty() {
            current = Plan::filter(current, remaining);
        }
        Ok(current)
    }

    fn plan_table_ref(&self, table_ref: &TableRef, pool: &mut Vec<Expr>) -> Result<Plan> {
        match table_ref {
            TableRef::Table { name, alias } => {
                let binding = alias.as_deref().unwrap_or(name);
                if let Some(view) = self.engine.database().view(name) {
                    let view = view.clone();
                    return self.plan_derived(&view, binding, pool);
                }
                let table = self.engine.database().table(name)?;
                let schema = Schema::qualified(binding, &table.columns);
                let partition_col = table.partition_column();
                let pushed = take_applicable(pool, &schema);
                Ok(Plan::SeqScan(self.build_scan(
                    name,
                    binding,
                    schema,
                    pushed,
                    partition_col,
                )))
            }
            TableRef::Derived { query, alias } => self.plan_derived(query, alias, pool),
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let mut on_conjuncts = Vec::new();
                if let Some(cond) = on {
                    split_conjuncts(cond, &mut on_conjuncts);
                }
                let (l, r) = match kind {
                    JoinKind::Inner => {
                        // Single-side ON conjuncts of an inner join may be
                        // evaluated below the join; the left leg claims
                        // ambiguous ones first, matching how unqualified
                        // names resolve on the combined schema.
                        let l = self.plan_table_ref(left, &mut on_conjuncts)?;
                        let r = self.plan_table_ref(right, &mut on_conjuncts)?;
                        (l, r)
                    }
                    JoinKind::Left => {
                        // The preserved (left) side must not be pre-filtered
                        // by ON predicates; right-side-only predicates may be
                        // pushed into the right scan (non-matching right rows
                        // are simply absent, left rows still null-extend).
                        let l = self.plan_table_ref(left, &mut Vec::new())?;
                        let mut right_only: Vec<Expr> = Vec::new();
                        if let Some(rschema) = self.base_table_schema(right) {
                            on_conjuncts.retain(|c| {
                                let push = !contains_subquery(c)
                                    && expr_resolvable(c, &rschema)
                                    && !expr_resolvable(c, l.schema());
                                if push {
                                    right_only.push(c.clone());
                                }
                                !push
                            });
                        }
                        let r = self.plan_table_ref(right, &mut right_only)?;
                        // Anything the right leg could not consume keeps its
                        // place in the ON clause.
                        on_conjuncts.append(&mut right_only);
                        (l, r)
                    }
                    JoinKind::Cross => {
                        let l = self.plan_table_ref(left, &mut Vec::new())?;
                        let r = self.plan_table_ref(right, &mut Vec::new())?;
                        let schema = l.schema().concat(r.schema());
                        let node = Plan::nested_loop(l, r, Vec::new(), JoinKind::Cross, schema);
                        return Ok(filter_applicable(node, pool));
                    }
                };
                let keys = equi_join_keys(&on_conjuncts, l.schema(), r.schema());
                let residual: Vec<Expr> = on_conjuncts
                    .into_iter()
                    .filter(|c| !is_consumed_equi_key(c, &keys))
                    .collect();
                let schema = l.schema().concat(r.schema());
                let node = if keys.is_empty() {
                    Plan::nested_loop(l, r, residual, *kind, schema)
                } else {
                    Plan::hash_join(l, r, keys, residual, JoinVariant::Plain(*kind), schema)
                };
                Ok(filter_applicable(node, pool))
            }
        }
    }

    /// Plan a derived table (or view) bound under `alias`. Conjuncts from the
    /// pool that resolve against the derived output are either *transposed*
    /// through the projection into the sub-query's own conjunct pool (so they
    /// reach base scans and prune partitions) or, failing that, applied as a
    /// filter above the materialized sub-query.
    fn plan_derived(&self, query: &Query, alias: &str, pool: &mut Vec<Expr>) -> Result<Plan> {
        let plain_items = query
            .body
            .projection
            .iter()
            .all(|i| matches!(i, SelectItem::Expr { .. }));

        if !plain_items {
            // Wildcard projections: the output schema depends on the planned
            // sub-query; no transposition, filters stay above.
            let input = self.plan(query, Vec::new())?;
            let schema = Schema::qualified(alias, &input.schema().names());
            let node = Plan::Subquery {
                input: Box::new(input),
                alias: alias.to_string(),
                schema,
            };
            return Ok(filter_applicable(node, pool));
        }

        let names: Vec<String> = query
            .body
            .projection
            .iter()
            .map(|i| match i {
                SelectItem::Expr { expr, alias } => match alias {
                    Some(a) => a.clone(),
                    None => derived_name(expr),
                },
                _ => unreachable!("plain_items checked above"),
            })
            .collect();
        let schema = Schema::qualified(alias, &names);

        let applicable = take_applicable(pool, &schema);
        let transposer = Transposer::new(query);
        let mut push_in: Vec<Expr> = Vec::new();
        let mut above: Vec<Expr> = Vec::new();
        for c in applicable {
            match transposer.transpose(&c, &schema) {
                Some(t) => push_in.push(t),
                None => above.push(c),
            }
        }

        let input = self.plan(query, push_in)?;
        let mut node = Plan::Subquery {
            input: Box::new(input),
            alias: alias.to_string(),
            schema,
        };
        if !above.is_empty() {
            node = Plan::filter(node, above);
        }
        Ok(node)
    }

    fn build_scan(
        &self,
        table: &str,
        binding: &str,
        schema: Schema,
        pushed: Vec<Expr>,
        partition_col: Option<usize>,
    ) -> SeqScan {
        let mut prune_keys: Option<BTreeSet<i64>> = None;
        let mut pruning: Vec<Expr> = Vec::new();
        let mut param_pruning: Vec<Expr> = Vec::new();
        if self.engine.config().partition_pruning {
            if let Some(pidx) = partition_col {
                // Fold key expressions through binding and the executor's
                // constant evaluation (functions and UDFs over literals
                // included), so the planner prunes everything the scan
                // filter would recognise as constant.
                let folder = Executor::new(self.engine, self.ctx);
                let fold = |e: &Expr| folder.fold_key(e);
                for c in &pushed {
                    if let Some(keys) = partition_keys_of_conjunct(c, &schema, pidx, &fold) {
                        pruning.push(c.clone());
                        prune_keys = Some(match prune_keys {
                            None => keys,
                            Some(prev) => prev.intersection(&keys).copied().collect(),
                        });
                    } else if is_param_partition_key_conjunct(c, &schema, pidx) {
                        // The key depends on a statement parameter: defer to
                        // bind time. The conjunct stays in `residual` below.
                        param_pruning.push(c.clone());
                    }
                }
            }
        }
        let residual: Vec<Expr> = pushed
            .into_iter()
            .filter(|c| !pruning.contains(c))
            .collect();
        SeqScan {
            table: table.to_string(),
            binding: binding.to_string(),
            projection: (0..schema.len()).collect(),
            schema,
            pruning,
            residual,
            prune_keys,
            param_pruning,
            bound: Box::default(),
        }
    }

    /// Bind every expression of `plan` against its operator's input schema
    /// (see [`crate::bound`]) and recognise the streaming-aggregation
    /// pipelines: a `HashAggregate` directly over a per-bucket-eligible join
    /// (see [`BoundJoin::per_bucket`]) binds the build side's columns as
    /// bucket constants and marks the join elided. Unknown columns and
    /// functions, aggregates outside an aggregation context, malformed
    /// aggregate calls and literals are rejected here, at plan time, as
    /// typed [`crate::verify::PlanError`]s; expression sub-queries are
    /// planned here. [`Planner::plan_query`] calls this; hand-assembled plans
    /// call it before execution.
    pub fn bind(&self, plan: &mut Plan) -> Result<()> {
        let binder = |schema, node| Binder::new(self, schema, node);
        match plan {
            Plan::Empty { .. } => {}
            Plan::SeqScan(scan) => {
                let scan_binder = binder(&scan.schema, "SeqScan");
                *scan.bound = BoundScan {
                    pruning: scan_binder.bind_all(scan.pruning.iter())?,
                    residual: scan_binder.bind_all(scan.residual.iter())?,
                };
            }
            Plan::Subquery { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
                self.bind(input)?
            }
            Plan::Filter {
                input,
                predicates,
                bound,
            } => {
                self.bind(input)?;
                *bound = binder(input.schema(), "Filter").bind_all(predicates.iter())?;
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
                self.bind(left)?;
                self.bind(right)?;
                let (probe, build) = (
                    binder(left.schema(), "HashJoin"),
                    binder(right.schema(), "HashJoin"),
                );
                // The residual sees the concatenated row: a plain join's own
                // schema; the filtering variants emit the probe schema only.
                let concat;
                let joined = match kind {
                    JoinVariant::Plain(_) => &*schema,
                    _ => {
                        concat = left.schema().concat(right.schema());
                        &concat
                    }
                };
                *bound = BoundJoin {
                    keys: keys
                        .iter()
                        .map(|(l, r)| Ok((probe.bind(l)?, build.bind(r)?)))
                        .collect::<Result<_>>()?,
                    residual: binder(joined, "HashJoin").bind_all(residual.iter())?,
                    per_bucket: false,
                };
            }
            Plan::NestedLoopJoin {
                left,
                right,
                predicates,
                schema,
                bound,
                ..
            } => {
                self.bind(left)?;
                self.bind(right)?;
                *bound = binder(schema, "NestedLoopJoin").bind_all(predicates.iter())?;
            }
            Plan::Project(p) => {
                self.bind(&mut p.input)?;
                p.bound = binder(p.input.schema(), "Project").bind_items(&p.items)?;
            }
            Plan::HashAggregate(a) => {
                self.bind(&mut a.input)?;
                let split = per_bucket_split(self.engine, &a.input);
                let bind_with = |split| {
                    Binder {
                        split,
                        ..binder(a.input.schema(), "HashAggregate")
                    }
                    .bind_aggregate(
                        &a.group_exprs,
                        &a.aggregates,
                        a.having.as_ref(),
                        &a.items,
                    )
                };
                let mut bound = bind_with(split)?;
                let per_bucket = split.is_some() && bound.columnar;
                if split.is_some() && !per_bucket {
                    // Sub-query keys or arguments need the joined row
                    // materialized: keep the generic join.
                    bound = bind_with(None)?;
                }
                *a.bound = bound;
                if let (true, Plan::HashJoin { bound: join, .. }) = (per_bucket, a.input.as_mut()) {
                    join.per_bucket = true;
                }
            }
        }
        Ok(())
    }

    /// Schema of a FROM item when it is a plain base table (not a view);
    /// usable for pushability checks without planning the item.
    pub(crate) fn base_table_schema(&self, table_ref: &TableRef) -> Option<Schema> {
        match table_ref {
            TableRef::Table { name, alias } if self.engine.database().view(name).is_none() => {
                let binding = alias.as_deref().unwrap_or(name);
                let table = self.engine.database().table(name).ok()?;
                Some(Schema::qualified(binding, &table.columns))
            }
            _ => None,
        }
    }
}

/// Consume every pool conjunct resolvable against the node's schema and wrap
/// the node in a [`Plan::Filter`] applying them.
fn filter_applicable(node: Plan, pool: &mut Vec<Expr>) -> Plan {
    let applicable = take_applicable(pool, node.schema());
    if applicable.is_empty() {
        node
    } else {
        Plan::filter(node, applicable)
    }
}

/// Is `plan` an inner hash join whose probe side scans a partitioned table
/// and whose single key pair equates that table's partition column with a
/// build-side key? Then every row of one partition bucket joins the same
/// build row(s), and the result is the probe schema's width — the *split*
/// behind which a parent binds build columns as bucket constants.
pub(crate) fn per_bucket_split(engine: &Engine, plan: &Plan) -> Option<usize> {
    let Plan::HashJoin {
        left,
        keys,
        residual,
        kind: JoinVariant::Plain(JoinKind::Inner),
        ..
    } = plan
    else {
        return None;
    };
    let (Plan::SeqScan(scan), [(Expr::Column(probe_key), _)]) = (left.as_ref(), keys.as_slice())
    else {
        return None;
    };
    let partition = engine
        .database()
        .table(&scan.table)
        .ok()?
        .partition_column()?;
    let probe_col = scan.schema.resolve(probe_key)?;
    (residual.is_empty() && scan.projection.get(probe_col) == Some(&partition))
        .then_some(scan.schema.len())
}

/// Rewrites conjuncts over a derived table's output columns into conjuncts
/// over the sub-query's *input* by substituting each output column with its
/// defining projection expression. The query-shape analysis (aggregate
/// detection, alias-substituted group keys) is computed once per derived
/// table and shared across all transposed conjuncts.
///
/// [`Transposer::transpose`] returns `None` when the transposition would
/// change semantics:
///
/// * the sub-query has a LIMIT (filtering first changes which rows survive);
/// * the sub-query has no FROM (there is no conjunct pool to push into);
/// * a referenced output column is defined by an aggregate or sub-query;
/// * the sub-query aggregates — anywhere: projection, HAVING or ORDER BY —
///   and a referenced column is not a GROUP BY expression (filters only
///   commute with grouping on group keys).
///
/// DISTINCT, HAVING and ORDER BY commute with a filter on projected columns
/// and do not block the pushdown.
struct Transposer<'q> {
    inner: &'q Query,
    blocked: bool,
    grouped: bool,
    /// The executor groups by the *alias-substituted* GROUP BY expressions
    /// (SQL allows projection aliases there), so group-key membership is
    /// checked against the same substituted forms — a projection alias
    /// shadowing a real column name would otherwise let a non-key column
    /// pass.
    group_keys: Vec<Expr>,
}

impl<'q> Transposer<'q> {
    fn new(inner: &'q Query) -> Self {
        let body = &inner.body;
        let blocked = inner.limit.is_some() || body.from.is_empty();
        let grouped =
            !body.group_by.is_empty() || !collect_aggregates(body, &inner.order_by).is_empty();
        let aliases = alias_map(&body.projection);
        let group_keys: Vec<Expr> = body
            .group_by
            .iter()
            .map(|e| substitute_aliases(e, &aliases))
            .collect();
        Transposer {
            inner,
            blocked,
            grouped,
            group_keys,
        }
    }

    fn transpose(&self, conjunct: &Expr, schema: &Schema) -> Option<Expr> {
        if self.blocked {
            return None;
        }
        let body = &self.inner.body;
        map_columns(conjunct, &mut |c| {
            let idx = schema.resolve(c)?;
            let SelectItem::Expr { expr, .. } = &body.projection[idx] else {
                return None;
            };
            if contains_subquery(expr) || contains_aggregate(expr) {
                return None;
            }
            if self.grouped && !self.group_keys.contains(expr) {
                return None;
            }
            Some(expr.clone())
        })
    }
}

// ---------------------------------------------------------------------------
// Query-shape helpers (projection schemas, aliases, aggregate collection)
// ---------------------------------------------------------------------------

/// Schema of the projection output: alias, column name or a synthesized name.
pub(crate) fn projection_schema(projection: &[SelectItem], input: &Schema) -> Schema {
    let mut names = Vec::new();
    for item in projection {
        match item {
            SelectItem::Wildcard => names.extend(input.cols.iter().map(|c| c.name.clone())),
            SelectItem::QualifiedWildcard(q) => {
                for idx in input.indices_of_qualifier(q) {
                    names.push(input.cols[idx].name.clone());
                }
            }
            SelectItem::Expr { expr, alias } => names.push(match alias {
                Some(a) => a.clone(),
                None => derived_name(expr),
            }),
        }
    }
    Schema::unqualified(&names)
}

pub(crate) fn derived_name(expr: &Expr) -> String {
    match expr {
        Expr::Column(c) => c.name.clone(),
        Expr::Function(f) => f.name.to_ascii_lowercase(),
        _ => "?column?".to_string(),
    }
}

/// Map projection aliases to their expressions.
pub(crate) fn alias_map(projection: &[SelectItem]) -> HashMap<String, Expr> {
    let mut map = HashMap::new();
    for item in projection {
        if let SelectItem::Expr {
            expr,
            alias: Some(alias),
        } = item
        {
            map.insert(alias.to_ascii_lowercase(), expr.clone());
        }
    }
    map
}

/// Replace unqualified column references that name a projection alias with the
/// aliased expression (SQL allows aliases in GROUP BY / ORDER BY / HAVING).
/// Sub-queries keep their own scope and are left untouched.
pub(crate) fn substitute_aliases(expr: &Expr, aliases: &HashMap<String, Expr>) -> Expr {
    let sub = |e: &Expr| Box::new(substitute_aliases(e, aliases));
    match expr {
        Expr::Column(c) if c.table.is_none() => match aliases.get(&c.name.to_ascii_lowercase()) {
            Some(e) => e.clone(),
            None => expr.clone(),
        },
        Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
            left: sub(left),
            op: *op,
            right: sub(right),
        },
        Expr::UnaryOp { op, expr } => Expr::UnaryOp {
            op: *op,
            expr: sub(expr),
        },
        Expr::Function(f) => Expr::Function(FunctionCall {
            name: f.name.clone(),
            args: f
                .args
                .iter()
                .map(|a| substitute_aliases(a, aliases))
                .collect(),
            distinct: f.distinct,
        }),
        Expr::Case {
            operand,
            when_then,
            else_expr,
        } => Expr::Case {
            operand: operand.as_deref().map(sub),
            when_then: when_then
                .iter()
                .map(|(w, t)| {
                    (
                        substitute_aliases(w, aliases),
                        substitute_aliases(t, aliases),
                    )
                })
                .collect(),
            else_expr: else_expr.as_deref().map(sub),
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: sub(expr),
            list: list
                .iter()
                .map(|i| substitute_aliases(i, aliases))
                .collect(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: sub(expr),
            low: sub(low),
            high: sub(high),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: sub(expr),
            pattern: sub(pattern),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: sub(expr),
            negated: *negated,
        },
        Expr::Extract { field, expr } => Expr::Extract {
            field: *field,
            expr: sub(expr),
        },
        Expr::Substring {
            expr,
            start,
            length,
        } => Expr::Substring {
            expr: sub(expr),
            start: sub(start),
            length: length.as_deref().map(sub),
        },
        Expr::Cast { expr, data_type } => Expr::Cast {
            expr: sub(expr),
            data_type: *data_type,
        },
        // `expr IN (subquery)`: the left-hand side belongs to this scope.
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => Expr::InSubquery {
            expr: sub(expr),
            query: query.clone(),
            negated: *negated,
        },
        Expr::Literal(_)
        | Expr::Param(_)
        | Expr::Column(_)
        | Expr::Exists { .. }
        | Expr::ScalarSubquery(_) => expr.clone(),
    }
}

/// Collect the distinct aggregate calls appearing in the projection, HAVING
/// and ORDER BY of a select.
pub(crate) fn collect_aggregates(select: &Select, order_by: &[OrderByItem]) -> Vec<FunctionCall> {
    let mut out: Vec<FunctionCall> = Vec::new();
    let aliases = alias_map(&select.projection);
    for item in &select.projection {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggregate_calls(expr, &mut out);
        }
    }
    if let Some(h) = &select.having {
        collect_aggregate_calls(&substitute_aliases(h, &aliases), &mut out);
    }
    for o in order_by {
        collect_aggregate_calls(&substitute_aliases(&o.expr, &aliases), &mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------------

/// Render a plan as an indented operator tree. Partition counts are computed
/// against the engine's live tables so `EXPLAIN` shows how many buckets the
/// pruning conjuncts actually skip.
pub fn explain(engine: &Engine, plan: &Plan) -> String {
    let mut out = String::new();
    render(engine, plan, 0, &mut out);
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn join_exprs(exprs: &[Expr]) -> String {
    exprs
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// Mirror of the executor's morsel-pool sizing over a scan's selected
/// buckets, at plan time: full bucket lengths (EXPLAIN has no snapshot) and
/// the *configured* budget — the `MT_THREADS` execution-time override
/// deliberately does not affect rendering, so plan snapshots stay stable
/// under forced-pool CI legs. `None` when the configured budget is serial.
fn scan_pool_workers(engine: &Engine, scan: &SeqScan) -> Option<usize> {
    let budget = engine.config().parallel_scan;
    if budget <= 1 {
        return None;
    }
    let table = engine.database().table(&scan.table).ok()?;
    let selected: Vec<usize> = match &scan.prune_keys {
        Some(keys) => table
            .partitions()
            .filter(|(k, _)| keys.contains(k))
            .map(|(_, b)| b.len())
            .collect(),
        None => table.partitions().map(|(_, b)| b.len()).collect(),
    };
    let total: usize = selected.iter().sum();
    let morsels: usize = selected
        .iter()
        .map(|len| len.div_ceil(crate::exec::MORSEL_ROWS))
        .sum();
    Some(crate::exec::scan_worker_count(budget, morsels, total))
}

/// Mirror of the executor's gate for running an aggregation on the worker
/// pool: the input streams off a scan (directly, or through a per-bucket
/// join), keys and arguments evaluate off column vectors, and the scan is
/// one the pool would engage.
fn aggregate_pools(engine: &Engine, agg: &HashAggregate) -> bool {
    agg.bound.columnar
        && streamed_scan(&agg.input)
            .and_then(|scan| scan_pool_workers(engine, scan))
            .is_some_and(|workers| workers > 1)
}

/// The scan a `HashAggregate` over `input` streams from without
/// materializing rows: the input itself, or the probe side of a join the
/// planner marked per-bucket.
fn streamed_scan(input: &Plan) -> Option<&SeqScan> {
    match input {
        Plan::SeqScan(scan) => Some(scan),
        Plan::HashJoin { left, bound, .. } if bound.per_bucket => match left.as_ref() {
            Plan::SeqScan(scan) => Some(scan),
            _ => None,
        },
        _ => None,
    }
}

fn render(engine: &Engine, plan: &Plan, depth: usize, out: &mut String) {
    indent(out, depth);
    match plan {
        Plan::Empty { .. } => out.push_str("Result [one empty row]\n"),
        Plan::SeqScan(scan) => {
            out.push_str(&format!("SeqScan {}", scan.table));
            if !scan.binding.eq_ignore_ascii_case(&scan.table) {
                out.push_str(&format!(" AS {}", scan.binding));
            }
            let mut notes: Vec<String> = Vec::new();
            // `cols` lists what a pruned scan materializes (see
            // [`crate::prune`]); a scan of whole rows says nothing.
            let width = engine
                .database()
                .table(&scan.table)
                .map(|t| t.columns.len());
            if width.is_ok_and(|w| !scan.reads_whole_rows(w)) {
                notes.push(format!("cols: {}", scan.schema.names().join(", ")));
            }
            if !scan.residual.is_empty() {
                notes.push(format!("filter: {}", join_exprs(&scan.residual)));
            }
            match (&scan.prune_keys, engine.database().table(&scan.table)) {
                (Some(keys), Ok(table)) => {
                    let total = table.partition_count();
                    let selected = keys.iter().filter(|k| table.partition_len(**k) > 0).count();
                    notes.push(format!(
                        "prune: {} -> {}/{} partitions ({} pruned)",
                        join_exprs(&scan.pruning),
                        selected,
                        total,
                        total.saturating_sub(selected),
                    ));
                }
                (Some(keys), Err(_)) => {
                    notes.push(format!(
                        "prune: {} -> {} key(s)",
                        join_exprs(&scan.pruning),
                        keys.len()
                    ));
                }
                (None, _) => {}
            }
            if !scan.param_pruning.is_empty() {
                notes.push(format!(
                    "prune at bind: {}",
                    join_exprs(&scan.param_pruning)
                ));
            }
            // `vectorized` marks scans over partition buckets: predicates run
            // as column kernels, rows late-materialize. A hybrid scan runs
            // the compiled conjuncts vectorized and interprets the rest on
            // the surviving rows.
            // Rendering runs no statement: constants the compile check
            // evaluates charge a scratch context.
            let compiles_fast = Executor::new(engine, &StmtCtx::new()).scan_compiles_fast(scan);
            if let Ok(table) = engine.database().table(&scan.table) {
                if table.partition_count() > 0 {
                    if compiles_fast {
                        notes.push("vectorized".to_string());
                    } else {
                        notes.push("vectorized: hybrid (interpreted conjunct)".to_string());
                    }
                    // `dict` marks scans over buckets holding at least one
                    // dictionary-encoded column: string predicates on those
                    // columns resolve against the dictionary once and
                    // compare codes, and dictionary group keys group on
                    // codes.
                    if table.dict_column_count() > 0 {
                        notes.push("dict".to_string());
                    }
                }
            }
            // Morsel engagement: the worker pool engages whenever the
            // configured budget allows more than one worker over the scan's
            // morsels. Conjuncts without a kernel form run *hybrid* on the
            // workers, so
            // they no longer force a serial scan. Worker counts are elided
            // (and the `MT_THREADS` execution-time override deliberately
            // ignored) so the rendering stays stable across machines and CI
            // matrix legs.
            if let Some(workers) = scan_pool_workers(engine, scan) {
                if workers > 1 {
                    notes.push("morsel: parallel".to_string());
                } else {
                    notes.push("morsel: off (scan too small)".to_string());
                }
            }
            if !notes.is_empty() {
                out.push_str(&format!(" [{}]", notes.join("; ")));
            }
            out.push('\n');
        }
        Plan::Filter {
            input, predicates, ..
        } => {
            out.push_str(&format!("Filter [{}]\n", join_exprs(predicates)));
            render(engine, input, depth + 1, out);
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
            let keys_text = keys
                .iter()
                .map(|(l, r)| format!("{l} = {r}"))
                .collect::<Vec<_>>()
                .join(" AND ");
            // Plain SQL joins keep the historic `HashJoin Inner`/`Left`
            // rendering; the decorrelated variants get their own labels plus
            // a note on how the build-side key set reaches the probe side.
            let kind_text = match kind {
                JoinVariant::Plain(k) => format!("{k:?}"),
                JoinVariant::Semi => "semi".to_string(),
                JoinVariant::Anti => "anti".to_string(),
                JoinVariant::Single => "agg-join".to_string(),
            };
            out.push_str(&format!("HashJoin {kind_text} [{keys_text}]"));
            if !residual.is_empty() {
                out.push_str(&format!(" [residual: {}]", join_exprs(residual)));
            }
            match kind {
                JoinVariant::Semi => out.push_str(" [bloom: build-key kernel on probe scan]"),
                JoinVariant::Anti | JoinVariant::Single => {
                    out.push_str(" [bloom: build-key set probe]")
                }
                JoinVariant::Plain(_) => {}
            }
            // The aggregate above resolves this join once per partition
            // bucket instead of probing per row.
            if bound.per_bucket {
                out.push_str(" [per-bucket]");
            }
            out.push('\n');
            render(engine, left, depth + 1, out);
            render(engine, right, depth + 1, out);
        }
        Plan::NestedLoopJoin {
            left,
            right,
            predicates,
            kind,
            ..
        } => {
            out.push_str(&format!("NestedLoopJoin {kind:?}"));
            if !predicates.is_empty() {
                out.push_str(&format!(" [{}]", join_exprs(predicates)));
            }
            out.push('\n');
            render(engine, left, depth + 1, out);
            render(engine, right, depth + 1, out);
        }
        Plan::Subquery { input, alias, .. } => {
            out.push_str(&format!("Subquery AS {alias}\n"));
            render(engine, input, depth + 1, out);
        }
        Plan::Project(p) => {
            out.push_str(&format!("Project [{} cols", p.visible_width));
            if p.items.len() > p.visible_width {
                out.push_str(&format!(
                    " + {} hidden sort keys",
                    p.items.len() - p.visible_width
                ));
            }
            if p.distinct {
                out.push_str("; distinct");
            }
            out.push_str("]\n");
            render(engine, &p.input, depth + 1, out);
        }
        Plan::HashAggregate(a) => {
            out.push_str("HashAggregate [");
            if a.group_exprs.is_empty() {
                out.push_str("global");
            } else {
                let group_list = a
                    .group_exprs
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push_str(&format!("group by: {group_list}"));
            }
            out.push_str(&format!("; aggregates: {}", a.aggregates.len()));
            if a.having.is_some() {
                out.push_str("; having");
            }
            if a.distinct {
                out.push_str("; distinct");
            }
            // `morsel partials` marks aggregations whose whole
            // scan→filter→partial-aggregate pipeline runs on the worker
            // pool, partial states merged in morsel order (worker count
            // elided for snapshot stability).
            if aggregate_pools(engine, a) {
                out.push_str("; morsel partials");
            }
            out.push_str("]\n");
            render(engine, &a.input, depth + 1, out);
        }
        Plan::Sort { input, keys, .. } => {
            let names = input.schema().names();
            let keys_text = keys
                .iter()
                .map(|k| {
                    let name = names
                        .get(k.col)
                        .cloned()
                        .unwrap_or_else(|| format!("$hidden{}", k.col - names.len()));
                    format!("{}{}", name, if k.asc { "" } else { " DESC" })
                })
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!("Sort [{keys_text}]\n"));
            render(engine, input, depth + 1, out);
        }
        Plan::Limit { input, limit } => {
            out.push_str(&format!("Limit [{limit}]\n"));
            render(engine, input, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig};

    fn engine() -> Engine {
        let mut e = Engine::new(EngineConfig::default());
        e.create_table("t", &["ttid", "a", "b"]);
        e.set_table_partition("t", "ttid").unwrap();
        e.create_table("u", &["ttid", "a"]);
        e
    }

    fn plan_of(e: &Engine, sql: &str) -> Plan {
        Planner::new(e, &StmtCtx::new())
            .plan_query(&mtsql::parse_query(sql).unwrap())
            .unwrap()
    }

    fn find_scan<'p>(plan: &'p Plan, table: &str) -> Option<&'p SeqScan> {
        match plan {
            Plan::SeqScan(s) => (s.table == table).then_some(s),
            Plan::Empty { .. } => None,
            Plan::Filter { input, .. }
            | Plan::Subquery { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => find_scan(input, table),
            Plan::Project(p) => find_scan(&p.input, table),
            Plan::HashAggregate(a) => find_scan(&a.input, table),
            Plan::HashJoin { left, right, .. } | Plan::NestedLoopJoin { left, right, .. } => {
                find_scan(left, table).or_else(|| find_scan(right, table))
            }
        }
    }

    #[test]
    fn scan_pushdown_and_pruning_keys() {
        let e = engine();
        let plan = plan_of(&e, "SELECT a FROM t WHERE ttid IN (1, 2) AND b > 5");
        let scan = find_scan(&plan, "t").unwrap();

        assert_eq!(scan.pruning.len(), 1);
        assert_eq!(scan.residual.len(), 1);
        assert_eq!(scan.prune_keys, Some([1, 2].into_iter().collect()));
    }

    #[test]
    fn pruning_disabled_keeps_predicates_as_residual() {
        let mut e = Engine::new(EngineConfig {
            partition_pruning: false,
            ..EngineConfig::default()
        });
        e.create_table("t", &["ttid", "a"]);
        e.set_table_partition("t", "ttid").unwrap();
        let plan = plan_of(&e, "SELECT a FROM t WHERE ttid = 1");
        let scan = find_scan(&plan, "t").unwrap();
        assert!(scan.prune_keys.is_none());
        assert_eq!(scan.residual.len(), 1);
    }

    #[test]
    fn conjuncts_transpose_through_derived_projection() {
        let e = engine();
        let plan = plan_of(
            &e,
            "SELECT x.v FROM (SELECT ttid AS tid, a AS v FROM t) AS x WHERE x.tid = 1",
        );
        let scan = find_scan(&plan, "t").unwrap();
        assert_eq!(
            scan.prune_keys,
            Some([1].into_iter().collect()),
            "the outer tid = 1 filter must prune inside the derived table"
        );
    }

    #[test]
    fn transposition_pushes_group_key_filters_only() {
        let e = engine();
        // Group-key filter: pushed below the aggregation.
        let plan = plan_of(
            &e,
            "SELECT g.t FROM (SELECT ttid AS t, SUM(a) AS s FROM t GROUP BY ttid) AS g \
             WHERE g.t = 2",
        );
        let scan = find_scan(&plan, "t").unwrap();
        assert_eq!(scan.prune_keys, Some([2].into_iter().collect()));

        // Aggregate-output filter: must stay above the sub-query.
        let plan = plan_of(
            &e,
            "SELECT g.t FROM (SELECT ttid AS t, SUM(a) AS s FROM t GROUP BY ttid) AS g \
             WHERE g.s > 10",
        );
        let scan = find_scan(&plan, "t").unwrap();
        assert!(scan.nothing_pushed());
    }

    #[test]
    fn transposition_into_fromless_subquery_keeps_filter_above() {
        // The sub-query has no FROM, so there is no conjunct pool to push
        // into; the filter must stay above the materialized single row.
        let e = engine();
        let rs = e
            .query("SELECT x.v FROM (SELECT 1 AS v) AS x WHERE x.v = 2")
            .unwrap();
        assert!(rs.rows.is_empty(), "filter was dropped: {rs:?}");
        let rs = e
            .query("SELECT x.v FROM (SELECT 1 AS v) AS x WHERE x.v = 1")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn having_aggregates_block_transposition() {
        // An aggregate that appears only in HAVING still makes the sub-query
        // a (global) aggregation; pushing the filter below it would change
        // the group the HAVING condition sees.
        let mut e = engine();
        e.insert_values(
            "t",
            [1i64, 2, 2]
                .into_iter()
                .map(|t| {
                    vec![
                        crate::Value::Int(t),
                        crate::Value::Int(0),
                        crate::Value::Int(0),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let rs = e
            .query(
                "SELECT g.t FROM (SELECT ttid AS t FROM t HAVING COUNT(*) > 2) AS g \
                 WHERE g.t = 1",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1, "COUNT(*) must see all 3 rows: {rs:?}");
    }

    #[test]
    fn alias_shadowing_does_not_fool_group_key_check() {
        // `b AS a` shadows the real column `a`, so GROUP BY a actually groups
        // on b (alias substitution). A filter on `orig` (the real a) must NOT
        // be pushed below the aggregation even though the raw GROUP BY list
        // literally contains Column(a).
        let mut e = Engine::new(EngineConfig::default());
        e.create_table("t", &["a", "b"]);
        e.insert_values(
            "t",
            vec![
                vec![crate::Value::Int(1), crate::Value::Int(10)],
                vec![crate::Value::Int(2), crate::Value::Int(10)],
            ],
        )
        .unwrap();
        let unfiltered = e
            .query("SELECT g.orig FROM (SELECT b AS a, a AS orig, COUNT(*) AS c FROM t GROUP BY a) AS g")
            .unwrap();
        let filtered = e
            .query(
                "SELECT g.orig FROM (SELECT b AS a, a AS orig, COUNT(*) AS c FROM t GROUP BY a) AS g \
                 WHERE g.orig = 2",
            )
            .unwrap();
        // Every filtered row must exist in the unfiltered derived output.
        for row in &filtered.rows {
            assert!(
                unfiltered.rows.contains(row),
                "filter manufactured row {row:?}; unfiltered output: {unfiltered:?}"
            );
        }
    }

    #[test]
    fn cast_constants_still_prune() {
        let e = engine();
        let plan = plan_of(&e, "SELECT a FROM t WHERE ttid = CAST('3' AS INTEGER)");
        let scan = find_scan(&plan, "t").unwrap();
        assert_eq!(scan.prune_keys, Some([3].into_iter().collect()));
    }

    #[test]
    fn limit_blocks_transposition() {
        let e = engine();
        let plan = plan_of(
            &e,
            "SELECT x.v FROM (SELECT a AS v FROM t LIMIT 3) AS x WHERE x.v > 1",
        );
        let scan = find_scan(&plan, "t").unwrap();
        assert!(scan.nothing_pushed());
    }

    #[test]
    fn order_by_output_column_needs_no_hidden_keys() {
        let e = engine();
        let plan = plan_of(&e, "SELECT a, b FROM t ORDER BY b DESC");
        let Plan::Sort { keys, prune_to, .. } = &plan else {
            panic!("expected Sort at the top, got {plan:?}");
        };
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].col, 1);
        assert!(!keys[0].asc);
        assert!(prune_to.is_none());
    }

    #[test]
    fn order_by_non_projected_column_adds_hidden_key() {
        let e = engine();
        let plan = plan_of(&e, "SELECT a FROM t ORDER BY b");
        let Plan::Sort {
            keys,
            prune_to,
            input,
        } = &plan
        else {
            panic!("expected Sort at the top, got {plan:?}");
        };
        assert_eq!(keys[0].col, 1);
        assert_eq!(*prune_to, Some(1));
        let Plan::Project(p) = input.as_ref() else {
            panic!("expected Project below Sort");
        };
        assert_eq!(p.items.len(), 2);
        assert_eq!(p.visible_width, 1);
    }

    #[test]
    fn equi_join_becomes_hash_join() {
        let e = engine();
        let plan = plan_of(
            &e,
            "SELECT t.a FROM t, u WHERE t.a = u.a AND t.ttid = u.ttid",
        );
        fn has_hash_join(p: &Plan) -> bool {
            match p {
                Plan::HashJoin { .. } => true,
                Plan::Filter { input, .. }
                | Plan::Subquery { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Limit { input, .. } => has_hash_join(input),
                Plan::Project(p) => has_hash_join(&p.input),
                Plan::HashAggregate(a) => has_hash_join(&a.input),
                _ => false,
            }
        }
        assert!(has_hash_join(&plan));
    }

    #[test]
    fn fromless_select_applies_constant_where() {
        let e = engine();
        assert!(e.query("SELECT 1 WHERE 1 = 0").unwrap().rows.is_empty());
        assert_eq!(e.query("SELECT 1 WHERE 1 = 1").unwrap().rows.len(), 1);
    }

    #[test]
    fn aliases_substitute_inside_composite_expressions() {
        let mut e = engine();
        e.insert_values(
            "t",
            (0..3)
                .map(|i| {
                    vec![
                        crate::Value::Int(i),
                        crate::Value::Int(i * 10),
                        crate::Value::Int(0),
                    ]
                })
                .collect(),
        )
        .unwrap();
        // Alias used inside BETWEEN in HAVING.
        let rs = e
            .query("SELECT ttid, SUM(a) AS s FROM t GROUP BY ttid HAVING s BETWEEN 5 AND 100")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        // Alias used inside CASE in ORDER BY.
        let rs = e
            .query("SELECT a AS v FROM t ORDER BY CASE WHEN v > 5 THEN 0 ELSE 1 END, v")
            .unwrap();
        assert_eq!(rs.rows[0][0], crate::Value::Int(10));
    }

    #[test]
    fn alias_substitution() {
        let aliases: HashMap<String, Expr> = [(
            "revenue".to_string(),
            mtsql::parse_expression("SUM(l_extendedprice)").unwrap(),
        )]
        .into_iter()
        .collect();
        let e = mtsql::parse_expression("revenue").unwrap();
        let s = substitute_aliases(&e, &aliases);
        assert!(matches!(s, Expr::Function(_)));
    }

    #[test]
    fn explain_reports_morsel_engagement_only_when_the_scan_would_pool() {
        let mut e = Engine::new(EngineConfig::default().with_parallel_scan(4));
        e.create_table("big", &["ttid", "v"]);
        e.insert_values(
            "big",
            (0..16384)
                .map(|i| vec![crate::Value::Int(i % 4), crate::Value::Int(i)])
                .collect(),
        )
        .unwrap();
        e.set_table_partition("big", "ttid").unwrap();
        let plan = plan_of(&e, "SELECT v FROM big WHERE v >= 0");
        let text = explain(&e, &plan);
        assert!(text.contains("morsel: parallel"), "{text}");

        // Residual conjuncts without a kernel form run hybrid on the workers —
        // they no longer force a serial scan.
        let plan = plan_of(&e, "SELECT v FROM big WHERE v + 0 >= 0");
        let text = explain(&e, &plan);
        assert!(text.contains("morsel: parallel"), "{text}");

        // An aggregate over a pool-sized scan advertises partial-state
        // merging; worker counts are elided everywhere for golden stability.
        let plan = plan_of(&e, "SELECT SUM(v) FROM big WHERE v >= 0");
        let text = explain(&e, &plan);
        assert!(text.contains("morsel partials"), "{text}");
        assert!(!text.contains("workers"), "{text}");

        // A scoped scan below the row threshold must say so instead.
        let plan = plan_of(&e, "SELECT v FROM big WHERE ttid = 1 AND v >= 0");
        let text = explain(&e, &plan);
        assert!(text.contains("morsel: off (scan too small)"), "{text}");
    }

    #[test]
    fn explain_renders_scan_pruning() {
        let mut e = engine();
        e.insert_values(
            "t",
            (0..3)
                .map(|t| {
                    vec![
                        crate::Value::Int(t),
                        crate::Value::Int(t * 10),
                        crate::Value::Int(0),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let plan = plan_of(&e, "SELECT a FROM t WHERE ttid = 1 AND b < 5");
        let text = explain(&e, &plan);
        assert!(text.contains("SeqScan t"), "{text}");
        assert!(text.contains("1/3 partitions (2 pruned)"), "{text}");
        assert!(text.contains("filter: (b < 5)"), "{text}");
    }
}
