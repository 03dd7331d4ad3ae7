//! Sub-query decorrelation: rewriting correlated sub-query conjuncts into
//! join variants of [`Plan::HashJoin`] at plan time.
//!
//! The planner's FROM/WHERE lowering leaves sub-query-bearing conjuncts in
//! the residual pool (they never push into scans or joins); without this
//! module they end up in a [`Plan::Filter`] whose correlated sub-plans the
//! executor runs *per outer row* — a correlated `EXISTS` over `orders`
//! rescans the orders table once per `customer` row. With
//! [`crate::EngineConfig::decorrelation`] on (the default), two rewrite
//! rules turn those conjuncts into set-at-a-time joins:
//!
//! * **`[NOT] EXISTS`** with equi-correlation only becomes a
//!   [`JoinVariant::Semi`] / [`JoinVariant::Anti`] join: the build side
//!   projects the inner key expressions under synthetic aliases
//!   (`$k0`, `$k1`, ...) with the inner-only conjuncts — including `ttid`
//!   D-filters, which therefore keep pruning partitions — as its WHERE
//!   clause, and the probe side filters by build-key membership.
//! * A comparison against a **correlated scalar aggregate**
//!   (`l_quantity < (SELECT 0.2 * AVG(l_quantity) FROM lineitem WHERE
//!   l_partkey = p_partkey)`) becomes a [`JoinVariant::Single`] join: the
//!   build side groups by the inner key expressions and computes the
//!   aggregate projection once per key (`$agg`), and the comparison is
//!   re-evaluated per probe row against the looked-up (or NULL-extended)
//!   aggregate.
//!
//! Both rules are *conservative*: any shape whose set-at-a-time equivalent
//! is not provably identical to the per-row sub-plan bails and keeps the
//! correlated filter. In particular a rewrite requires:
//!
//! * every inner FROM item is a plain base table (no views, derived tables
//!   or explicit joins), so inner resolvability is decidable without
//!   planning;
//! * no nested sub-queries inside the inner WHERE or projection;
//! * every non-local inner conjunct is an equality with one side resolvable
//!   against the inner schema and the other against the probe schema —
//!   non-equi correlation (Q21's `l2.l_suppkey <> l1.l_suppkey`) bails;
//! * at least one correlation key — an uncorrelated sub-plan runs once per
//!   executor anyway;
//! * for the aggregate rule: a single projection item whose columns all sit
//!   inside `SUM`/`AVG`/`MIN`/`MAX` arguments. `COUNT` bails — it folds to
//!   `0` over an empty inner set while a join miss NULL-extends, and
//!   `0 != NULL`.
//!
//! NULL semantics line up by construction: build rows with a NULL key are
//! skipped (a NULL key equals nothing, so the per-row inner set never
//! contains them), a NULL probe key matches nothing (`Semi` drops the row,
//! `Anti` keeps it), and a `Single` miss NULL-extends so the rewritten
//! comparison evaluates against NULL aggregates — not-true, exactly like
//! the per-row aggregate over an empty inner set.

use mtsql::ast::*;
use mtsql::visit::{collect_aggregate_calls, contains_subquery, split_conjuncts};

use crate::conjuncts::expr_resolvable;
use crate::error::Result;
use crate::plan::{JoinVariant, Plan, Planner};
use crate::schema::Schema;

/// Synthetic build-side alias of correlation key `i`. `$` keeps the names
/// out of the identifier space real queries can reach.
fn key_alias(i: usize) -> String {
    format!("$k{i}")
}

/// Synthetic build-side alias of the hoisted aggregate projection.
const AGG_ALIAS: &str = "$agg";

/// One successful rewrite: the planned build side plus the join shape to
/// wrap around the current probe plan.
struct Rewrite {
    build: Plan,
    /// `(probe key, build key)` pairs; build keys reference the `$k{i}`
    /// aliases of the build projection.
    keys: Vec<(Expr, Expr)>,
    /// The rewritten scalar comparison for [`JoinVariant::Single`]; empty
    /// for semi/anti joins.
    residual: Vec<Expr>,
    variant: JoinVariant,
}

/// The inner WHERE clause split against the (inner, probe) schema pair:
/// inner-only conjuncts stay local to the build side, equalities across the
/// boundary become join keys.
struct InnerSplit {
    locals: Vec<Expr>,
    /// `(probe-side expression, inner-side expression)` pairs.
    keys: Vec<(Expr, Expr)>,
}

fn split_correlation(
    select: &Select,
    inner_schema: &Schema,
    probe_schema: &Schema,
) -> Option<InnerSplit> {
    let mut conjuncts = Vec::new();
    if let Some(sel) = &select.selection {
        split_conjuncts(sel, &mut conjuncts);
    }
    let mut locals = Vec::new();
    let mut keys = Vec::new();
    for c in conjuncts {
        if contains_subquery(&c) {
            // Nested sub-queries may reference scopes the hoisted build side
            // no longer sees; keep the whole predicate a per-row sub-plan.
            return None;
        }
        if expr_resolvable(&c, inner_schema) {
            // Fully inner conjuncts (including `ttid IN (...)` D-filters)
            // stay in the build side's WHERE clause, where the planner
            // pushes them into the build scans — partition pruning fires
            // inside the unnested pipeline.
            locals.push(c);
            continue;
        }
        // Everything else must be an equi-correlation: one side inner, the
        // other probe. Inner resolution is checked first on each side,
        // mirroring how the executor's environment chain shadows outer
        // scopes (a side resolvable against *both* schemas is inner).
        let Expr::BinaryOp {
            left,
            op: BinaryOperator::Eq,
            right,
        } = &c
        else {
            return None;
        };
        if expr_resolvable(left, inner_schema) && expr_resolvable(right, probe_schema) {
            keys.push(((**right).clone(), (**left).clone()));
        } else if expr_resolvable(right, inner_schema) && expr_resolvable(left, probe_schema) {
            keys.push(((**left).clone(), (**right).clone()));
        } else {
            return None;
        }
    }
    if keys.is_empty() {
        // Uncorrelated: the sub-plan already runs once per executor.
        return None;
    }
    Some(InnerSplit { locals, keys })
}

/// `true` when a column reference appears outside every aggregate argument —
/// such a projection varies per inner row even within one key group, so the
/// aggregate rule cannot hoist it. Sub-query variants count as "outside"
/// (callers exclude them beforehand; this stays conservative regardless).
fn columns_outside_aggregates(expr: &Expr) -> bool {
    match expr {
        Expr::Column(_) => true,
        Expr::Literal(_) | Expr::Param(_) => false,
        Expr::Function(f) if f.is_aggregate() => false,
        Expr::Function(f) => f.args.iter().any(columns_outside_aggregates),
        Expr::BinaryOp { left, right, .. } => {
            columns_outside_aggregates(left) || columns_outside_aggregates(right)
        }
        Expr::UnaryOp { expr, .. }
        | Expr::IsNull { expr, .. }
        | Expr::Extract { expr, .. }
        | Expr::Cast { expr, .. } => columns_outside_aggregates(expr),
        Expr::Case {
            operand,
            when_then,
            else_expr,
        } => {
            operand.as_deref().is_some_and(columns_outside_aggregates)
                || when_then
                    .iter()
                    .any(|(w, t)| columns_outside_aggregates(w) || columns_outside_aggregates(t))
                || else_expr.as_deref().is_some_and(columns_outside_aggregates)
        }
        Expr::InList { expr, list, .. } => {
            columns_outside_aggregates(expr) || list.iter().any(columns_outside_aggregates)
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            columns_outside_aggregates(expr)
                || columns_outside_aggregates(low)
                || columns_outside_aggregates(high)
        }
        Expr::Like { expr, pattern, .. } => {
            columns_outside_aggregates(expr) || columns_outside_aggregates(pattern)
        }
        Expr::Substring {
            expr,
            start,
            length,
        } => {
            columns_outside_aggregates(expr)
                || columns_outside_aggregates(start)
                || length.as_deref().is_some_and(columns_outside_aggregates)
        }
        Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_) => true,
    }
}

impl<'e> Planner<'e> {
    /// Try to rewrite each residual conjunct into a join over `current`;
    /// conjuncts that do not match a rewrite rule are returned for the
    /// [`Plan::Filter`]. Joins are stacked in conjunct order —
    /// each variant emits probe rows unchanged and in order, so the stack
    /// filters exactly like the conjunction it replaces.
    pub(crate) fn decorrelate_conjuncts(
        &self,
        current: &mut Plan,
        conjuncts: Vec<Expr>,
    ) -> Result<Vec<Expr>> {
        let mut kept = Vec::new();
        for c in conjuncts {
            match self.try_decorrelate(current, &c)? {
                Some(rw) => {
                    let left = std::mem::replace(
                        current,
                        Plan::Empty {
                            schema: Schema::new(),
                        },
                    );
                    let schema = left.schema().clone();
                    *current =
                        Plan::hash_join(left, rw.build, rw.keys, rw.residual, rw.variant, schema);
                }
                None => kept.push(c),
            }
        }
        Ok(kept)
    }

    fn try_decorrelate(&self, current: &Plan, conjunct: &Expr) -> Result<Option<Rewrite>> {
        match conjunct {
            Expr::Exists { query, negated } => self.decorrelate_exists(current, query, *negated),
            Expr::BinaryOp { left, op, right } if op.is_comparison() => {
                if let Expr::ScalarSubquery(q) = &**left {
                    self.decorrelate_scalar_agg(current, q, *op, right, true)
                } else if let Expr::ScalarSubquery(q) = &**right {
                    self.decorrelate_scalar_agg(current, q, *op, left, false)
                } else {
                    Ok(None)
                }
            }
            _ => Ok(None),
        }
    }

    /// Combined schema of an inner FROM list made only of plain base tables;
    /// `None` bails the rewrite for any other FROM shape.
    fn inner_from_schema(&self, from: &[TableRef]) -> Option<Schema> {
        let mut schema = Schema::new();
        if from.is_empty() {
            return None;
        }
        for item in from {
            schema = schema.concat(&self.base_table_schema(item)?);
        }
        Some(schema)
    }

    /// `[NOT] EXISTS (SELECT ... WHERE inner-locals AND equi-correlation)` →
    /// semi/anti join against a build side projecting the inner keys.
    fn decorrelate_exists(
        &self,
        current: &Plan,
        query: &Query,
        negated: bool,
    ) -> Result<Option<Rewrite>> {
        let select = &query.body;
        if query.limit.is_some() || !select.group_by.is_empty() || select.having.is_some() {
            return Ok(None);
        }
        // A projection aggregate makes the inner block a one-row group
        // (EXISTS is then unconditionally true); leave that to the
        // sub-plan.
        let mut aggs = Vec::new();
        for item in &select.projection {
            if let SelectItem::Expr { expr, .. } = item {
                collect_aggregate_calls(expr, &mut aggs);
            }
        }
        if !aggs.is_empty() {
            return Ok(None);
        }
        let Some(inner_schema) = self.inner_from_schema(&select.from) else {
            return Ok(None);
        };
        let Some(split) = split_correlation(select, &inner_schema, current.schema()) else {
            return Ok(None);
        };
        let projection = split
            .keys
            .iter()
            .enumerate()
            .map(|(i, (_, inner))| SelectItem::aliased(inner.clone(), key_alias(i)))
            .collect();
        let build_query = Query {
            body: Select {
                distinct: false,
                projection,
                from: select.from.clone(),
                selection: Expr::conjunction(split.locals.clone()),
                group_by: Vec::new(),
                having: None,
            },
            order_by: Vec::new(),
            limit: None,
        };
        let Ok(build) = self.plan(&build_query, Vec::new()) else {
            return Ok(None);
        };
        let keys = join_keys(&split);
        Ok(Some(Rewrite {
            build,
            keys,
            residual: Vec::new(),
            variant: if negated {
                JoinVariant::Anti
            } else {
                JoinVariant::Semi
            },
        }))
    }

    /// `other <cmp> (SELECT agg(...) ... WHERE inner-locals AND
    /// equi-correlation)` → aggregate join: the build side groups the inner
    /// rows by the correlation keys and the comparison re-evaluates per
    /// probe row against the per-key aggregate (`$agg`).
    fn decorrelate_scalar_agg(
        &self,
        current: &Plan,
        query: &Query,
        op: BinaryOperator,
        other: &Expr,
        subquery_on_left: bool,
    ) -> Result<Option<Rewrite>> {
        if contains_subquery(other) || !expr_resolvable(other, current.schema()) {
            return Ok(None);
        }
        let select = &query.body;
        if query.limit.is_some()
            || !query.order_by.is_empty()
            || !select.group_by.is_empty()
            || select.having.is_some()
            || select.distinct
        {
            return Ok(None);
        }
        let [SelectItem::Expr { expr: proj, .. }] = select.projection.as_slice() else {
            return Ok(None);
        };
        if contains_subquery(proj) || columns_outside_aggregates(proj) {
            return Ok(None);
        }
        let mut aggs = Vec::new();
        collect_aggregate_calls(proj, &mut aggs);
        if aggs.is_empty() || aggs.iter().any(|a| a.name.eq_ignore_ascii_case("COUNT")) {
            return Ok(None);
        }
        let Some(inner_schema) = self.inner_from_schema(&select.from) else {
            return Ok(None);
        };
        // Aggregate arguments must be inner-only: an outer column inside an
        // argument makes the aggregate vary per probe row.
        if !expr_resolvable(proj, &inner_schema) {
            return Ok(None);
        }
        let Some(split) = split_correlation(select, &inner_schema, current.schema()) else {
            return Ok(None);
        };
        let mut projection: Vec<SelectItem> = split
            .keys
            .iter()
            .enumerate()
            .map(|(i, (_, inner))| SelectItem::aliased(inner.clone(), key_alias(i)))
            .collect();
        projection.push(SelectItem::aliased(proj.clone(), AGG_ALIAS));
        let group_by = split.keys.iter().map(|(_, inner)| inner.clone()).collect();
        let build_query = Query {
            body: Select {
                distinct: false,
                projection,
                from: select.from.clone(),
                selection: Expr::conjunction(split.locals.clone()),
                group_by,
                having: None,
            },
            order_by: Vec::new(),
            limit: None,
        };
        let Ok(build) = self.plan(&build_query, Vec::new()) else {
            return Ok(None);
        };
        let keys = join_keys(&split);
        let agg_col = Expr::col(AGG_ALIAS);
        let rewritten = if subquery_on_left {
            Expr::binary(agg_col, op, other.clone())
        } else {
            Expr::binary(other.clone(), op, agg_col)
        };
        Ok(Some(Rewrite {
            build,
            keys,
            residual: vec![rewritten],
            variant: JoinVariant::Single,
        }))
    }
}

/// Join keys of the rewritten node: probe expressions against the `$k{i}`
/// aliases of the build projection.
fn join_keys(split: &InnerSplit) -> Vec<(Expr, Expr)> {
    split
        .keys
        .iter()
        .enumerate()
        .map(|(i, (probe, _))| (probe.clone(), Expr::col(key_alias(i))))
        .collect()
}
