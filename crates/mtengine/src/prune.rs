//! Column pruning: every scan of a partitioned table materializes only the
//! columns its plan reads.
//!
//! A bucket stores one typed array per column, so building a row costs one
//! value per *projected* column — a scan that hands `orders` rows to a join
//! keyed on `o_custkey` need not decode `o_comment`. After
//! [`crate::plan::Planner::bind`] has turned every expression into slots,
//! `prune_scans` walks the plan top-down with the set of output columns
//! each operator's parent reads, adds what the operator's own expressions
//! read, and at a scan keeps exactly those plus the columns of its pushed
//! conjuncts (loose rows re-check them). The scan's
//! [`projection`](crate::plan::SeqScan::projection) and schema narrow, and on
//! the way back up every bound slot above it is remapped — the operators'
//! own input slots, and the `Slot::Outer` slots of correlated sub-plans that
//! reach the operator's input row, at whatever sub-query depth they sit.
//!
//! Two kinds of scan keep every column (the identity projection): scans of
//! unpartitioned tables, whose loose rows are shared with the table rather
//! than built, and scans a streaming `HashAggregate` reads in place —
//! directly or as the probe side of a per-bucket join — which never build a
//! row at all.

use std::sync::Arc;

use crate::bound::{BoundAggregate, BoundExpr, Slot};
use crate::plan::{JoinVariant, Plan, SeqScan};
use crate::Engine;

/// Per output column of an operator: does anything read it?
type Need = Vec<bool>;

/// Per old output column of an operator: its new position, `None` when it
/// was pruned away.
type Remap = Vec<Option<usize>>;

/// Narrow the plan's scans to the columns it reads and remap every bound
/// slot above them. The plan's own output is kept whole.
pub(crate) fn prune_scans(engine: &Engine, plan: &mut Plan) {
    let width = row_width(plan);
    prune(engine, plan, vec![true; width]);
}

/// The width of the rows an operator produces: projection heads carry their
/// hidden ORDER BY keys behind the visible columns.
fn row_width(plan: &Plan) -> usize {
    match plan {
        Plan::Project(p) => p.bound.len(),
        Plan::HashAggregate(a) => a.bound.items.len(),
        other => other.schema().len(),
    }
}

fn identity(width: usize) -> Remap {
    (0..width).map(Some).collect()
}

/// Prune `plan` for a parent reading its output columns `need`; returns
/// where each old output column went.
fn prune(engine: &Engine, plan: &mut Plan, mut need: Need) -> Remap {
    match plan {
        Plan::Empty { .. } => Vec::new(),
        Plan::SeqScan(scan) => prune_scan(engine, scan, need),
        Plan::Filter { input, bound, .. } => {
            mark_all(bound.iter_mut(), &mut need);
            let remap = prune(engine, input, need);
            apply_all(bound.iter_mut(), &remap);
            remap
        }
        Plan::HashJoin {
            left,
            right,
            kind,
            schema,
            bound,
            ..
        } => {
            // A plain join emits the joined row, the filtering variants the
            // probe row; the residual reads the joined row either way.
            let left_width = left.schema().len();
            need.resize(left_width + right.schema().len(), false);
            mark_all(&mut bound.residual, &mut need);
            let mut need_right = need.split_off(left_width);
            let mut need_left = need;
            for (probe, build) in &mut bound.keys {
                mark(probe, &mut need_left);
                mark(build, &mut need_right);
            }
            let (left_map, right_map) = (
                prune(engine, left, need_left),
                prune(engine, right, need_right),
            );
            for (probe, build) in &mut bound.keys {
                apply(probe, &left_map);
                apply(build, &right_map);
            }
            let joined_map = concat(&left_map, &right_map, left.schema().len());
            apply_all(&mut bound.residual, &joined_map);
            match kind {
                JoinVariant::Plain(_) => {
                    *schema = left.schema().concat(right.schema());
                    joined_map
                }
                _ => {
                    *schema = left.schema().clone();
                    left_map
                }
            }
        }
        Plan::NestedLoopJoin {
            left,
            right,
            schema,
            bound,
            ..
        } => {
            let left_width = left.schema().len();
            need.resize(left_width + right.schema().len(), false);
            mark_all(bound.iter_mut(), &mut need);
            let need_right = need.split_off(left_width);
            let left_map = prune(engine, left, need);
            let right_map = prune(engine, right, need_right);
            let joined_map = concat(&left_map, &right_map, left.schema().len());
            apply_all(bound.iter_mut(), &joined_map);
            *schema = left.schema().concat(right.schema());
            joined_map
        }
        Plan::Subquery { input, schema, .. } => {
            let remap = prune(engine, input, need);
            let survived: Need = remap.iter().map(Option::is_some).collect();
            schema.cols = kept(std::mem::take(&mut schema.cols), &survived);
            remap
        }
        Plan::Project(p) => {
            let mut need = vec![false; row_width(&p.input)];
            mark_all(&mut p.bound, &mut need);
            let remap = prune(engine, &mut p.input, need);
            apply_all(&mut p.bound, &remap);
            identity(p.bound.len())
        }
        Plan::HashAggregate(a) => {
            // A streamed input is read in place, never built: keep it whole.
            let streamed = match a.input.as_ref() {
                Plan::SeqScan(_) => a.bound.columnar,
                Plan::HashJoin { bound, .. } => bound.per_bucket,
                _ => false,
            };
            let mut need = vec![streamed; row_width(&a.input)];
            mark_all(aggregate_exprs(&mut a.bound), &mut need);
            let remap = prune(engine, &mut a.input, need);
            apply_all(aggregate_exprs(&mut a.bound), &remap);
            identity(a.bound.items.len())
        }
        Plan::Sort { input, .. } => {
            // Sort keys index the projection head's rows, hidden keys and
            // all; heads are never narrowed.
            let width = input.schema().len();
            prune(engine, input, vec![true; row_width(input)]);
            identity(width)
        }
        Plan::Limit { input, .. } => prune(engine, input, need),
    }
}

/// Narrow one scan to `need` plus its pushed conjuncts' columns.
fn prune_scan(engine: &Engine, scan: &mut SeqScan, mut need: Need) -> Remap {
    let width = scan.schema.len();
    let partitioned = engine
        .database()
        .table(&scan.table)
        .is_ok_and(|t| t.partition_column().is_some());
    if !partitioned {
        return identity(width);
    }
    let conjuncts = &mut scan.bound;
    need.resize(width, false);
    mark_all(&mut conjuncts.pruning, &mut need);
    mark_all(&mut conjuncts.residual, &mut need);
    if need.iter().all(|&n| n) {
        return identity(width);
    }
    let mut next = 0;
    let remap: Remap = need
        .iter()
        .map(|&n| {
            n.then(|| {
                next += 1;
                next - 1
            })
        })
        .collect();
    scan.projection = kept(std::mem::take(&mut scan.projection), &need);
    scan.schema.cols = kept(std::mem::take(&mut scan.schema.cols), &need);
    apply_all(&mut conjuncts.pruning, &remap);
    apply_all(&mut conjuncts.residual, &remap);
    remap
}

/// The items whose `need` entry is set, in order.
fn kept<T>(items: Vec<T>, need: &[bool]) -> Vec<T> {
    let keep = need.iter().copied();
    items
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(item, _)| item)
        .collect()
}

/// The joined row's remap: the left side's, then the right side's shifted
/// behind the new left width.
fn concat(left: &Remap, right: &Remap, new_left_width: usize) -> Remap {
    let right = right.iter().map(|m| m.map(|j| j + new_left_width));
    left.iter().copied().chain(right).collect()
}

/// Visit every slot of `expr` that reads the row of the operator holding
/// it: its `Input` slots, and inside sub-plans (`level` sub-query
/// boundaries deep) the `Outer` slots reaching exactly that far out.
fn input_slots(expr: &mut BoundExpr, level: usize, f: &mut dyn FnMut(&mut usize)) {
    match expr {
        BoundExpr::Slot(Slot::Input(i)) if level == 0 => f(i),
        BoundExpr::Slot(Slot::Outer { depth, index }) if *depth + 1 == level => f(index),
        BoundExpr::Subquery { plan, .. } => {
            each_bound_expr(Arc::make_mut(plan), &mut |e| input_slots(e, level + 1, f))
        }
        _ => {}
    }
    expr.for_each_operand_mut(&mut |e| input_slots(e, level, f));
}

fn mark(expr: &mut BoundExpr, need: &mut Need) {
    input_slots(expr, 0, &mut |i| {
        if let Some(n) = need.get_mut(*i) {
            *n = true;
        }
    });
}

fn mark_all<'e>(exprs: impl IntoIterator<Item = &'e mut BoundExpr>, need: &mut Need) {
    exprs.into_iter().for_each(|e| mark(e, need));
}

/// Move every input slot of `expr` to its column's new position. Every
/// slot was marked before its input was pruned, so its column survived.
pub(crate) fn apply(expr: &mut BoundExpr, remap: &Remap) {
    input_slots(expr, 0, &mut |i| {
        if let Some(Some(to)) = remap.get(*i) {
            *i = *to;
        }
    });
}

fn apply_all<'e>(exprs: impl IntoIterator<Item = &'e mut BoundExpr>, remap: &Remap) {
    exprs.into_iter().for_each(|e| apply(e, remap));
}

/// Visit every bound expression of every operator of `plan`.
fn each_bound_expr(plan: &mut Plan, f: &mut dyn FnMut(&mut BoundExpr)) {
    match plan {
        Plan::Empty { .. } => {}
        Plan::SeqScan(scan) => {
            let conjuncts = &mut scan.bound;
            conjuncts
                .pruning
                .iter_mut()
                .chain(&mut conjuncts.residual)
                .for_each(f)
        }
        Plan::Filter { input, bound, .. } => {
            bound.iter_mut().for_each(&mut *f);
            each_bound_expr(input, f);
        }
        Plan::HashJoin {
            left, right, bound, ..
        } => {
            for (probe, build) in &mut bound.keys {
                f(probe);
                f(build);
            }
            bound.residual.iter_mut().for_each(&mut *f);
            each_bound_expr(left, f);
            each_bound_expr(right, f);
        }
        Plan::NestedLoopJoin {
            left, right, bound, ..
        } => {
            bound.iter_mut().for_each(&mut *f);
            each_bound_expr(left, f);
            each_bound_expr(right, f);
        }
        Plan::Subquery { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            each_bound_expr(input, f)
        }
        Plan::Project(p) => {
            p.bound.iter_mut().for_each(&mut *f);
            each_bound_expr(&mut p.input, f);
        }
        Plan::HashAggregate(a) => {
            aggregate_exprs(&mut a.bound).for_each(&mut *f);
            each_bound_expr(&mut a.input, f);
        }
    }
}

/// Every bound expression of an aggregate: keys, arguments, HAVING, items.
fn aggregate_exprs(spec: &mut BoundAggregate) -> impl Iterator<Item = &mut BoundExpr> {
    spec.keys
        .iter_mut()
        .chain(&mut spec.args)
        .chain(&mut spec.having)
        .chain(&mut spec.items)
}

#[cfg(test)]
mod tests {
    use crate::plan::{Plan, SeqScan};
    use crate::{Engine, EngineConfig, Value};

    fn scan_of(plan: &Plan) -> &SeqScan {
        match plan {
            Plan::SeqScan(scan) => scan,
            Plan::Project(p) => scan_of(&p.input),
            Plan::Filter { input, .. } | Plan::Sort { input, .. } => scan_of(input),
            other => panic!("unexpected operator {other:?}"),
        }
    }

    /// The partition column need not come first: pruning conjuncts,
    /// bind-time pruning and the verifier resolve it through the
    /// projection, not by its table position.
    #[test]
    fn partition_column_resolves_through_the_projection() {
        let mut e = Engine::new(EngineConfig::default().with_verify_plans());
        e.create_table("t", &["a", "ttid", "b"]);
        e.set_table_partition("t", "ttid").unwrap();
        let rows = (0..30).map(|i| vec![Value::Int(i), Value::Int(i % 3), Value::Int(i * 10)]);
        e.insert_values("t", rows.collect()).unwrap();
        let plan = |sql: &str| e.plan_query(&mtsql::parse_query(sql).unwrap()).unwrap();

        let pruned = plan("SELECT b FROM t WHERE ttid = 1 AND b > 100 ORDER BY b");
        assert_eq!(scan_of(&pruned).projection, vec![1, 2]);
        crate::verify::verify_plan(&e, &pruned).unwrap();
        let rs = e.execute_plan(&pruned, &[]).unwrap();
        let expected: Vec<Vec<Value>> = [130, 160, 190, 220, 250, 280]
            .map(|b| vec![Value::Int(b)])
            .to_vec();
        assert_eq!(rs.rows, expected);

        let bound = plan("SELECT b FROM t WHERE ttid = $1 ORDER BY b");
        assert_eq!(scan_of(&bound).projection, vec![1, 2]);
        e.reset_stats();
        let rs = e.execute_plan(&bound, &[Value::Int(2)]).unwrap();
        assert_eq!(rs.rows.len(), 10);
        assert_eq!(e.stats().partitions_pruned, 2, "{:?}", e.stats());
    }
}
