//! Mutation tests for the static plan verifier (PR 9), through the public
//! API: deliberately corrupt physical plans — one per defect class the
//! verifier guards against — and assert each is *rejected before execution*
//! with the right [`PlanErrorClass`], while the uncorrupted plan both
//! verifies and executes. A verifier that accepts corrupt plans would let a
//! planner regression ship wrong results; one that rejects clean plans would
//! brick every query — both directions are pinned here.

use std::collections::BTreeSet;

use mtengine::bound::{BoundAggregate, BoundExpr, Slot};
use mtengine::plan::{BoundJoin, JoinVariant, Plan, Planner, SeqScan, SortKey};
use mtengine::schema::Schema;
use mtengine::verify::{self, VerifyOptions};
use mtengine::{Engine, EngineConfig, PlanErrorClass, Value};

/// A small partitioned two-table engine: `t(ttid, a, s)` partitioned by
/// `ttid` with an Int `a` and a Str `s`, and an unpartitioned `u(k, v)`.
fn engine() -> Engine {
    let mut e = Engine::new(EngineConfig::default().with_verify_plans());
    e.create_table("t", &["ttid", "a", "s"]);
    e.set_table_partition("t", "ttid").expect("partition t");
    e.insert_values(
        "t",
        vec![
            vec![Value::Int(1), Value::Int(10), Value::str("x")],
            vec![Value::Int(2), Value::Int(20), Value::str("y")],
        ],
    )
    .expect("load t");
    e.create_table("u", &["k", "v"]);
    e.insert_values("u", vec![vec![Value::Int(1), Value::str("z")]])
        .expect("load u");
    e
}

fn plan_of(engine: &Engine, sql: &str) -> Plan {
    engine
        .plan_query(&mtsql::parse_query(sql).expect("query parses"))
        .expect("query plans")
}

fn expr(sql: &str) -> mtsql::Expr {
    mtsql::parse_expression(sql).expect("expression parses")
}

/// A hand-assembled hash join, bound like the planner would bind it.
#[allow(clippy::too_many_arguments)]
fn hash_join(
    engine: &Engine,
    left: Plan,
    right: Plan,
    keys: Vec<(mtsql::Expr, mtsql::Expr)>,
    residual: Vec<mtsql::Expr>,
    kind: JoinVariant,
    schema: Schema,
) -> Plan {
    let mut plan = Plan::hash_join(left, right, keys, residual, kind, schema);
    Planner::new(engine, &mtengine::stats::StmtCtx::new())
        .bind(&mut plan)
        .expect("hand-built join binds");
    plan
}

/// Apply `f` to the first scan in the plan.
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
    f(find(plan).expect("plan contains a scan"))
}

/// The class of the rejection, both from the direct verifier entry point and
/// from the execution path (which must refuse to run the corrupt plan).
fn rejection(engine: &Engine, plan: &Plan) -> PlanErrorClass {
    let direct = verify::verify_plan(engine, plan).expect_err("verifier must reject");
    let executed = engine
        .execute_plan(plan, &[])
        .expect_err("execution must refuse a corrupt plan");
    assert_eq!(
        executed.kind(),
        mtengine::EngineErrorKind::Plan,
        "execution-path rejection must carry the Plan error kind: {executed}"
    );
    direct.class
}

#[test]
fn defect_bad_column_reference_in_pushed_conjunct() {
    let e = engine();
    let mut plan = plan_of(&e, "SELECT a FROM t WHERE a > 5");
    mutate_scan(&mut plan, |scan| {
        scan.residual = vec![expr("no_such_column > 5")];
    });
    assert_eq!(rejection(&e, &plan), PlanErrorClass::Column);
}

#[test]
fn defect_scan_schema_arity_mismatch() {
    let e = engine();
    let mut plan = plan_of(&e, "SELECT a FROM t");
    mutate_scan(&mut plan, |scan| {
        scan.schema = Schema::qualified("t", &["ttid".into(), "a".into()]);
    });
    assert_eq!(rejection(&e, &plan), PlanErrorClass::Schema);
}

/// A scan's projection names one distinct, in-range table column per scan
/// schema column: each way of breaking that is rejected with its own class.
#[test]
fn defect_scan_projection() {
    let e = engine();
    let plan = plan_of(&e, "SELECT a, s FROM t WHERE a > 5");
    let mut projection = None;
    let mut probe = plan.clone();
    mutate_scan(&mut probe, |scan| {
        projection = Some(scan.projection.clone())
    });
    assert_eq!(
        projection,
        Some(vec![1, 2]),
        "the scan reads `a` and `s` only"
    );
    for (defect, projection, class) in [
        ("duplicate column", vec![1, 1], PlanErrorClass::Schema),
        ("out-of-range column", vec![1, 9], PlanErrorClass::Bounds),
        ("width mismatch", vec![1], PlanErrorClass::Schema),
    ] {
        let mut plan = plan.clone();
        mutate_scan(&mut plan, |scan| scan.projection = projection);
        assert_eq!(rejection(&e, &plan), class, "{defect}");
    }
}

#[test]
fn defect_mismatched_join_key_types() {
    let e = engine();
    let probe = plan_of(&e, "SELECT a FROM t");
    let build = plan_of(&e, "SELECT v FROM u");
    // Int probe key against Str build key: such a decorrelated semi join
    // can never match a row — a rewrite defect, rejected statically.
    let plan = hash_join(
        &e,
        probe.clone(),
        build,
        vec![(expr("a"), expr("v"))],
        vec![],
        JoinVariant::Semi,
        probe.schema().clone(),
    );
    assert_eq!(rejection(&e, &plan), PlanErrorClass::JoinKey);
}

#[test]
fn defect_wrong_semi_join_schema() {
    let e = engine();
    let probe = plan_of(&e, "SELECT a FROM t");
    let build = plan_of(&e, "SELECT k FROM u");
    // Semi joins emit the probe schema unchanged; the concatenated schema
    // is the plain-join shape and must be rejected.
    let plan = hash_join(
        &e,
        probe.clone(),
        build.clone(),
        vec![(expr("a"), expr("k"))],
        vec![],
        JoinVariant::Semi,
        probe.schema().concat(build.schema()),
    );
    assert_eq!(rejection(&e, &plan), PlanErrorClass::Variant);
}

#[test]
fn defect_out_of_range_param_index() {
    let e = engine();
    let plan = e
        .plan_query(&mtsql::parse_query("SELECT a FROM t WHERE a = $2").expect("parses"))
        .expect("plans with its own parameter count");
    // Executing with a single bound parameter leaves $2 dangling.
    let err = e
        .execute_plan(&plan, &[Value::Int(10)])
        .expect_err("under-bound execution must be rejected");
    assert_eq!(err.kind(), mtengine::EngineErrorKind::Plan);
    assert!(err.message.contains("$2"), "names the parameter: {err}");
    // Binding both parameters satisfies the verifier.
    e.execute_plan(&plan, &[Value::Int(10), Value::Int(20)])
        .expect("fully bound execution verifies and runs");
}

#[test]
fn defect_missing_snapshot_watermark() {
    let mut e = engine();
    let plan = plan_of(&e, "SELECT a FROM t");
    // A destructive rewrite bumps the rewrite epoch past the old pin: a
    // scan pinned before it has no addressable watermark.
    e.execute("UPDATE t SET a = 11 WHERE ttid = 1")
        .expect("update");
    let stale = VerifyOptions {
        pinned_epoch: Some(0),
        ..Default::default()
    };
    let err = verify::verify_plan_with(&e, &plan, stale).expect_err("stale pin must be rejected");
    assert_eq!(err.class, PlanErrorClass::Snapshot);
    // A pin at the current epoch verifies.
    let fresh = VerifyOptions {
        pinned_epoch: Some(e.current_epoch()),
        ..Default::default()
    };
    verify::verify_plan_with(&e, &plan, fresh).expect("fresh pin verifies");
}

#[test]
fn defect_pruning_keys_without_partitioned_table() {
    let e = engine();
    let mut plan = plan_of(&e, "SELECT v FROM u");
    mutate_scan(&mut plan, |scan| {
        scan.prune_keys = Some(BTreeSet::from([1i64]));
    });
    assert_eq!(rejection(&e, &plan), PlanErrorClass::Pruning);
}

#[test]
fn defect_sort_key_out_of_bounds() {
    let e = engine();
    let mut plan = plan_of(&e, "SELECT a FROM t ORDER BY a");
    match &mut plan {
        Plan::Sort { keys, .. } => keys[0] = SortKey { col: 99, asc: true },
        other => panic!("expected a Sort head, got {other:?}"),
    }
    assert_eq!(rejection(&e, &plan), PlanErrorClass::Bounds);
}

// --- Binding: one seeded mutation per bound-slot check -----------------------

/// The first node of the plan (walking inputs, probe side first) `pick`
/// accepts.
fn find_node<'p, T>(
    plan: &'p mut Plan,
    pick: &mut dyn FnMut(&'p mut Plan) -> Result<T, &'p mut Plan>,
) -> Option<T> {
    let plan = match pick(plan) {
        Ok(found) => return Some(found),
        Err(plan) => plan,
    };
    match plan {
        Plan::Filter { input, .. }
        | Plan::Subquery { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => find_node(input, pick),
        Plan::Project(p) => find_node(&mut p.input, pick),
        Plan::HashAggregate(a) => find_node(&mut a.input, pick),
        Plan::HashJoin { left, right, .. } | Plan::NestedLoopJoin { left, right, .. } => {
            find_node(left, pick).or_else(|| find_node(right, pick))
        }
        Plan::SeqScan(_) | Plan::Empty { .. } => None,
    }
}

fn join_binding(plan: &mut Plan) -> &mut BoundJoin {
    find_node(plan, &mut |p| match p {
        Plan::HashJoin { bound, .. } => Ok(bound),
        other => Err(other),
    })
    .expect("plan contains a hash join")
}

fn aggregate_binding(plan: &mut Plan) -> &mut BoundAggregate {
    find_node(plan, &mut |p| match p {
        Plan::HashAggregate(a) => Ok(&mut a.bound),
        other => Err(other),
    })
    .expect("plan contains an aggregate")
}

#[test]
fn defect_bound_input_slot_past_the_input_width() {
    let e = engine();
    let mut plan = plan_of(&e, "SELECT a, s FROM t");
    match &mut plan {
        Plan::Project(p) => p.bound[1] = BoundExpr::Slot(Slot::Input(3)),
        other => panic!("expected a Project head, got {other:?}"),
    }
    assert_eq!(rejection(&e, &plan), PlanErrorClass::Binding);
}

#[test]
fn defect_operator_without_its_binding() {
    let e = engine();
    let mut plan = plan_of(&e, "SELECT t.a FROM t, u WHERE t.a = u.k AND t.a + u.k > 3");
    let dropped = find_node(&mut plan, &mut |p| match p {
        Plan::Filter { bound, .. } => Ok(std::mem::take(bound)),
        other => Err(other),
    });
    assert_eq!(
        dropped.map(|b| b.len()),
        Some(1),
        "a residual Filter above the join"
    );
    assert_eq!(rejection(&e, &plan), PlanErrorClass::Binding);
}

#[test]
fn defect_group_slot_outside_a_group_context() {
    let e = engine();
    let mut plan = plan_of(&e, "SELECT t.a FROM t, u WHERE t.a = u.k AND t.a + u.k > 3");
    find_node(&mut plan, &mut |p| match p {
        Plan::Filter { bound, .. } => {
            bound[0] = BoundExpr::Slot(Slot::Agg(0));
            Ok(())
        }
        other => Err(other),
    })
    .expect("a residual Filter above the join");
    assert_eq!(rejection(&e, &plan), PlanErrorClass::Binding);
}

#[test]
fn defect_bucket_constant_outside_a_per_bucket_join() {
    let e = engine();
    let mut plan = plan_of(&e, "SELECT SUM(a) FROM t");
    aggregate_binding(&mut plan).args[0] = BoundExpr::Slot(Slot::BucketConst(0));
    assert_eq!(rejection(&e, &plan), PlanErrorClass::Binding);
}

#[test]
fn defect_aggregate_argument_index_out_of_range() {
    let e = engine();
    let mut plan = plan_of(&e, "SELECT ttid, SUM(a) FROM t GROUP BY ttid");
    aggregate_binding(&mut plan).aggs[0].arg = Some(7);
    assert_eq!(rejection(&e, &plan), PlanErrorClass::Binding);
}

#[test]
fn defect_per_bucket_mark_on_an_ineligible_join() {
    let e = engine();
    // Not beneath an aggregate.
    let mut plan = plan_of(&e, "SELECT t.a, u.v FROM t, u WHERE u.k = t.ttid");
    join_binding(&mut plan).per_bucket = true;
    assert_eq!(rejection(&e, &plan), PlanErrorClass::Binding);
    // Beneath an aggregate, but not keyed on the probe's partition column.
    let mut plan = plan_of(&e, "SELECT COUNT(*) FROM t, u WHERE u.k = t.a");
    assert!(!join_binding(&mut plan).per_bucket);
    join_binding(&mut plan).per_bucket = true;
    assert_eq!(rejection(&e, &plan), PlanErrorClass::Binding);
}

/// An outer slot must name a column of an enclosing scope: the sub-plan is
/// verified with its parent, so a depth past the scopes — or an index past
/// the scope's width — is rejected before execution.
#[test]
fn defect_outer_slot_past_its_enclosing_scopes() {
    let e = engine();
    // Non-equi correlation: the sub-query stays a sub-plan whose Filter
    // reads `u.k` as `Outer { depth: 0, index: 0 }`.
    let sql = "SELECT k FROM u WHERE EXISTS (SELECT 1 FROM t WHERE t.a > u.k)";
    fn filter_of(plan: &mut Plan) -> &mut Vec<BoundExpr> {
        find_node(plan, &mut |p| match p {
            Plan::Filter { bound, .. } => Ok(bound),
            other => Err(other),
        })
        .expect("plan contains a filter")
    }
    for bad in [
        Slot::Outer { depth: 1, index: 0 },
        Slot::Outer { depth: 0, index: 7 },
    ] {
        let mut plan = plan_of(&e, sql);
        let Some(BoundExpr::Subquery { plan: sub, .. }) = filter_of(&mut plan).first_mut() else {
            panic!("expected the EXISTS sub-plan: {plan:?}");
        };
        let sub = std::sync::Arc::get_mut(sub).expect("the sub-plan is not shared");
        let Some(BoundExpr::Binary { right, .. }) = filter_of(sub).first_mut() else {
            panic!("expected the correlated comparison");
        };
        assert!(matches!(
            **right,
            BoundExpr::Slot(Slot::Outer { depth: 0, index: 0 })
        ));
        **right = BoundExpr::Slot(bad);
        assert_eq!(rejection(&e, &plan), PlanErrorClass::Binding);
    }
}

/// The eligible shape: the planner marks the join, the aggregate reads the
/// build side through bucket-constant slots, and the plan verifies and runs.
#[test]
fn per_bucket_join_binds_bucket_constants_and_executes() {
    let e = engine();
    let mut plan = plan_of(
        &e,
        "SELECT t.ttid, COUNT(*), MAX(u.v), u.v FROM t, u WHERE u.k = t.ttid GROUP BY t.ttid",
    );
    assert!(join_binding(&mut plan).per_bucket);
    let bound = aggregate_binding(&mut plan);
    assert!(matches!(
        bound.args[0],
        BoundExpr::Slot(Slot::BucketConst(1))
    ));
    assert!(bound.rep_consts && !bound.rep_input);
    verify::verify_plan(&e, &plan).expect("the per-bucket plan verifies");
    // `u` holds key 1 only: tenant 2's bucket joins nothing.
    let rs = e.execute_plan(&plan, &[]).expect("executes");
    assert_eq!(
        rs.rows,
        vec![vec![
            Value::Int(1),
            Value::Int(1),
            Value::str("z"),
            Value::str("z")
        ]]
    );
}

#[test]
fn clean_plans_execute_under_forced_verification() {
    let e = engine();
    for sql in [
        "SELECT a FROM t WHERE ttid = 1 ORDER BY a",
        "SELECT t.a, u.v FROM t, u WHERE t.a = u.k",
        "SELECT ttid, SUM(a) FROM t GROUP BY ttid ORDER BY SUM(a) DESC",
        "SELECT DISTINCT s FROM t WHERE s LIKE 'x%'",
    ] {
        let plan = plan_of(&e, sql);
        verify::verify_plan(&e, &plan).unwrap_or_else(|err| panic!("{sql}: {err}"));
        e.execute_plan(&plan, &[])
            .unwrap_or_else(|err| panic!("{sql}: {err}"));
    }
    assert!(
        e.stats().plans_verified > 0,
        "forced verification must engage: {:?}",
        e.stats()
    );
}

/// The middleware surfaces verifier rejections as their own `MtError::Plan`
/// variant, so clients can distinguish planner defects from data errors.
#[test]
fn rejection_surfaces_as_mtbase_plan_error() {
    let e = engine();
    let mut plan = plan_of(&e, "SELECT a FROM t");
    mutate_scan(&mut plan, |scan| {
        scan.residual = vec![expr("ghost = 1")];
    });
    let engine_err = e.execute_plan(&plan, &[]).expect_err("rejected");
    let mt: mtbase::MtError = engine_err.into();
    match &mt {
        mtbase::MtError::Plan(msg) => {
            assert!(msg.contains("ghost"), "names the offending column: {msg}")
        }
        other => panic!("expected MtError::Plan, got {other:?}"),
    }
    assert!(mt.to_string().contains("plan verification error"));
}

/// EXPLAIN always reports the verifier's verdict, independent of the
/// configured mode — the marker is what the golden plan snapshots pin.
#[test]
fn explain_carries_the_verified_marker() {
    let e = engine();
    let rs = e
        .explain_query(&mtsql::parse_query("SELECT a FROM t WHERE ttid = 1").expect("parses"))
        .expect("explain");
    let last = rs.rows.last().expect("explain output is non-empty");
    let text = format!("{:?}", last);
    assert!(
        text.contains("verified ("),
        "EXPLAIN must end with the verified marker: {text}"
    );
}
