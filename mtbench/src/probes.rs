//! Single-layer probes that only traced runs take: the streaming cursor, the
//! morsel pool on a second deployment, connection set-up and complex-scope
//! resolution. Each is timed from outside through `pub` entry points.

use std::hint::black_box;
use std::time::Instant;

use mtbase::EngineConfig;
use mth::gen::GeneratedData;
use mth::loader::{self, MthDeployment};
use mth::queries;
use mtrewrite::OptLevel;

use crate::deploy::config_of;
use crate::read::{prepare_mt, ReadSweep, O4, SCOPE_ALL};
use crate::spec::Workload;
use crate::stats::median;
use crate::util::{qtag, timed, Metrics, Ops};

/// `Statement::cursor` over a full scan of `lineitem` with every tenant in
/// scope: a pipeline-able plan, so rows stream batch-at-a-time.
pub fn cursor(
    dep: &MthDeployment,
    passes: usize,
    m: &mut Metrics,
    ops: &mut Ops,
) -> Result<(), String> {
    let sql = "SELECT l_orderkey, l_quantity, l_extendedprice, l_shipdate FROM lineitem";
    let mut stmt = prepare_mt(dep, OptLevel::O4, SCOPE_ALL, sql)?;
    let (mut first_batch, mut drain, mut rows, mut peak) = (Vec::new(), Vec::new(), 0u64, 0usize);
    for _ in 0..passes.max(2) {
        let start = Instant::now();
        let Some(mut cursor) = ops.attempt("open cursor", stmt.cursor()) else {
            return Err("the lineitem cursor could not be opened".into());
        };
        let mut first = None;
        loop {
            match cursor.next_batch() {
                Ok(Some(batch)) => {
                    first.get_or_insert_with(|| start.elapsed().as_secs_f64());
                    black_box(batch);
                }
                Ok(None) => break,
                Err(e) => {
                    ops.fail(format!("cursor fetch: {e}"));
                    break;
                }
            }
        }
        drain.push(start.elapsed().as_secs_f64());
        first_batch.push(first.unwrap_or_default());
        rows = cursor.rows_fetched();
        peak = cursor.peak_resident_rows();
    }
    // The first pass is the warm-up.
    m.set(
        "mtengine.cursor.first_batch_us",
        median(&first_batch[1..]) * 1e6,
    );
    m.set(
        "mtengine.cursor.rows_per_s",
        rows as f64 / median(&drain[1..]),
    );
    m.set("mtengine.cursor.peak_resident_rows", peak as f64);
    Ok(())
}

/// Q1 and Q6 (o4, all tenants) on a second deployment whose only difference
/// is `with_parallel_scan(2)`, against the sweep's single-worker medians.
pub fn pool(
    w: &Workload,
    data: &GeneratedData,
    sweep: &ReadSweep,
    passes: usize,
    m: &mut Metrics,
    ops: &mut Ops,
) -> Result<(), String> {
    let dep = loader::load_from_data(
        config_of(w),
        EngineConfig::postgres_like().with_parallel_scan(2),
        data,
    );
    for q in [1, 6] {
        let mut stmt = prepare_mt(&dep, OptLevel::O4, SCOPE_ALL, &queries::query(q))?;
        let mut samples = Vec::new();
        for _ in 0..passes.max(2) + 1 {
            let (rs, t) = timed(|| stmt.execute());
            if let Some(rs) = ops.attempt("pooled scan", rs) {
                black_box(rs);
                samples.push(t);
            }
        }
        if samples.len() < 2 {
            return Err(format!("Q{q} failed on the two-worker deployment"));
        }
        let two_workers_ms = median(&samples[1..]) * 1e3;
        m.set(
            format!("mtengine.pool.{}_speedup_2w", qtag(q)),
            sweep.median_ms(q, O4) / two_workers_ms,
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.set("mtengine.pool.available_parallelism", cores as f64);
    Ok(())
}

/// `MtBase::connect`, and prepared Q6 under a complex scope (`FROM customer
/// WHERE c_custkey > 0`, which every tenant satisfies) against the equal
/// explicit `IN (1, …, T)` list: the difference is what resolving the scope
/// query costs per statement.
pub fn session(
    dep: &MthDeployment,
    w: &Workload,
    passes: usize,
    m: &mut Metrics,
    ops: &mut Ops,
) -> Result<(), String> {
    let mut connect = Vec::new();
    for i in 0..passes.max(20) {
        let tenant = 1 + (i as i64 % w.tenants);
        let (conn, t) = timed(|| dep.server.connect(tenant));
        black_box(conn);
        connect.push(t);
    }
    m.set("mtbase.connect_us", median(&connect) * 1e6);

    let ids: Vec<String> = (1..=w.tenants).map(|t| t.to_string()).collect();
    let listed = format!("SET SCOPE = \"IN ({})\"", ids.join(", "));
    let complex = "SET SCOPE = \"FROM customer WHERE c_custkey > 0\"";
    let q6 = queries::query(6);
    let mut by_list = prepare_mt(dep, OptLevel::O4, &listed, &q6)?;
    let mut by_query = prepare_mt(dep, OptLevel::O4, complex, &q6)?;
    let (mut list_s, mut query_s) = (Vec::new(), Vec::new());
    for pass in 0..passes.max(20) + 1 {
        let (a, ta) = timed(|| by_list.execute());
        let (b, tb) = timed(|| by_query.execute());
        let (Some(a), Some(b)) = (
            ops.attempt("Q6 IN-list scope", a),
            ops.attempt("Q6 complex scope", b),
        ) else {
            return Err("Q6 failed under the scope probe".into());
        };
        if a != b {
            ops.fail("Q6 differs between the complex scope and the equal IN list");
        }
        if pass > 0 {
            list_s.push(ta);
            query_s.push(tb);
        }
    }
    m.set(
        "mtbase.scope_complex_extra_us",
        (median(&query_s) - median(&list_s)) * 1e6,
    );
    Ok(())
}
