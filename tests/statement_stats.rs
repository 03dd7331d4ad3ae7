//! Per-statement counters under concurrency: `last_query_stats()` is the
//! statement's own context, so connections running side by side on one
//! shared, pooled deployment each read exactly the numbers the same
//! statement reports when it runs alone.

use std::sync::{Arc, Barrier};

use mtbase::{Connection, EngineConfig, MtBase, Statement};
use mtengine::stats::StatsSnapshot;
use mth::params::{MthConfig, TenantDistribution};
use mth::{loader, queries};
use mtrewrite::OptLevel;

const THREADS: usize = 4;
const ROUNDS: usize = 3;
const SCOPE: &str = "SET SCOPE = \"IN (1, 2, 3)\"";

/// The counters a statement owns; the rest are engine-lifetime fields.
fn own(s: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        rows_scanned: s.rows_scanned,
        partitions_scanned: s.partitions_scanned,
        partitions_pruned: s.partitions_pruned,
        late_materialized: s.late_materialized,
        morsels_dispatched: s.morsels_dispatched,
        udf_calls: s.udf_calls,
        udf_cache_hits: s.udf_cache_hits,
        prepared_cache_hits: s.prepared_cache_hits,
        ..StatsSnapshot::default()
    }
}

/// A connection of client 1 under `SCOPE` and its prepared Q1 (which
/// follows the connection's opt level).
fn session(server: &Arc<MtBase>) -> (Connection, Statement) {
    let mut conn = server.connect(1);
    conn.execute(SCOPE).expect("scope statement");
    let stmt = conn.prepare(&queries::query(1)).expect("prepare Q1");
    (conn, stmt)
}

/// One pass: Q1, Q6 and Q22 one-shot and the prepared Q1, at canonical and
/// at o4, each labelled with its statement's own counters.
fn pass(conn: &mut Connection, stmt: &mut Statement) -> Vec<(String, StatsSnapshot)> {
    let mut out = Vec::new();
    for level in [OptLevel::Canonical, OptLevel::O4] {
        conn.set_opt_level(level);
        for q in [1, 6, 22] {
            conn.query(&queries::query(q))
                .unwrap_or_else(|e| panic!("Q{q} at {level:?}: {e}"));
            out.push((format!("Q{q} at {level:?}"), own(conn.last_query_stats())));
        }
        stmt.execute()
            .unwrap_or_else(|e| panic!("prepared Q1 at {level:?}: {e}"));
        out.push((
            format!("prepared Q1 at {level:?}"),
            own(stmt.last_query_stats()),
        ));
    }
    out
}

#[test]
fn concurrent_statements_report_their_own_counters() {
    let dep = loader::load(
        MthConfig {
            scale: 4.0,
            tenants: 4,
            distribution: TenantDistribution::Uniform,
            seed: 7,
        },
        EngineConfig::postgres_like().with_parallel_scan(4),
    );

    // The first quiet pass fills the plan cache and the UDF-result cache,
    // so every later pass hits both; the second is the reference.
    let (mut conn, mut stmt) = session(&dep.server);
    pass(&mut conn, &mut stmt);
    let quiet = pass(&mut conn, &mut stmt);
    let mut total = StatsSnapshot::default();
    for (_, stats) in &quiet {
        total += *stats;
    }
    for (what, engaged) in [
        ("the pool", total.morsels_dispatched),
        ("pruning", total.partitions_pruned),
        ("the UDF cache", total.udf_cache_hits),
        ("the plan cache", total.prepared_cache_hits),
    ] {
        assert!(engaged > 0, "{what} must engage: {quiet:#?}");
    }

    // All threads start at once (before anything that can fail, so a
    // failing thread cannot strand the others), and their passes overlap.
    let start = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (server, start) = (Arc::clone(&dep.server), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let (mut conn, mut stmt) = session(&server);
                (0..ROUNDS)
                    .map(|_| pass(&mut conn, &mut stmt))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for worker in workers {
        for round in worker.join().expect("worker thread") {
            for ((what, busy), (_, alone)) in round.iter().zip(&quiet) {
                assert_eq!(busy, alone, "{what}: counters differ from the quiet run");
            }
        }
    }
}
