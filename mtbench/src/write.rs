//! The write phase: the same `mtengine`/`mtbase` the read phases use, driven
//! through `lock` → `txn` → `wal` instead of `exec`, on the durable
//! deployment (product flush policy: `sync_data` per commit, or per commit
//! group when committers overlap). All writes go to the scratch `Items`
//! table, so the MT-H tables must answer Q1 and Q6 identically before the
//! phase and after recovery.
//!
//! Sub-phases, fixed counts, closed loop, never more than two threads:
//!
//! * `w1`†  one writer, auto-commit single-row INSERTs
//! * `ud`†  single-row UPDATEs and DELETEs on the bucket `w1` filled
//! * `w2`   two writers on different tenants, `BEGIN; 5×INSERT; COMMIT`
//! * `w2same`† the same on one tenant bucket
//! * `rw`   one reader executing prepared Q6 beside one writer (as `w1`)
//!   that commits until the reader is done
//! * `rb`†  `BEGIN; 5×INSERT; ROLLBACK`
//! * drop the server and reopen it from the log
//!
//! † only in traced runs, which also run `w2` twice — spans off, then on —
//! so the tracing overhead is measured on identical work inside one process.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use mtbase::{EngineConfig, MtBase, ResultSet, Value};
use mth::loader::{self, MthDeployment};
use mth::{queries, validate};
use mtrewrite::OptLevel;

use crate::read::{prepare_mt, SCOPE_ALL};
use crate::spec::Workload;
use crate::trace::Tracer;
use crate::util::{Ops, Rng};

/// INSERTs per explicit transaction.
const TXN_ROWS: usize = 5;
/// Idle Q6 executions that `rw` reader latency is compared against.
const IDLE_READS: usize = 50;
/// Single-row UPDATEs, and as many DELETEs, of the `ud` sub-phase.
const UD_OPS: usize = 20;
/// Upper limit on the `rw` writer's commits (it stops when the reader does).
const RW_COMMIT_CAP: usize = 1_000_000;

/// Numbers only traced runs collect.
#[derive(Default)]
pub struct WriteLayers {
    pub w1_commits_per_s: f64,
    pub w1_fsyncs_per_commit: f64,
    pub wal_bytes_per_row: f64,
    pub wal_bytes_per_user_byte: f64,
    pub update_s: Vec<f64>,
    pub delete_s: Vec<f64>,
    pub same_tenant_commits_per_s: f64,
    pub aborts: u64,
    /// `w2` wall time per transaction with spans on / with spans off.
    pub trace_overhead: f64,
    /// `wal::recover` on the final log, seconds per call.
    pub replay_s: Vec<f64>,
}

pub struct WriteOutcome {
    /// `w2` durable commits / wall time.
    pub commits_per_s: f64,
    /// `w2` latency of the `COMMIT` call, seconds.
    pub commit_s: Vec<f64>,
    pub w2_fsyncs_per_commit: f64,
    /// `rw` reader Q6 latency, seconds; and (traced runs) the same statement
    /// with no writer.
    pub read_under_write_s: Vec<f64>,
    pub read_idle_s: Vec<f64>,
    /// `rw` commits the writer got through beside the reader, and their rate.
    pub rw_commits: i64,
    pub rw_commits_per_s: f64,
    /// `MtBase::open_durable` of the final log, seconds per reopen.
    pub recovery_s: Vec<f64>,
    pub wal_bytes: u64,
    /// `Items` rows in the recovered database.
    pub items_rows: i64,
    /// Wall time per sub-phase, in running order.
    pub phase_s: Vec<(&'static str, f64)>,
    pub layers: Option<WriteLayers>,
}

enum End {
    Commit,
    Rollback,
}

/// What one writer thread hands back.
#[derive(Default)]
struct Written {
    /// Rows of acknowledged commits.
    acked_rows: i64,
    commit_s: Vec<f64>,
    aborts: u64,
}

/// A lock-manager abort (deadlock victim or wait budget exhausted), as far
/// as the public error text shows it.
fn is_abort(message: &str) -> bool {
    message.contains("deadlock detected") || message.contains("lock wait on table")
}

/// Times a transaction the lock manager aborted is tried again before it
/// counts as failed.
const ABORT_RETRIES: usize = 5;

/// `txns` explicit transactions of [`TXN_ROWS`] INSERTs on one connection.
///
/// A lock-manager abort is the documented "roll back and retry" outcome, not
/// a wrong result: the transaction is retried and the abort is counted in
/// `aborts`. It is a failed operation only when every retry aborts too.
#[allow(clippy::too_many_arguments)]
fn run_txns(
    server: &Arc<MtBase>,
    tenant: i64,
    first_id: i64,
    txns: usize,
    tag: &str,
    end: End,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Written {
    let mut conn = server.connect(tenant);
    let mut out = Written::default();
    let (end_sql, end_span) = match end {
        End::Commit => ("COMMIT", "mtengine.txn.commit"),
        End::Rollback => ("ROLLBACK", "mtengine.txn.rollback"),
    };
    let mut retries_left = ABORT_RETRIES;
    let mut t = 0;
    'txns: while t < txns {
        let stmt_id = (tenant as u32) << 24 | t as u32;
        let span = tracer.open("txn", None, stmt_id);
        let (begun, _) = tracer.time("mtengine.txn.begin", span, stmt_id, || {
            conn.execute("BEGIN")
        });
        ops.attempt("BEGIN", begun);
        for r in 0..TXN_ROWS {
            let id = first_id + (t * TXN_ROWS + r) as i64;
            let sql = format!("INSERT INTO Items VALUES ({id}, '{tag}')");
            let (inserted, _) =
                tracer.time("mtengine.txn.insert", span, stmt_id, || conn.execute(&sql));
            // A failed DML statement has rolled the transaction back.
            match &inserted {
                Err(e) if is_abort(&e.to_string()) && retries_left > 0 => {
                    out.aborts += 1;
                    retries_left -= 1;
                    ops.attempted += 1;
                    tracer.close(span);
                    continue 'txns;
                }
                _ => {}
            }
            if ops.attempt("INSERT in txn", inserted).is_none() {
                tracer.close(span);
                t += 1;
                continue 'txns;
            }
        }
        let (ended, elapsed) = tracer.time(end_span, span, stmt_id, || conn.execute(end_sql));
        tracer.close(span);
        if ops.attempt(end_sql, ended).is_some() {
            if let End::Commit = end {
                out.acked_rows += TXN_ROWS as i64;
                out.commit_s.push(elapsed);
            }
        }
        retries_left = ABORT_RETRIES;
        t += 1;
    }
    out
}

/// Auto-commit single-row INSERTs on one connection: `commits` of them, or
/// fewer when `stop` is raised first.
#[allow(clippy::too_many_arguments)]
fn run_autocommit(
    server: &Arc<MtBase>,
    tenant: i64,
    first_id: i64,
    commits: usize,
    stop: Option<&AtomicBool>,
    tag: &str,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Written {
    let mut conn = server.connect(tenant);
    let mut out = Written::default();
    for i in 0..commits {
        if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
            break;
        }
        let sql = format!(
            "INSERT INTO Items VALUES ({}, '{tag}')",
            first_id + i as i64
        );
        let (inserted, _) = tracer.time("mtengine.txn.autocommit", None, i as u32, || {
            conn.execute(&sql)
        });
        if ops.attempt("auto-commit INSERT", inserted).is_some() {
            out.acked_rows += 1;
        }
    }
    out
}

/// Two writer threads started together; returns what they wrote and the
/// wall time from the common start to the last join.
fn two_writers(
    tenants: [i64; 2],
    tracer: &mut Tracer,
    ops: &mut Ops,
    body: impl Fn(usize, i64, &mut Tracer, &mut Ops) -> Written + Sync,
) -> (Written, f64) {
    let barrier = Barrier::new(2);
    let mut total = Written::default();
    let results: Vec<(Written, Tracer, Ops, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(slot, &tenant)| {
                let mut tracer = tracer.fork();
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    let mut ops = Ops::default();
                    barrier.wait();
                    let started = Instant::now();
                    let written = body(slot, tenant, &mut tracer, &mut ops);
                    (written, tracer, ops, started)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect()
    });
    let wall_end = Instant::now();
    let start = results
        .iter()
        .map(|r| r.3)
        .min()
        .expect("two writer threads ran");
    for (written, thread_tracer, thread_ops, _) in results {
        total.acked_rows += written.acked_rows;
        total.commit_s.extend(written.commit_s);
        total.aborts += written.aborts;
        tracer.absorb(thread_tracer);
        ops.absorb(thread_ops);
    }
    (total, wall_end.duration_since(start).as_secs_f64())
}

fn scalar_i64(server: &MtBase, sql: &str) -> Result<i64, String> {
    let rs = server.raw_query(sql).map_err(|e| e.to_string())?;
    rs.scalar()
        .and_then(Value::as_i64)
        .ok_or_else(|| format!("`{sql}` returned no integer"))
}

/// Q1 and Q6 (o4, all tenants) on the MT-H tables: the results the write
/// phase must leave unchanged.
fn fingerprint(dep_server: &Arc<MtBase>, ops: &mut Ops) -> Vec<ResultSet> {
    let mut conn = dep_server.connect(1);
    conn.set_opt_level(OptLevel::O4);
    ops.attempt("SET SCOPE", conn.execute(SCOPE_ALL));
    [1, 6]
        .into_iter()
        .filter_map(|q| ops.attempt(&format!("Q{q} fingerprint"), conn.query(&queries::query(q))))
        .collect()
}

fn wal_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Run the phase. Takes the durable deployment by value: it is dropped
/// before the log is reopened.
pub fn run(
    durable: MthDeployment,
    wal_path: &Path,
    w: &Workload,
    rng: &mut Rng,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Result<WriteOutcome, String> {
    let full = tracer.enabled();
    let server = Arc::clone(&durable.server);
    // Two distinct writer tenants and the row tags come from the seed. Tags
    // have a fixed width so that logged bytes per user byte repeats exactly.
    let a = 2 + rng.below((w.tenants - 1) as usize) as i64;
    let b = 2 + ((a - 2) + 1 + rng.below((w.tenants - 2) as usize) as i64) % (w.tenants - 1);
    let run_tag = format!("{:08x}", rng.next_u64() as u32);
    let tag = |phase: &str| format!("{phase}-{run_tag}");
    let mut next_id = 1_000_000i64;
    let mut take_ids = |count: usize| {
        let first = next_id;
        next_id += count as i64;
        first
    };
    let mut expected_rows = 0i64;
    let before = fingerprint(&server, ops);
    let mut layers = full.then(WriteLayers::default);
    // Wall time per sub-phase, for the run's details.
    let mut phase_s: Vec<(&'static str, f64)> = Vec::new();
    let mut lap_start = Instant::now();
    let mut lap = |name: &'static str| {
        phase_s.push((name, lap_start.elapsed().as_secs_f64()));
        lap_start = Instant::now();
    };

    // w1 and ud (traced runs): a single writer, then single-row rewrites of
    // the bucket it filled.
    if let Some(layers) = layers.as_mut() {
        let commits = w.w1_commits;
        let first_id = take_ids(commits);
        let (stats_before, bytes_before) = (server.stats(), wal_len(wal_path));
        let start = Instant::now();
        let written = run_autocommit(&server, a, first_id, commits, None, &tag("w1"), tracer, ops);
        let wall = start.elapsed().as_secs_f64();
        let window = server.stats().delta_from(&stats_before);
        let logged = (wal_len(wal_path) - bytes_before) as f64;
        expected_rows += written.acked_rows;
        layers.w1_commits_per_s = window.wal_commits as f64 / wall;
        layers.w1_fsyncs_per_commit = window.wal_fsyncs as f64 / window.wal_commits.max(1) as f64;
        layers.wal_bytes_per_row = logged / written.acked_rows.max(1) as f64;
        let user_bytes = (8 + tag("w1").len()) as f64 * written.acked_rows.max(1) as f64;
        layers.wal_bytes_per_user_byte = logged / user_bytes;
        lap("w1");

        // Every UPDATE or DELETE logs a rewrite of the bucket, which the
        // reopens below replay: a few of each bound the log.
        let ud_ops = (commits / 4).min(UD_OPS);
        let mut keys: Vec<i64> = (first_id..first_id + commits as i64).collect();
        rng.shuffle(&mut keys);
        let mut conn = server.connect(a);
        for (i, key) in keys.iter().take(ud_ops).enumerate() {
            let sql = format!(
                "UPDATE Items SET I_tag = '{}' WHERE I_item_id = {key}",
                tag("ud")
            );
            let (updated, t) =
                tracer.time("mtengine.txn.update", None, i as u32, || conn.execute(&sql));
            if ops.attempt("UPDATE", updated).is_some() {
                layers.update_s.push(t);
            }
        }
        for (i, key) in keys.iter().skip(ud_ops).take(ud_ops).enumerate() {
            let sql = format!("DELETE FROM Items WHERE I_item_id = {key}");
            let (deleted, t) =
                tracer.time("mtengine.txn.delete", None, i as u32, || conn.execute(&sql));
            if ops.attempt("DELETE", deleted).is_some() {
                layers.delete_s.push(t);
                expected_rows -= 1;
            }
        }
        lap("ud");
    }

    // w2: two writers on different tenants. Traced runs do it twice, spans
    // off then on, with a quarter of the transactions each; their other
    // sub-phases are sized to keep the whole phase near the untraced one's
    // duration.
    let (w2_txns, rw_reads, reopens) = if full {
        (w.w2_txns / 4, w.rw_reads / 2, w.reopens.min(2))
    } else {
        (w.w2_txns, w.rw_reads, w.reopens)
    };
    let mut w2 = |tracer: &mut Tracer, ops: &mut Ops, expected_rows: &mut i64| {
        let first_id = take_ids(2 * w2_txns * TXN_ROWS);
        let stats_before = server.stats();
        let (written, wall) = two_writers([a, b], tracer, ops, |slot, tenant, tracer, ops| {
            let first = first_id + (slot * w2_txns * TXN_ROWS) as i64;
            run_txns(
                &server,
                tenant,
                first,
                w2_txns,
                &tag("w2"),
                End::Commit,
                tracer,
                ops,
            )
        });
        let window = server.stats().delta_from(&stats_before);
        *expected_rows += written.acked_rows;
        (written, wall, window)
    };
    let mut spans_off = Tracer::new(Instant::now(), false);
    let (written, wall, window) = w2(&mut spans_off, ops, &mut expected_rows);
    let commits_per_s = written.commit_s.len() as f64 / wall;
    let commit_s = written.commit_s;
    let w2_fsyncs_per_commit = window.wal_fsyncs as f64 / window.wal_commits.max(1) as f64;
    if let Some(layers) = layers.as_mut() {
        let per_txn_off = wall / commit_s.len().max(1) as f64;
        let (written, wall, _) = w2(tracer, ops, &mut expected_rows);
        layers.trace_overhead = (wall / written.commit_s.len().max(1) as f64) / per_txn_off;
    }
    lap("w2");

    // w2same (traced runs): both writers on one tenant bucket.
    if let Some(layers) = layers.as_mut() {
        let txns = (w.w2_txns / 10).max(1);
        let first_id = take_ids(2 * txns * TXN_ROWS);
        let (written, wall) = two_writers([a, a], tracer, ops, |slot, tenant, tracer, ops| {
            let first = first_id + (slot * txns * TXN_ROWS) as i64;
            run_txns(
                &server,
                tenant,
                first,
                txns,
                &tag("ws"),
                End::Commit,
                tracer,
                ops,
            )
        });
        expected_rows += written.acked_rows;
        layers.same_tenant_commits_per_s = written.commit_s.len() as f64 / wall;
        layers.aborts = written.aborts;
        lap("w2same");
    }

    // rw: one writer beside one reader looping prepared Q6.
    let mut reader = prepare_mt(&durable, OptLevel::O4, SCOPE_ALL, &queries::query(6))?;
    let q6_before = before.get(1).cloned();
    let mut read_q6 = |ops: &mut Ops, samples: &mut Vec<f64>| {
        let start = Instant::now();
        let rs = reader.execute();
        let elapsed = start.elapsed().as_secs_f64();
        if let Some(rs) = ops.attempt("Q6 beside writer", rs) {
            if Some(&rs) != q6_before.as_ref() {
                ops.fail("Q6 changed while Items was written");
            }
            black_box(rs);
            samples.push(elapsed);
        }
    };
    let mut read_idle_s = Vec::new();
    if full {
        for _ in 0..IDLE_READS {
            read_q6(ops, &mut read_idle_s);
        }
    }
    let mut read_under_write_s = Vec::new();
    let first_id = take_ids(RW_COMMIT_CAP);
    let reader_done = AtomicBool::new(false);
    let started = Barrier::new(2);
    let mut writer_tracer = tracer.fork();
    let rw_start = Instant::now();
    let (written, writer_ops) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut ops = Ops::default();
            started.wait();
            let written = run_autocommit(
                &server,
                a,
                first_id,
                RW_COMMIT_CAP,
                Some(&reader_done),
                &tag("rw"),
                &mut writer_tracer,
                &mut ops,
            );
            (written, ops)
        });
        started.wait();
        for _ in 0..rw_reads {
            read_q6(ops, &mut read_under_write_s);
        }
        reader_done.store(true, Ordering::SeqCst);
        writer.join().expect("rw writer thread panicked")
    });
    let rw_commits = written.acked_rows;
    let rw_commits_per_s = rw_commits as f64 / rw_start.elapsed().as_secs_f64();
    tracer.absorb(writer_tracer);
    ops.absorb(writer_ops);
    expected_rows += written.acked_rows;
    if read_under_write_s.is_empty() {
        return Err("rw: the reader finished no query".into());
    }

    lap("rw");

    // rb (traced runs): rolled-back transactions leave nothing behind.
    let rb_tag = tag("rb");
    if full {
        let txns = (w.w2_txns / 20).max(1);
        let first_id = take_ids(txns * TXN_ROWS);
        run_txns(
            &server,
            b,
            first_id,
            txns,
            &rb_tag,
            End::Rollback,
            tracer,
            ops,
        );
        lap("rb");
    }

    // Every acknowledged row is there before the restart ...
    let count_sql = "SELECT COUNT(*) FROM Items";
    let rb_sql = format!("SELECT COUNT(*) FROM Items WHERE I_tag = '{rb_tag}'");
    let check_rows = |server: &MtBase, ops: &mut Ops, when: &str| -> Result<i64, String> {
        let present = scalar_i64(server, count_sql)?;
        if present != expected_rows {
            ops.fail_many(
                present.abs_diff(expected_rows),
                format!("{when}: Items holds {present} rows, {expected_rows} were acknowledged"),
            );
        }
        let rolled_back = scalar_i64(server, &rb_sql)?;
        if rolled_back != 0 {
            ops.fail_many(
                rolled_back as u64,
                format!("{when}: {rolled_back} rolled-back rows present"),
            );
        }
        Ok(present)
    };
    check_rows(&server, ops, "before restart")?;

    // ... and after it: drop the server, reopen it from the log.
    drop(reader);
    drop(server);
    drop(durable);
    let wal_bytes = wal_len(wal_path);
    let mut recovery_s = Vec::new();
    let mut items_rows = 0;
    for i in 0..reopens.max(1) {
        let start = Instant::now();
        let reopened = loader::reopen_durable(EngineConfig::postgres_like(), wal_path);
        recovery_s.push(start.elapsed().as_secs_f64());
        let Some(reopened) = ops.attempt("reopen", reopened) else {
            return Err("the log could not be reopened".into());
        };
        if i == 0 {
            items_rows = check_rows(&reopened, ops, "after recovery")?;
            let after = fingerprint(&reopened, ops);
            if after.len() != before.len()
                || after
                    .iter()
                    .zip(&before)
                    .any(|(a, b)| validate::compare_result_sets(a, b).is_err())
            {
                ops.fail("Q1/Q6 on the MT-H tables changed across the write phase and recovery");
            }
        }
    }
    lap("reopen");
    if let Some(layers) = layers.as_mut() {
        for _ in 0..reopens.max(1) {
            let start = Instant::now();
            let recovery = mtengine::wal::recover(wal_path);
            layers.replay_s.push(start.elapsed().as_secs_f64());
            ops.attempt("wal::recover", recovery);
        }
        lap("replay");
    }

    Ok(WriteOutcome {
        commits_per_s,
        commit_s,
        w2_fsyncs_per_commit,
        read_under_write_s,
        read_idle_s,
        rw_commits,
        rw_commits_per_s,
        recovery_s,
        wal_bytes,
        items_rows,
        phase_s,
        layers,
    })
}
