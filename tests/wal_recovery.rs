//! Durability under fire: the crash-fault injection harness pinning the WAL
//! tentpole. A durable MT-H deployment is loaded through the middleware
//! (every batch logged), then crashes are injected at every WAL frame of a
//! follow-up transaction — torn writes, pre-fsync tail loss, bit-flipped
//! checksums — plus direct on-disk corruption of a committed tail. After
//! every crash, recovery must yield *exactly* the committed-prefix state:
//! all 22 MT-H queries return identical results with identical
//! `rows_scanned` / `partitions_pruned` counters, and the recovered writer
//! must accept new transactions.
//!
//! Also pinned here (satellite): the `dict_columns` gauge lands at its
//! pre-crash value when the replayed log demoted a dictionary column
//! mid-table.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use mtbase::{EngineConfig, MtBase, MtError, ResultSet, Value};
use mtengine::{CrashMode, FailpointClock};
use mth::gen::{self, GeneratedData};
use mth::params::{MthConfig, TenantDistribution};
use mth::{loader, queries};
use mtrewrite::OptLevel;
use mtsql::ast::Statement;

const SCOPE: &str = "SET SCOPE = \"IN (1, 2)\"";

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mtbase-wal-recovery-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{}.wal", name, std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// One shared generation run: the data is deterministic (seed 42), so every
/// test that loads it durably produces byte-identical WAL contents.
fn mth_data() -> &'static (MthConfig, GeneratedData) {
    static DATA: OnceLock<(MthConfig, GeneratedData)> = OnceLock::new();
    DATA.get_or_init(|| {
        let config = MthConfig {
            scale: 0.05,
            tenants: 4,
            distribution: TenantDistribution::Uniform,
            seed: 42,
        };
        let data = gen::generate(&config);
        (config, data)
    })
}

/// Result + the scan counters the harness compares across a crash: identical
/// counters prove recovery rebuilt the same physical layout (buckets,
/// partitions, dictionary state), not just the same logical rows.
type QueryFingerprint = (ResultSet, u64, u64);

fn run_query(server: &Arc<MtBase>, query: usize) -> QueryFingerprint {
    let mut conn = server.connect(1);
    conn.set_opt_level(OptLevel::O2);
    conn.execute(SCOPE).expect("scope statement");
    let rs = conn
        .query(&queries::query(query))
        .unwrap_or_else(|e| panic!("Q{query}: {e}"));
    let stats = conn.last_query_stats();
    (rs, stats.rows_scanned, stats.partitions_pruned)
}

/// Fingerprint all 22 MT-H queries.
fn fingerprint(server: &Arc<MtBase>) -> Vec<QueryFingerprint> {
    queries::all_query_numbers()
        .map(|q| run_query(server, q))
        .collect()
}

fn assert_fingerprints_match(
    reference: &[QueryFingerprint],
    recovered: &[QueryFingerprint],
    context: &str,
) {
    for (i, (r, g)) in reference.iter().zip(recovered.iter()).enumerate() {
        let q = i + 1;
        assert_eq!(r.0, g.0, "{context}: Q{q} results differ after recovery");
        assert_eq!(
            r.1, g.1,
            "{context}: Q{q} rows_scanned differs after recovery"
        );
        assert_eq!(
            r.2, g.2,
            "{context}: Q{q} partitions_pruned differs after recovery"
        );
    }
}

/// A lineitem row the crash workload inserts: a copy of an existing row with
/// its ttid forced into the query scope, so a committed insert *would* be
/// observable by the fingerprint (proving the harness can tell committed
/// from uncommitted).
fn scoped_lineitem_row(server: &Arc<MtBase>) -> Vec<Value> {
    let rs = server
        .raw_query("SELECT * FROM lineitem")
        .expect("scan lineitem");
    let mut row = rs.rows[0].clone();
    row[0] = Value::Int(1);
    row
}

fn lineitem_count(server: &Arc<MtBase>) -> Value {
    server
        .raw_query("SELECT COUNT(*) FROM lineitem")
        .expect("count lineitem")
        .rows[0][0]
        .clone()
}

/// Durable load, plain close, reopen: every query (results and counters) and
/// the dictionary gauge must round-trip through the log.
#[test]
fn durable_load_reopen_round_trips_all_queries() {
    let (config, data) = mth_data();
    let path = tmp("round-trip");
    let engine_config = EngineConfig::postgres_like();

    let (reference, dict_columns) = {
        let deployment = loader::load_durable_from_data(*config, engine_config, data, &path)
            .expect("durable load");
        let reference = fingerprint(&deployment.server);
        (reference, deployment.server.stats().dict_columns)
    };
    assert!(dict_columns > 0, "MT-H load must dictionary-encode columns");

    let recovered = loader::reopen_durable(engine_config, &path).expect("reopen");
    assert_fingerprints_match(&reference, &fingerprint(&recovered), "plain reopen");
    assert_eq!(
        recovered.stats().dict_columns,
        dict_columns,
        "dictionary gauge drifted across recovery"
    );
}

/// The headline sweep: enumerate every WAL frame an INSERT transaction
/// appends, then crash at each of them under each fault mode. Recovery must
/// always land on the committed prefix (the pre-insert state — the crashed
/// transaction never committed cleanly), verified by all 22 queries, and the
/// recovered writer must accept the retried insert.
#[test]
fn injected_crash_sweep_recovers_committed_prefix() {
    let (config, data) = mth_data();
    let base = tmp("crash-sweep-base");
    let engine_config = EngineConfig::postgres_like();

    let (reference, row, base_count) = {
        let deployment = loader::load_durable_from_data(*config, engine_config, data, &base)
            .expect("durable load");
        let row = scoped_lineitem_row(&deployment.server);
        let reference = fingerprint(&deployment.server);
        let count = lineitem_count(&deployment.server);
        (reference, row, count)
    };

    // Enumerate the crash points: run the workload once under an observer
    // clock on a scratch copy and count the frames it appends.
    let ops = {
        let scratch = tmp("crash-sweep-enumerate");
        std::fs::copy(&base, &scratch).expect("copy WAL");
        let server = loader::reopen_durable(engine_config, &scratch).expect("reopen");
        let clock = FailpointClock::observe();
        server.set_failpoint_clock(Arc::clone(&clock));
        server
            .load_rows("lineitem", vec![row.clone()])
            .expect("observed insert");
        clock.ops()
    };
    assert!(
        ops >= 2,
        "an INSERT transaction must append at least a record and a commit frame, got {ops}"
    );

    // CI shards the sweep across a fault-mode matrix via `WAL_FAULT_MODE`;
    // without it (the local default) every mode runs in one sweep.
    let modes = match std::env::var("WAL_FAULT_MODE").as_deref() {
        Ok("torn-write") => vec![CrashMode::TornWrite],
        Ok("pre-fsync-loss") => vec![CrashMode::PreFsyncLoss],
        Ok("bit-flip") => vec![CrashMode::BitFlip],
        Ok(other) => panic!("unknown WAL_FAULT_MODE `{other}`"),
        Err(_) => vec![
            CrashMode::TornWrite,
            CrashMode::PreFsyncLoss,
            CrashMode::BitFlip,
        ],
    };
    for mode in modes {
        for crash_at in 1..=ops {
            let context = format!("{mode:?} at frame {crash_at}/{ops}");
            let scratch = tmp(&format!("crash-{mode:?}-{crash_at}"));
            std::fs::copy(&base, &scratch).expect("copy WAL");

            {
                let server = loader::reopen_durable(engine_config, &scratch).expect("reopen");
                let clock = FailpointClock::crash_at(crash_at, mode);
                server.set_failpoint_clock(Arc::clone(&clock));
                let err = server
                    .load_rows("lineitem", vec![row.clone()])
                    .expect_err("the injected crash must fail the insert");
                assert!(
                    matches!(err, MtError::Durability(_)),
                    "{context}: expected a durability error, got: {err}"
                );
                assert!(clock.fired(), "{context}: the crash point never fired");
                // The writer is dead until recovery — no write sneaks through.
                let retry = server
                    .load_rows("lineitem", vec![row.clone()])
                    .expect_err("the dead writer must reject further writes");
                assert!(
                    matches!(retry, MtError::Durability(_)),
                    "{context}: expected a dead-writer error, got: {retry}"
                );
            }

            // "Restart": recover from the crashed log.
            let recovered = loader::reopen_durable(engine_config, &scratch).expect("recovery");
            assert_eq!(
                lineitem_count(&recovered),
                base_count,
                "{context}: the crashed transaction leaked into recovery"
            );
            assert_fingerprints_match(&reference, &fingerprint(&recovered), &context);

            // The recovered writer is healthy: the retried insert commits.
            recovered
                .load_rows("lineitem", vec![row.clone()])
                .unwrap_or_else(|e| panic!("{context}: insert after recovery failed: {e}"));
            match (lineitem_count(&recovered), &base_count) {
                (Value::Int(after), Value::Int(before)) => assert_eq!(
                    after,
                    before + 1,
                    "{context}: insert after recovery did not land"
                ),
                other => panic!("{context}: unexpected COUNT(*) values: {other:?}"),
            }
        }
    }
}

/// Direct on-disk corruption of a *committed* tail transaction: a flipped
/// bit and mid-frame truncation must both be detected and drop exactly the
/// tail transaction — never anything before it, never garbage after it.
#[test]
fn physical_corruption_drops_only_the_tail_transaction() {
    let (config, data) = mth_data();
    let path = tmp("corruption-base");
    let engine_config = EngineConfig::postgres_like();

    let (before, committed_len, base_count) = {
        let deployment = loader::load_durable_from_data(*config, engine_config, data, &path)
            .expect("durable load");
        let before = fingerprint(&deployment.server);
        let committed_len = std::fs::metadata(&path).expect("WAL metadata").len();
        let count = lineitem_count(&deployment.server);
        let row = scoped_lineitem_row(&deployment.server);
        deployment
            .server
            .load_rows("lineitem", vec![row])
            .expect("committed tail insert");
        (before, committed_len, count)
    };

    // A bit flip inside the tail transaction's first frame: the checksum
    // catches it and recovery ends the trusted region before the frame.
    {
        let scratch = tmp("corruption-bitflip");
        std::fs::copy(&path, &scratch).expect("copy WAL");
        let mut bytes = std::fs::read(&scratch).expect("read WAL");
        let at = committed_len as usize + 9;
        assert!(at < bytes.len(), "flip offset must land in the tail frame");
        bytes[at] ^= 0x20;
        std::fs::write(&scratch, &bytes).expect("write corrupted WAL");

        let recovered = loader::reopen_durable(engine_config, &scratch).expect("recovery");
        assert_eq!(lineitem_count(&recovered), base_count);
        assert_fingerprints_match(&before, &fingerprint(&recovered), "bit flip");
    }

    // Truncation mid-frame (a torn tail at rest) and truncation to exactly
    // the committed prefix: both recover to the pre-insert state.
    for (label, extra) in [("mid-frame truncation", 7u64), ("clean truncation", 0u64)] {
        let scratch = tmp(&format!("corruption-truncate-{extra}"));
        std::fs::copy(&path, &scratch).expect("copy WAL");
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&scratch)
            .expect("open WAL");
        file.set_len(committed_len + extra).expect("truncate WAL");
        drop(file);

        let recovered = loader::reopen_durable(engine_config, &scratch).expect("recovery");
        assert_eq!(lineitem_count(&recovered), base_count, "{label}");
        assert_fingerprints_match(&before, &fingerprint(&recovered), label);
    }
}

// ---------------------------------------------------------------------
// PR 10: multi-statement transactions and group commit
// ---------------------------------------------------------------------

/// The multi-statement workload the PR 10 sweeps crash: two INSERT
/// statements staged under one BEGIN, committed together. All WAL frames
/// (one per staged record plus the commit marker) are appended at COMMIT,
/// so every injected crash fires inside the commit append.
fn txn_workload(server: &Arc<MtBase>) -> mtbase::Result<()> {
    let mut conn = server.connect(1);
    conn.execute("BEGIN")?;
    conn.execute(
        "INSERT INTO lineitem VALUES (999901, 1, 1, 1, 5, 100.0, 0.05, 0.02, 'N', 'O', \
         DATE '1995-01-01', DATE '1995-02-01', DATE '1995-03-01', \
         'DELIVER IN PERSON', 'TRUCK', 'pr10 txn row one')",
    )?;
    conn.execute(
        "INSERT INTO lineitem VALUES (999902, 1, 1, 1, 7, 200.0, 0.05, 0.02, 'N', 'O', \
         DATE '1995-01-01', DATE '1995-02-01', DATE '1995-03-01', \
         'DELIVER IN PERSON', 'TRUCK', 'pr10 txn row two')",
    )?;
    conn.execute("COMMIT")?;
    Ok(())
}

/// The PR 10 headline sweep: crash at every WAL frame of a multi-statement
/// transaction's commit append, under every fault mode. The failed COMMIT
/// must roll the in-memory application back *before* any restart (the undo
/// log), and recovery must land on the pre-transaction state — all 22
/// queries bit-identical, counters included.
#[test]
fn txn_crash_sweep_never_leaks_uncommitted_statements() {
    let (config, data) = mth_data();
    let base = tmp("txn-sweep-base");
    let engine_config = EngineConfig::postgres_like();

    let (reference, base_count) = {
        let deployment = loader::load_durable_from_data(*config, engine_config, data, &base)
            .expect("durable load");
        let reference = fingerprint(&deployment.server);
        let count = lineitem_count(&deployment.server);
        (reference, count)
    };

    // Enumerate the commit append's frames with an observer clock, and pin
    // the committed baseline: the uninterrupted workload lands both rows.
    let ops = {
        let scratch = tmp("txn-sweep-enumerate");
        std::fs::copy(&base, &scratch).expect("copy WAL");
        let server = loader::reopen_durable(engine_config, &scratch).expect("reopen");
        let clock = FailpointClock::observe();
        server.set_failpoint_clock(Arc::clone(&clock));
        txn_workload(&server).expect("observed transaction");
        match (lineitem_count(&server), &base_count) {
            (Value::Int(after), Value::Int(before)) => {
                assert_eq!(after, before + 2, "the committed workload lands both rows")
            }
            other => panic!("unexpected COUNT(*) values: {other:?}"),
        }
        clock.ops()
    };
    assert!(
        ops >= 3,
        "two staged INSERT records plus a commit marker, got {ops} frames"
    );

    let modes = match std::env::var("WAL_FAULT_MODE").as_deref() {
        Ok("torn-write") => vec![CrashMode::TornWrite],
        Ok("pre-fsync-loss") => vec![CrashMode::PreFsyncLoss],
        Ok("bit-flip") => vec![CrashMode::BitFlip],
        Ok(other) => panic!("unknown WAL_FAULT_MODE `{other}`"),
        Err(_) => vec![
            CrashMode::TornWrite,
            CrashMode::PreFsyncLoss,
            CrashMode::BitFlip,
        ],
    };
    for mode in modes {
        for crash_at in 1..=ops {
            let context = format!("txn {mode:?} at frame {crash_at}/{ops}");
            let scratch = tmp(&format!("txn-crash-{mode:?}-{crash_at}"));
            std::fs::copy(&base, &scratch).expect("copy WAL");

            {
                let server = loader::reopen_durable(engine_config, &scratch).expect("reopen");
                let clock = FailpointClock::crash_at(crash_at, mode);
                server.set_failpoint_clock(Arc::clone(&clock));
                let err =
                    txn_workload(&server).expect_err("the injected crash must fail the COMMIT");
                assert!(
                    matches!(err, MtError::Durability(_)),
                    "{context}: expected a durability error, got: {err}"
                );
                assert!(clock.fired(), "{context}: the crash point never fired");
                // The failed commit already rolled the in-memory application
                // back — no restart needed to get the committed state.
                assert_eq!(
                    lineitem_count(&server),
                    base_count,
                    "{context}: the failed COMMIT left staged rows applied in memory"
                );
                assert_eq!(
                    server.stats().txn_rollbacks,
                    1,
                    "{context}: the failed COMMIT must count as a rollback"
                );
            }

            // "Restart": recovery sees at most a torn uncommitted suffix.
            let recovered = loader::reopen_durable(engine_config, &scratch).expect("recovery");
            assert_eq!(
                lineitem_count(&recovered),
                base_count,
                "{context}: the crashed transaction leaked into recovery"
            );
            assert_fingerprints_match(&reference, &fingerprint(&recovered), &context);

            // The recovered writer is healthy: the retried transaction lands.
            txn_workload(&recovered)
                .unwrap_or_else(|e| panic!("{context}: transaction after recovery failed: {e}"));
            match (lineitem_count(&recovered), &base_count) {
                (Value::Int(after), Value::Int(before)) => assert_eq!(
                    after,
                    before + 2,
                    "{context}: transaction after recovery did not land"
                ),
                other => panic!("{context}: unexpected COUNT(*) values: {other:?}"),
            }
        }
    }
}

/// Explicit ROLLBACK: the transaction's rows are visible to its own reads
/// (live), invisible to other connections (committed snapshot floor), and
/// after ROLLBACK the deployment — memory *and* log — is bit-identical to
/// the pre-transaction state.
#[test]
fn explicit_rollback_restores_fingerprint_and_count() {
    let (config, data) = mth_data();
    let path = tmp("rollback");
    let engine_config = EngineConfig::postgres_like();
    let deployment =
        loader::load_durable_from_data(*config, engine_config, data, &path).expect("durable load");
    let server = &deployment.server;
    let reference = fingerprint(server);
    let base_count = lineitem_count(server);

    let count_sql = "SELECT COUNT(*) FROM lineitem WHERE l_orderkey >= 999901";
    let mut conn = server.connect(1);
    conn.execute("BEGIN").expect("BEGIN");
    conn.execute(
        "INSERT INTO lineitem VALUES (999901, 1, 1, 1, 5, 100.0, 0.05, 0.02, 'N', 'O', \
         DATE '1995-01-01', DATE '1995-02-01', DATE '1995-03-01', \
         'DELIVER IN PERSON', 'TRUCK', 'pr10 rollback row')",
    )
    .expect("staged INSERT");
    let own = conn.query(count_sql).expect("read-your-writes count");
    assert_eq!(
        own.rows,
        vec![vec![Value::Int(1)]],
        "the transaction must see its own staged row"
    );
    let other = server
        .connect(1)
        .query(count_sql)
        .expect("snapshot count from another connection");
    assert_eq!(
        other.rows,
        vec![vec![Value::Int(0)]],
        "another connection must not see the uncommitted row"
    );
    conn.execute("ROLLBACK").expect("ROLLBACK");
    assert!(!conn.in_transaction());

    assert_eq!(
        lineitem_count(server),
        base_count,
        "rollback restores the count"
    );
    assert_eq!(server.stats().txn_rollbacks, 1);
    assert_fingerprints_match(&reference, &fingerprint(server), "after ROLLBACK");

    // Nothing was logged: recovery agrees with the rollback.
    drop(conn);
    drop(deployment);
    let recovered = loader::reopen_durable(engine_config, &path).expect("reopen");
    assert_eq!(lineitem_count(&recovered), base_count);
    assert_fingerprints_match(
        &reference,
        &fingerprint(&recovered),
        "reopen after ROLLBACK",
    );
}

/// Group commit under concurrency: writers of *different* tenants take
/// different bucket locks and commit in parallel, sharing flushes — fewer
/// fsyncs than commits — and every commit is durable across a reopen.
#[test]
fn concurrent_writers_share_flushes_and_recover_durably() {
    let path = tmp("group-commit");
    let server = MtBase::open_durable(EngineConfig::default(), &path).expect("durable open");
    let ddl = "CREATE TABLE Items SPECIFIC (
        I_item_id INTEGER NOT NULL SPECIFIC,
        I_tag VARCHAR(32) NOT NULL COMPARABLE
    )";
    match mtsql::parse_statement(ddl).expect("DDL parses") {
        Statement::CreateTable(ct) => server.create_table(&ct).expect("create table"),
        _ => panic!("expected CREATE TABLE"),
    }
    const WRITERS: i64 = 4;
    const ROWS_PER_WRITER: i64 = 50;
    for t in 1..=WRITERS {
        server.register_tenant(t).expect("register tenant");
    }
    let before = server.stats();

    let threads: Vec<_> = (1..=WRITERS)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut conn = server.connect(t);
                for i in 0..ROWS_PER_WRITER {
                    conn.execute(&format!(
                        "INSERT INTO Items VALUES ({}, 'writer-{t}')",
                        t * 1000 + i
                    ))
                    .expect("concurrent insert");
                }
            })
        })
        .collect();
    for handle in threads {
        handle.join().expect("writer thread");
    }

    let stats = server.stats().delta_from(&before);
    assert_eq!(stats.txn_commits, (WRITERS * ROWS_PER_WRITER) as u64);
    assert!(stats.wal_fsyncs > 0, "commits must reach the disk");
    assert!(
        stats.wal_fsyncs < stats.wal_commits,
        "group commit must batch at least one flush: {} fsyncs for {} commits",
        stats.wal_fsyncs,
        stats.wal_commits
    );
    let count = server
        .raw_query("SELECT COUNT(*) FROM Items")
        .expect("count Items")
        .rows[0][0]
        .clone();
    assert_eq!(count, Value::Int(WRITERS * ROWS_PER_WRITER));

    drop(server);
    let recovered = MtBase::open_durable(EngineConfig::default(), &path).expect("recovery");
    let count = recovered
        .raw_query("SELECT COUNT(*) FROM Items")
        .expect("count Items after recovery")
        .rows[0][0]
        .clone();
    assert_eq!(
        count,
        Value::Int(WRITERS * ROWS_PER_WRITER),
        "every concurrent commit must survive recovery"
    );
}

/// Satellite: a write failure during the WAL append must leave the
/// in-memory state untouched (validate → log → apply). Exercised on both
/// writer paths: the auto-commit statement path and the staged transaction
/// path.
#[test]
fn failed_append_leaves_memory_unapplied() {
    // Auto-commit path: `insert_values` logs before it applies, so a failed
    // append changes neither the rows nor the epoch.
    {
        let path = tmp("append-fail-autocommit");
        let mut engine =
            mtengine::Engine::open(EngineConfig::default(), &path).expect("durable engine");
        engine.create_table("t", &["ttid", "v"]);
        engine.set_table_partition("t", "ttid").expect("partition");
        engine
            .insert_values("t", vec![vec![Value::Int(1), Value::Int(10)]])
            .expect("baseline insert");
        let rows_before = engine.query("SELECT * FROM t").expect("scan").rows;
        let epoch_before = engine.current_epoch();

        engine.set_failpoint_clock(FailpointClock::crash_at(1, CrashMode::TornWrite));
        engine
            .insert_values("t", vec![vec![Value::Int(1), Value::Int(11)]])
            .expect_err("the injected append failure must fail the insert");
        assert_eq!(
            engine.query("SELECT * FROM t").expect("scan").rows,
            rows_before,
            "a failed append must not leave the insert applied"
        );
        assert_eq!(
            engine.current_epoch(),
            epoch_before,
            "a failed append must not consume an epoch"
        );
    }

    // Transaction path: statements applied under uncommitted epochs are
    // undone when the commit append fails — the committed floor returns to
    // the live epoch and the rows are gone.
    {
        let path = tmp("append-fail-txn");
        let mut engine =
            mtengine::Engine::open(EngineConfig::default(), &path).expect("durable engine");
        engine.create_table("t", &["ttid", "v"]);
        engine.set_table_partition("t", "ttid").expect("partition");
        engine
            .insert_values("t", vec![vec![Value::Int(1), Value::Int(10)]])
            .expect("baseline insert");
        let rows_before = engine.query("SELECT * FROM t").expect("scan").rows;

        let mut txn = engine.begin_transaction();
        let stmt = mtsql::parse_statement("INSERT INTO t VALUES (2, 20)").expect("parse");
        engine
            .txn_execute_statement(&mut txn, &stmt, &mtengine::stats::StmtCtx::new())
            .expect("staged insert");
        engine.set_failpoint_clock(FailpointClock::crash_at(1, CrashMode::PreFsyncLoss));
        engine
            .txn_append(&mut txn)
            .expect_err("the injected append failure must fail the commit");
        engine.txn_rollback(txn);
        assert_eq!(
            engine.query("SELECT * FROM t").expect("scan").rows,
            rows_before,
            "a failed commit append must roll the staged statements back"
        );
        assert_eq!(
            engine.committed_epoch(),
            engine.current_epoch(),
            "the rolled-back transaction must release its epochs"
        );
    }
}

/// Satellite: a typo'd environment override fails loudly at startup (durable
/// open) instead of silently falling back to the default.
#[test]
fn malformed_env_override_is_a_startup_error() {
    // Env vars are process-global, so the probe uses MT_THREADS: its lazy
    // readers ignore malformed values, so a parallel test that races the
    // window below sees exactly the unset-variable behaviour. (The sweeps
    // *panic* on an unknown WAL_FAULT_MODE, so that variable is never set
    // here.)
    std::env::set_var("MT_THREADS", "four");
    let outcome = MtBase::open_durable(EngineConfig::default(), &tmp("env-check"));
    std::env::remove_var("MT_THREADS");
    let err = match outcome {
        Err(e) => e.to_string(),
        Ok(_) => panic!("a malformed MT_THREADS must fail the durable open"),
    };
    assert!(
        err.contains("MT_THREADS") && err.contains("four"),
        "the startup error must name the variable and the bad value: {err}"
    );
}

/// Satellite: replaying a log whose inserts demoted a dictionary column
/// mid-table must land the `dict_columns` gauge at its pre-crash value —
/// replay re-runs the demotion, it does not re-encode demoted columns.
#[test]
fn dict_gauge_survives_recovery_of_mid_table_demotion() {
    let path = tmp("demotion");
    let server = MtBase::open_durable(EngineConfig::default(), &path).expect("durable open");
    let ddl = "CREATE TABLE Items SPECIFIC (
        I_item_id INTEGER NOT NULL SPECIFIC,
        I_tag VARCHAR(32) NOT NULL COMPARABLE
    )";
    match mtsql::parse_statement(ddl).expect("DDL parses") {
        Statement::CreateTable(ct) => server.create_table(&ct).expect("create table"),
        _ => unreachable!(),
    }
    for t in 1..=2 {
        server.register_tenant(t).expect("register tenant");
    }
    server.grant_read_all(1).expect("grant read");
    let tags = ["alpha", "beta", "gamma", "delta"];
    let rows: Vec<Vec<Value>> = (0..80)
        .map(|i| {
            vec![
                Value::Int(i % 2 + 1),
                Value::Int(i),
                Value::str(tags[(i % 4) as usize]),
            ]
        })
        .collect();
    server.load_rows("Items", rows).expect("load Items");
    assert!(server.stats().dict_columns > 0, "tag column starts encoded");

    // Demote tenant 1's bucket mid-table; tenant 2's stays encoded.
    let overflow: Vec<Vec<Value>> = (0..mtengine::table::DICT_MAX_DISTINCT as i64 + 8)
        .map(|i| {
            vec![
                Value::Int(1),
                Value::Int(1000 + i),
                Value::str(format!("unique-{i:05}")),
            ]
        })
        .collect();
    server.load_rows("Items", overflow).expect("overflow load");
    let gauge_before = server.stats().dict_columns;
    assert_eq!(gauge_before, 1, "tenant 1 demotes, tenant 2 stays encoded");

    let queries = [
        "SELECT COUNT(*) FROM Items WHERE I_tag = 'alpha'",
        "SELECT COUNT(*) FROM Items WHERE I_tag LIKE 'unique-%'",
    ];
    let results_before: Vec<ResultSet> = {
        let mut conn = server.connect(1);
        conn.execute("SET SCOPE = \"IN (1, 2)\"").unwrap();
        queries.iter().map(|q| conn.query(q).unwrap()).collect()
    };
    drop(server);

    let recovered = MtBase::open_durable(EngineConfig::default(), &path).expect("recovery");
    assert_eq!(
        recovered.stats().dict_columns,
        gauge_before,
        "replay must re-run the mid-table demotion, not re-encode the column"
    );
    let results_after: Vec<ResultSet> = {
        let mut conn = recovered.connect(1);
        conn.execute("SET SCOPE = \"IN (1, 2)\"").unwrap();
        queries.iter().map(|q| conn.query(q).unwrap()).collect()
    };
    assert_eq!(results_before, results_after, "demotion results drifted");
}
