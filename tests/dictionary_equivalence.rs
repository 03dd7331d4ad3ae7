//! Differential MT-H sweep pinning the dictionary-encoding tentpole: all 22
//! MT-H queries run across the {dict, no-dict} × {parallel, serial}
//! configuration cross on the *same* generated data, and
//! every cell must return identical row-sets with identical `rows_scanned`
//! and `partitions_pruned` counters. Dictionary encoding is a physical
//! storage decision — any observable difference is an executor bug.
//!
//! Also pinned here: the code-space kernels actually engage on the
//! dictionary deployments (`dict_kernel_rows`), and cardinality-threshold
//! demotion mid-table neither changes query results nor invalidates prepared
//! statements bound across the demotion.

use std::sync::{Arc, OnceLock};

use mtbase::{EngineConfig, MtBase, Value};
use mth::gen::{self, GeneratedData};
use mth::params::{MthConfig, TenantDistribution};
use mth::{loader, queries, MthDeployment};
use mtrewrite::OptLevel;
use mtsql::ast::Statement;

const TENANTS: i64 = 4;
const SCOPE: &str = "SET SCOPE = \"IN (1, 2)\"";

/// The full configuration cross, labelled for failure messages.
struct Fixtures {
    cells: Vec<(&'static str, MthDeployment)>,
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let config = MthConfig {
            scale: 0.08,
            tenants: TENANTS,
            distribution: TenantDistribution::Uniform,
            seed: 42,
        };
        let data: GeneratedData = gen::generate(&config);
        let load = |engine_config| loader::load_from_data(config, engine_config, &data);
        let base = EngineConfig::postgres_like;
        Fixtures {
            cells: vec![
                ("dict/serial", load(base())),
                ("dict/parallel", load(base().with_parallel_scan(4))),
                ("nodict/serial", load(base().without_dictionary_encoding())),
                (
                    "nodict/parallel",
                    load(base().without_dictionary_encoding().with_parallel_scan(4)),
                ),
            ],
        }
    })
}

/// Run one query and return its result plus the scan counters the sweep
/// compares across configurations.
fn run(
    dep: &MthDeployment,
    query: usize,
    level: OptLevel,
    label: &str,
) -> (mtbase::ResultSet, u64, u64) {
    let mut conn = dep.server.connect(1);
    conn.set_opt_level(level);
    conn.execute(SCOPE).expect("scope statement");
    let rs = conn
        .query(&queries::query(query))
        .unwrap_or_else(|e| panic!("Q{query} at {level:?} on {label}: {e}"));
    let stats = conn.last_query_stats();
    (rs, stats.rows_scanned, stats.partitions_pruned)
}

/// All 22 MT-H queries at o2: identical results and identical scan counters
/// across the whole {dict, no-dict} × {parallel, serial} cross.
#[test]
fn all_queries_agree_across_the_dictionary_cross() {
    let f = fixtures();
    for query in queries::all_query_numbers() {
        let (reference_label, reference_dep) = &f.cells[0];
        let reference = run(reference_dep, query, OptLevel::O2, reference_label);
        for (label, dep) in &f.cells[1..] {
            let (rs, rows_scanned, pruned) = run(dep, query, OptLevel::O2, label);
            assert_eq!(
                reference.0, rs,
                "Q{query}: {label} differs from {reference_label}"
            );
            assert_eq!(
                reference.1, rows_scanned,
                "Q{query}: rows_scanned differs on {label}"
            );
            assert_eq!(
                reference.2, pruned,
                "Q{query}: partitions_pruned differs on {label}"
            );
        }
    }
}

/// The o4 rewrites wrap scans in derived tables; the dictionary axis must
/// stay invisible there too. A focused subset keeps the sweep fast — the
/// kernel-heavy queries plus the correlated Q22.
#[test]
fn kernel_heavy_queries_agree_at_o4() {
    let f = fixtures();
    for query in [1usize, 6, 12, 14, 22] {
        let (reference_label, reference_dep) = &f.cells[0];
        let reference = run(reference_dep, query, OptLevel::O4, reference_label);
        for (label, dep) in &f.cells[1..] {
            let (rs, rows_scanned, pruned) = run(dep, query, OptLevel::O4, label);
            assert_eq!(
                reference.0, rs,
                "Q{query} at o4: {label} differs from {reference_label}"
            );
            assert_eq!(
                reference.1, rows_scanned,
                "Q{query} at o4: rows_scanned differs on {label}"
            );
            assert_eq!(
                reference.2, pruned,
                "Q{query} at o4: partitions_pruned differs on {label}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Decorrelation axis
// ---------------------------------------------------------------------------

/// MT-H queries whose correlated sub-queries unnest into join plans (Q2's
/// MIN-over-partsupp, Q4's EXISTS, Q17's AVG threshold, Q20's nested SUM,
/// Q22's NOT EXISTS). Pinned as a constant so the engagement assert below
/// fails loudly if a rewrite silently stops firing — a shrinking set is a
/// regression, not a neutral plan change.
const DECORRELATING: &[usize] = &[2, 4, 17, 20, 22];

/// The `without_decorrelation()` twins of the configuration cross: identical
/// generator output and physical layout, correlated sub-queries interpreted
/// per outer row. Decorrelation is a pure plan rewrite — every cell must
/// return identical row-sets; only the scan counters may (and for Q22,
/// massively do) differ.
fn baseline_fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let config = MthConfig {
            scale: 0.08,
            tenants: TENANTS,
            distribution: TenantDistribution::Uniform,
            seed: 42,
        };
        let data: GeneratedData = gen::generate(&config);
        let load = |engine_config| loader::load_from_data(config, engine_config, &data);
        let base = || EngineConfig::postgres_like().without_decorrelation();
        Fixtures {
            cells: vec![
                ("nodecorr/dict/serial", load(base())),
                ("nodecorr/dict/parallel", load(base().with_parallel_scan(4))),
                (
                    "nodecorr/nodict/serial",
                    load(base().without_dictionary_encoding()),
                ),
                (
                    "nodecorr/nodict/parallel",
                    load(base().without_dictionary_encoding().with_parallel_scan(4)),
                ),
            ],
        }
    })
}

/// All 22 MT-H queries, decorrelated vs interpreted, cell by cell across the
/// whole {dict, no-dict} × {parallel, serial} cross: row-sets must be
/// bit-identical. Scan counters are deliberately *not*
/// compared across this axis — cutting them is the point of the rewrite.
#[test]
fn all_queries_agree_with_and_without_decorrelation() {
    let decorr = fixtures();
    let baseline = baseline_fixtures();
    for query in queries::all_query_numbers() {
        for ((label, dep), (blabel, bdep)) in decorr.cells.iter().zip(&baseline.cells) {
            let (rs, _, _) = run(dep, query, OptLevel::O2, label);
            let (brs, _, _) = run(bdep, query, OptLevel::O2, blabel);
            assert_eq!(
                rs, brs,
                "Q{query}: decorrelated {label} differs from interpreted {blabel}"
            );
        }
    }
}

/// The decorrelating queries at o4, where rewrites wrap scans in derived
/// tables and Q22's probe side is itself a join tree — the relation-probe
/// fallback path must agree with the interpreted plans too.
#[test]
fn decorrelating_queries_agree_with_interpreted_plans_at_o4() {
    let decorr = fixtures();
    let baseline = baseline_fixtures();
    for &query in DECORRELATING {
        for ((label, dep), (blabel, bdep)) in decorr.cells.iter().zip(&baseline.cells) {
            let (rs, _, _) = run(dep, query, OptLevel::O4, label);
            let (brs, _, _) = run(bdep, query, OptLevel::O4, blabel);
            assert_eq!(
                rs, brs,
                "Q{query} at o4: decorrelated {label} differs from interpreted {blabel}"
            );
        }
    }
}

/// Engagement + rows-scanned ceiling: every query in `DECORRELATING` must
/// actually report `subqueries_unnested` (the rewrite fires), the interpreted
/// baseline must never report it, and the unnested plans must scan no more
/// rows than the interpreted ones. Q22 — the motivating two-orders-of-
/// magnitude case — additionally gets an absolute ceiling: at most 3× the
/// scoped base rows of the two tables it touches, so a regression back to
/// per-outer-row rescans fails even if the baseline regresses with it.
#[test]
fn decorrelation_engages_and_caps_rows_scanned() {
    let f = fixtures();
    let b = baseline_fixtures();
    for &query in DECORRELATING {
        let (_, rows_scanned, _) = run(&f.cells[0].1, query, OptLevel::O2, "decorr");
        let stats = {
            let mut conn = f.cells[0].1.server.connect(1);
            conn.set_opt_level(OptLevel::O2);
            conn.execute(SCOPE).unwrap();
            conn.query(&queries::query(query)).unwrap();
            conn.last_query_stats()
        };
        assert!(
            stats.subqueries_unnested > 0,
            "Q{query}: decorrelation did not fire: {stats:?}"
        );
        let (_, baseline_scanned, _) = run(&b.cells[0].1, query, OptLevel::O2, "nodecorr");
        let bstats = {
            let mut conn = b.cells[0].1.server.connect(1);
            conn.set_opt_level(OptLevel::O2);
            conn.execute(SCOPE).unwrap();
            conn.query(&queries::query(query)).unwrap();
            conn.last_query_stats()
        };
        assert_eq!(
            bstats.subqueries_unnested, 0,
            "Q{query}: the no-decorrelation baseline rewrote a subquery"
        );
        // The build side scans each inner table exactly once, so the
        // unnested plan stays within a small constant of the interpreted
        // count even at scales tiny enough for the interpreted plan to win
        // outright (Q2 here). A rewrite that regressed to per-outer-row
        // rescans would blow far past this.
        assert!(
            rows_scanned <= 3 * baseline_scanned,
            "Q{query}: unnested plan scanned {rows_scanned} rows vs interpreted {baseline_scanned}"
        );
    }

    // Q22's absolute ceiling: scoped base rows of customer + orders, measured
    // through the same scan counters the ceiling is expressed in.
    let base_rows = |table: &str| {
        let mut conn = f.cells[0].1.server.connect(1);
        conn.set_opt_level(OptLevel::O2);
        conn.execute(SCOPE).unwrap();
        conn.query(&format!("SELECT COUNT(*) FROM {table}"))
            .unwrap();
        conn.last_query_stats().rows_scanned
    };
    let base = base_rows("customer") + base_rows("orders");
    let (_, q22_scanned, _) = run(&f.cells[0].1, 22, OptLevel::O2, "decorr");
    assert!(
        q22_scanned <= 3 * base,
        "Q22 scanned {q22_scanned} rows; ceiling is 3x base rows ({base})"
    );
}

/// The dictionary deployments must actually exercise the code-space paths —
/// predicate kernels (Q12's `l_shipmode IN`), code-space grouping (Q1's
/// `l_returnflag, l_linestatus`) and dictionary-decoding materialization
/// (Q4's `orders` scan feeds the semi join and carries the dictionary column
/// `o_orderpriority` up to the grouping) — and the no-dictionary deployments
/// must never report them. (Q6 aggregates straight off the column vectors: it
/// materializes, and therefore decodes, no scan row at all — pinned on a
/// private deployment in `tests/plan_equivalence.rs`.)
#[test]
fn dictionary_paths_engage_only_on_dictionary_deployments() {
    let f = fixtures();
    let stats_for = |cell: usize, query: usize| {
        let (label, dep) = &f.cells[cell];
        let mut conn = dep.server.connect(1);
        conn.set_opt_level(OptLevel::O2);
        conn.execute(SCOPE).expect("scope statement");
        conn.query(&queries::query(query))
            .unwrap_or_else(|e| panic!("Q{query} on {label}: {e}"));
        conn.last_query_stats()
    };
    for query in [1usize, 12, 4] {
        let dict = stats_for(0, query);
        assert!(
            dict.dict_kernel_rows > 0,
            "Q{query} did not engage dictionary code space: {dict:?}"
        );
        for cell in [2, 3] {
            let baseline = stats_for(cell, query);
            assert_eq!(
                baseline.dict_kernel_rows, 0,
                "Q{query} on {} reported dictionary rows",
                f.cells[cell].0
            );
        }
    }
    // The gauge: the dictionary deployment holds encoded columns, the
    // baseline holds none.
    assert!(f.cells[0].1.server.stats().dict_columns > 0);
    assert_eq!(f.cells[2].1.server.stats().dict_columns, 0);
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel execution
// ---------------------------------------------------------------------------

/// The {morsel, serial} axis at a scale where the pool actually engages: the
/// scale-0.08 cross above stays below the parallel-scan row floor (its
/// "parallel" cells pin that the pool declines small scans), so this sweep
/// loads the same generator output at scale 2.0 and compares a pooled
/// deployment against the serial baseline.
struct MorselFixtures {
    morsel: MthDeployment,
    serial: MthDeployment,
}

fn morsel_fixtures() -> &'static MorselFixtures {
    static FIXTURES: OnceLock<MorselFixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let config = MthConfig {
            scale: 2.0,
            tenants: TENANTS,
            distribution: TenantDistribution::Uniform,
            seed: 42,
        };
        let data: GeneratedData = gen::generate(&config);
        let load = |engine_config| loader::load_from_data(config, engine_config, &data);
        MorselFixtures {
            morsel: load(EngineConfig::postgres_like().with_parallel_scan(4)),
            serial: load(EngineConfig::postgres_like()),
        }
    })
}

/// All 22 MT-H queries at o2: morsel-driven execution must be invisible —
/// identical row-sets and identical scan counters against the serial
/// baseline.
#[test]
fn all_queries_agree_between_morsel_and_serial_execution() {
    let f = morsel_fixtures();
    for query in queries::all_query_numbers() {
        let reference = run(&f.serial, query, OptLevel::O2, "serial");
        let (rs, rows_scanned, pruned) = run(&f.morsel, query, OptLevel::O2, "morsel");
        assert_eq!(reference.0, rs, "Q{query}: morsel differs from serial");
        assert_eq!(
            reference.1, rows_scanned,
            "Q{query}: rows_scanned differs under the pool"
        );
        assert_eq!(
            reference.2, pruned,
            "Q{query}: partitions_pruned differs under the pool"
        );
    }
}

/// Q1 and Q6 must run scan → filter → partial-aggregate end to end under the
/// worker pool: morsels dispatched, more than one worker, and per-morsel
/// partial aggregate states merged at the end.
#[test]
fn q1_and_q6_aggregate_under_the_morsel_pool() {
    let f = morsel_fixtures();
    for query in [1usize, 6] {
        let mut conn = f.morsel.server.connect(1);
        conn.set_opt_level(OptLevel::O2);
        conn.execute("SET SCOPE = \"IN (1, 2, 3, 4)\"").unwrap();
        conn.query(&queries::query(query)).unwrap();
        let stats = conn.last_query_stats();
        assert!(
            stats.morsels_dispatched > 0,
            "Q{query}: expected morsels on the pooled deployment, stats: {stats:?}"
        );
        assert!(
            stats.morsel_workers > 1,
            "Q{query}: expected more than one pool worker, stats: {stats:?}"
        );
        assert!(
            stats.partial_agg_merges > 0,
            "Q{query}: expected per-morsel partial aggregates, stats: {stats:?}"
        );

        // The serial baseline must report none of it (unless an MT_THREADS
        // override deliberately forces the pool on, as CI's forced leg does).
        if std::env::var("MT_THREADS").is_err() {
            let mut conn = f.serial.server.connect(1);
            conn.set_opt_level(OptLevel::O2);
            conn.execute("SET SCOPE = \"IN (1, 2, 3, 4)\"").unwrap();
            conn.query(&queries::query(query)).unwrap();
            let stats = conn.last_query_stats();
            assert_eq!(
                stats.morsels_dispatched, 0,
                "Q{query}: serial dispatched morsels"
            );
            assert_eq!(stats.morsel_workers, 0, "Q{query}: serial reported workers");
            assert_eq!(
                stats.partial_agg_merges, 0,
                "Q{query}: serial merged partials"
            );
        }
    }
}

/// A blocking cursor pinned before racing INSERTs must materialize from its
/// open-time watermark even when the scan itself runs on the morsel pool —
/// every morsel is bounded at the cursor's per-bucket `(epoch, len)`
/// snapshot, so post-pin rows never leak into the drained result.
#[test]
fn pinned_cursor_under_the_morsel_pool_never_observes_racing_inserts() {
    let server = items_server(EngineConfig::default().with_parallel_scan(4));
    // Grow Items past the parallel-scan row floor so the pinned scan pools:
    // 12_000 extra 'gamma' rows in tenant 1's bucket.
    let bulk: Vec<Vec<Value>> = (0..12_000i64)
        .map(|i| vec![Value::Int(1), Value::Int(100_000 + i), Value::str("gamma")])
        .collect();
    server.load_rows("Items", bulk).expect("bulk load");

    let mut conn = server.connect(1);
    conn.execute(SCOPE).expect("scope statement");
    let mut stmt = conn
        .prepare("SELECT I_item_id FROM Items WHERE I_tag = 'gamma' ORDER BY I_item_id")
        .unwrap();
    let before = server.stats();
    let mut cursor = stmt.cursor_with_batch(512).unwrap();
    assert!(!cursor.is_streaming(), "ORDER BY must materialize at open");
    assert!(
        server.stats().morsels_dispatched > before.morsels_dispatched,
        "the pinned materializing scan was expected to run on the pool"
    );

    // Commit new matching rows while the cursor drains.
    let writer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            for i in 0..50i64 {
                server
                    .load_rows(
                        "Items",
                        vec![vec![
                            Value::Int(1),
                            Value::Int(200_000 + i),
                            Value::str("gamma"),
                        ]],
                    )
                    .expect("racing insert");
            }
        })
    };
    let mut seen = 0usize;
    while let Some(batch) = cursor.next_batch().unwrap() {
        for row in &batch {
            match row[0] {
                // 20 pre-bulk gamma rows carry ids < 100_000.
                Value::Int(id) => assert!(id < 200_000, "post-pin row {id} leaked"),
                ref other => panic!("unexpected id value {other:?}"),
            }
        }
        seen += batch.len();
    }
    writer.join().expect("writer thread");
    assert_eq!(seen, 20 + 12_000, "pinned cursor row count");

    // A fresh query sees the racing rows.
    let live = conn
        .query("SELECT COUNT(*) FROM Items WHERE I_tag = 'gamma'")
        .unwrap();
    assert_eq!(live.rows[0][0], Value::Int(20 + 12_000 + 50));
}

// ---------------------------------------------------------------------------
// Cardinality-threshold demotion
// ---------------------------------------------------------------------------

/// A minimal tenant-specific deployment for the demotion and isolation
/// tests: one table with a low-cardinality tag column, two tenants, no
/// conversion functions.
fn items_server(engine_config: EngineConfig) -> Arc<MtBase> {
    let server = MtBase::new(engine_config);
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
    // 40 rows cycling over 4 tags per tenant: comfortably dictionary-encoded.
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
    server
}

/// The {dict, no-dict} axis the isolation tests sweep — snapshot semantics
/// are a logical property and must not depend on the physical layout.
fn isolation_cells() -> Vec<(&'static str, EngineConfig)> {
    let base = EngineConfig::default;
    vec![
        ("dict", base()),
        ("nodict", base().without_dictionary_encoding()),
    ]
}

/// Inserting past the distinct-value threshold demotes the dictionary column
/// mid-table without changing query results, and a prepared statement bound
/// across the demotion keeps returning correct rows from its cached plan.
#[test]
fn demotion_mid_table_preserves_results_and_prepared_statements() {
    let server = items_server(EngineConfig::default());
    assert!(
        server.stats().dict_columns > 0,
        "the tag column must start dictionary-encoded: {:?}",
        server.stats()
    );

    let mut conn = server.connect(1);
    conn.execute("SET SCOPE = \"IN (1, 2)\"").unwrap();
    let count_alpha = "SELECT COUNT(*) FROM Items WHERE I_tag = 'alpha'";
    let before = conn.query(count_alpha).unwrap();
    assert_eq!(before.rows[0][0], Value::Int(20));

    // Prepare (and execute once) before the demotion, so the plan is cached.
    let mut stmt = conn
        .prepare("SELECT I_item_id FROM Items WHERE I_tag = ? ORDER BY I_item_id")
        .unwrap();
    let prepared_before = stmt.execute_with(&[Value::str("beta")]).unwrap();
    assert_eq!(prepared_before.rows.len(), 20);

    // Blow past DICT_MAX_DISTINCT with unique tags in tenant 1's bucket.
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
    assert_eq!(
        server.stats().dict_columns,
        1,
        "tenant 1's tag column demotes; tenant 2's stays encoded: {:?}",
        server.stats()
    );

    // One-shot results are unchanged for the old rows and see the new ones.
    let after = conn.query(count_alpha).unwrap();
    assert_eq!(after, before, "demotion changed query results");
    let uniques = conn
        .query("SELECT COUNT(*) FROM Items WHERE I_tag LIKE 'unique-%'")
        .unwrap();
    assert_eq!(
        uniques.rows[0][0],
        Value::Int(mtengine::table::DICT_MAX_DISTINCT as i64 + 8)
    );

    // The statement prepared before the demotion still binds and returns
    // correct rows — both for dictionary-era and post-demotion values.
    let prepared_after = stmt.execute_with(&[Value::str("beta")]).unwrap();
    assert_eq!(
        prepared_after, prepared_before,
        "prepared beta rows drifted"
    );
    let prepared_unique = stmt.execute_with(&[Value::str("unique-00003")]).unwrap();
    assert_eq!(prepared_unique.rows, vec![vec![Value::Int(1003)]]);
    assert!(
        stmt.last_query_stats().prepared_cache_hits > 0,
        "re-execution must come from the plan cache: {:?}",
        stmt.last_query_stats()
    );
}

// ---------------------------------------------------------------------------
// Writers racing scanners & cursor snapshot isolation
// ---------------------------------------------------------------------------

/// A writer appends whole batches (one row per tag, atomically — one WAL-style
/// transaction per `load_rows`) while a scanner races it with one-shot
/// queries. Every scan must observe a batch-atomic snapshot: the per-tag
/// counts are always identical, never a half-applied batch — in every cell of
/// the layout cross.
#[test]
fn scanner_racing_writer_only_observes_whole_batches() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let tags = ["alpha", "beta", "gamma", "delta"];
    for (label, engine_config) in isolation_cells() {
        let server = items_server(engine_config);
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let server = Arc::clone(&server);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for batch in 0..50i64 {
                    let rows: Vec<Vec<Value>> = tags
                        .iter()
                        .enumerate()
                        .map(|(t, tag)| {
                            vec![
                                Value::Int(1),
                                Value::Int(10_000 + batch * 4 + t as i64),
                                Value::str(*tag),
                            ]
                        })
                        .collect();
                    server.load_rows("Items", rows).expect("racing batch");
                }
                done.store(true, Ordering::SeqCst);
            })
        };

        let mut conn = server.connect(1);
        conn.execute(SCOPE).expect("scope statement");
        let mut scans = 0u64;
        loop {
            let finished = done.load(Ordering::SeqCst);
            let rs = conn
                .query("SELECT I_tag, COUNT(*) FROM Items GROUP BY I_tag")
                .unwrap_or_else(|e| panic!("{label}: racing scan failed: {e}"));
            assert_eq!(rs.rows.len(), 4, "{label}: a tag group went missing");
            let first = &rs.rows[0][1];
            for row in &rs.rows {
                assert_eq!(
                    &row[1], first,
                    "{label}: scan observed a half-applied batch: {:?}",
                    rs.rows
                );
            }
            scans += 1;
            if finished {
                break;
            }
        }
        writer.join().expect("writer thread");
        assert!(scans > 0);
        let total = conn.query("SELECT COUNT(*) FROM Items").unwrap();
        assert_eq!(
            total.rows[0][0],
            Value::Int(80 + 50 * 4),
            "{label}: final row count"
        );
    }
}

/// A cursor opened before a concurrent INSERT never yields the new rows —
/// streaming cursors are bounded by the open-time watermark, blocking plans
/// materialize at open — in every cell of the layout cross, even when the
/// writer commits *while* the cursor is being drained.
#[test]
fn cursor_opened_before_insert_never_observes_it() {
    for (label, engine_config) in isolation_cells() {
        let server = items_server(engine_config);
        let mut conn = server.connect(1);
        conn.execute(SCOPE).expect("scope statement");

        // Streaming shape (scan–filter–project): drained batch-at-a-time
        // while a racing writer commits between fetches.
        let mut stmt = conn
            .prepare("SELECT I_item_id FROM Items WHERE I_tag = 'alpha'")
            .unwrap();
        let mut cursor = stmt.cursor_with_batch(4).unwrap();
        assert!(cursor.is_streaming(), "{label}: expected a streaming plan");
        let writer = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                for i in 0..100i64 {
                    server
                        .load_rows(
                            "Items",
                            vec![vec![
                                Value::Int(1),
                                Value::Int(5_000 + i),
                                Value::str("alpha"),
                            ]],
                        )
                        .expect("racing insert");
                }
            })
        };
        let mut seen = Vec::new();
        while let Some(batch) = cursor.next_batch().unwrap() {
            for row in batch {
                match row[0] {
                    Value::Int(id) => seen.push(id),
                    ref other => panic!("{label}: unexpected id value {other:?}"),
                }
            }
        }
        writer.join().expect("writer thread");
        seen.sort_unstable();
        let expected: Vec<i64> = (0..80).filter(|i| i % 4 == 0).collect();
        assert_eq!(
            seen, expected,
            "{label}: pinned streaming cursor leaked post-open rows"
        );

        // A fresh one-shot query (and a fresh cursor) see the new rows.
        let live = conn
            .query("SELECT COUNT(*) FROM Items WHERE I_tag = 'alpha'")
            .unwrap();
        assert_eq!(live.rows[0][0], Value::Int(20 + 100), "{label}: live count");

        // Blocking shape (ORDER BY materializes at open): rows committed
        // after the open never appear either.
        let mut blocking = conn
            .prepare("SELECT I_item_id FROM Items WHERE I_tag = 'beta' ORDER BY I_item_id")
            .unwrap();
        let mut cursor = blocking.cursor().unwrap();
        assert!(!cursor.is_streaming(), "{label}: expected a blocking plan");
        server
            .load_rows(
                "Items",
                vec![vec![Value::Int(1), Value::Int(7_000), Value::str("beta")]],
            )
            .expect("post-open insert");
        let mut ids = Vec::new();
        while let Some(row) = cursor.next_row().unwrap() {
            match row[0] {
                Value::Int(id) => ids.push(id),
                ref other => panic!("{label}: unexpected id value {other:?}"),
            }
        }
        let expected: Vec<i64> = (0..80).filter(|i| i % 4 == 1).collect();
        assert_eq!(
            ids, expected,
            "{label}: pinned blocking cursor leaked post-open rows"
        );
    }
}
