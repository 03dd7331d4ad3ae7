//! Property tests pinning executor equivalence across storage and scan
//! configurations: for randomized MT-H queries at o1–o4, the {parallel,
//! serial, unpruned} engine configurations — plus the dictionary-encoding
//! axis — must return identical row-sets. All configurations load the *same* generated data, so any
//! divergence is an executor bug, not a data artifact. (The exhaustive
//! dictionary sweep over all 22 queries lives in
//! `tests/dictionary_equivalence.rs`.)

use std::sync::OnceLock;

use mtbase::EngineConfig;
use mth::gen::{self, GeneratedData};
use mth::params::{MthConfig, TenantDistribution};
use mth::{loader, queries, MthDeployment};
use mtrewrite::OptLevel;
use proptest::prelude::*;

const TENANTS: i64 = 4;
/// Fast-running MT-H queries covering scans, joins, grouping, derived tables
/// and correlated sub-queries.
const QUERY_POOL: [usize; 8] = [1, 3, 5, 6, 10, 12, 14, 22];
const LEVELS: [OptLevel; 4] = [OptLevel::O1, OptLevel::O2, OptLevel::O3, OptLevel::O4];
const SCOPES: [&str; 3] = [
    "SET SCOPE = \"IN (1)\"",
    "SET SCOPE = \"IN (1, 3)\"",
    "SET SCOPE = \"IN (1, 2, 3, 4)\"",
];

struct Fixtures {
    /// Dictionary-encoded buckets (the default), pruning on, parallel scans.
    parallel: MthDeployment,
    /// Serial scans.
    serial: MthDeployment,
    /// Partition pruning disabled (full-scan baseline).
    unpruned: MthDeployment,
    /// No dictionary encoding — the plain `Arc<str>` baseline the code-space
    /// kernels are verified against.
    nodict: MthDeployment,
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        // Scale 2.0 keeps lineitem above the parallel-scan row threshold so
        // scoped scans actually exercise the fan-out path.
        let config = MthConfig {
            scale: 2.0,
            tenants: TENANTS,
            distribution: TenantDistribution::Uniform,
            seed: 42,
        };
        let data: GeneratedData = gen::generate(&config);
        let load = |engine_config| loader::load_from_data(config, engine_config, &data);
        Fixtures {
            parallel: load(EngineConfig::postgres_like().with_parallel_scan(4)),
            serial: load(EngineConfig::postgres_like()),
            unpruned: load(EngineConfig::postgres_like().without_partition_pruning()),
            nodict: load(EngineConfig::postgres_like().without_dictionary_encoding()),
        }
    })
}

fn run(dep: &MthDeployment, scope: &str, query: usize, level: OptLevel) -> mtbase::ResultSet {
    let mut conn = dep.server.connect(1);
    conn.set_opt_level(level);
    conn.execute(scope).expect("scope statement");
    conn.query(&queries::query(query))
        .unwrap_or_else(|e| panic!("Q{query} at {level:?} with `{scope}`: {e}"))
}

proptest! {
    /// The same randomized (query, level, scope) cell must produce identical
    /// row-sets across the {parallel, serial, unpruned, nodict}
    /// configurations.
    #[test]
    fn plan_executor_matches_across_storage_and_scan_configs(
        q_idx in 0_usize..QUERY_POOL.len(),
        level_idx in 0_usize..LEVELS.len(),
        scope_idx in 0_usize..SCOPES.len(),
    ) {
        let f = fixtures();
        let query = QUERY_POOL[q_idx];
        let level = LEVELS[level_idx];
        let scope = SCOPES[scope_idx];

        let parallel = run(&f.parallel, scope, query, level);
        let serial = run(&f.serial, scope, query, level);
        let unpruned = run(&f.unpruned, scope, query, level);
        let nodict = run(&f.nodict, scope, query, level);

        // The shim's prop_assert_eq! takes no context message; panic output
        // identifies the failing cell through the stringified expressions.
        prop_assert_eq!(&parallel, &serial);
        prop_assert_eq!(&serial, &unpruned);
        prop_assert_eq!(&serial, &nodict);
    }
}

/// Parameterized query templates for the prepared-statement equivalence
/// property, paired with pools of candidate parameter vectors.
const PREPARED_TEMPLATES: [&str; 4] = [
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
     WHERE l_quantity < ? AND l_discount BETWEEN ? AND ?",
    "SELECT l_orderkey, l_quantity FROM lineitem \
     WHERE l_quantity >= $1 AND l_shipmode = $2 ORDER BY l_orderkey, l_quantity",
    "SELECT COUNT(*) FROM lineitem WHERE ttid = ?",
    "SELECT l_returnflag, COUNT(*) AS cnt FROM lineitem \
     WHERE l_quantity BETWEEN ? AND ? GROUP BY l_returnflag ORDER BY l_returnflag",
];

fn template_params(template_idx: usize, variant: usize) -> Vec<mtbase::Value> {
    use mtbase::Value;
    match template_idx {
        0 => {
            let q = [11, 24, 35][variant % 3];
            let lo = [0.02, 0.05][variant % 2];
            vec![Value::Int(q), Value::Float(lo), Value::Float(lo + 0.02)]
        }
        1 => {
            let q = [45, 48][variant % 2];
            let mode = ["MAIL", "SHIP", "RAIL"][variant % 3];
            vec![Value::Int(q), Value::str(mode)]
        }
        2 => vec![Value::Int((variant % 4) as i64 + 1)],
        _ => {
            let lo = [5, 20][variant % 2] as i64;
            vec![Value::Int(lo), Value::Int(lo + 15)]
        }
    }
}

/// Render a parameter value as a SQL literal (for the inlined one-shot
/// counterpart of a prepared execution).
fn literal(v: &mtbase::Value) -> String {
    use mtbase::Value;
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Str(s) => format!("'{s}'"),
        other => panic!("no literal form for {other:?}"),
    }
}

/// Substitute `?` / `$n` placeholders with inlined literals, in order (the
/// templates use each parameter exactly once, in positional order).
fn inline_literals(template: &str, params: &[mtbase::Value]) -> String {
    let mut out = String::new();
    let mut next = 0usize;
    let mut chars = template.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '?' => {
                out.push_str(&literal(&params[next]));
                next += 1;
            }
            '$' if chars.peek().is_some_and(|c| c.is_ascii_digit()) => {
                let mut n = 0usize;
                while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
                    n = n * 10 + d as usize;
                    chars.next();
                }
                out.push_str(&literal(&params[n - 1]));
                next = next.max(n);
            }
            other => out.push(other),
        }
    }
    out
}

proptest! {
    /// Prepared + bound execution must be byte-identical to one-shot
    /// `execute` with the parameter values inlined as literals, on the
    /// parallel and the serial configuration — binding must not change what
    /// the plan computes, only what it is compared to.
    #[test]
    fn prepared_execution_equals_one_shot_with_literals(
        t_idx in 0_usize..PREPARED_TEMPLATES.len(),
        variant in 0_usize..6,
        level_idx in 0_usize..LEVELS.len(),
        scope_idx in 0_usize..SCOPES.len(),
    ) {
        let f = fixtures();
        let template = PREPARED_TEMPLATES[t_idx];
        let params = template_params(t_idx, variant);
        let level = LEVELS[level_idx];
        let scope = SCOPES[scope_idx];
        let inlined = inline_literals(template, &params);

        for dep in [&f.parallel, &f.serial] {
            let mut conn = dep.server.connect(1);
            conn.set_opt_level(level);
            conn.execute(scope).expect("scope statement");
            let mut stmt = conn.prepare(template)
                .unwrap_or_else(|e| panic!("prepare `{template}`: {e}"));
            let prepared = stmt.execute_with(&params)
                .unwrap_or_else(|e| panic!("prepared `{template}` {params:?}: {e}"));
            // Draining the same statement through a cursor must agree too.
            let mut cursor = stmt.cursor_with_batch(128).unwrap();
            let mut streamed: Vec<Vec<mtbase::Value>> = Vec::new();
            while let Some(batch) = cursor.next_batch().unwrap() {
                streamed.extend(batch);
            }
            let one_shot = conn.query(&inlined)
                .unwrap_or_else(|e| panic!("one-shot `{inlined}`: {e}"));
            prop_assert_eq!(&prepared.rows, &one_shot.rows);
            prop_assert_eq!(&streamed, &one_shot.rows);
        }
    }
}

/// Scans over partition buckets must actually exercise the vectorized scan
/// path, and the loose-row store (the unpartitioned TPC-H baseline engine)
/// must never report it.
#[test]
fn vectorized_path_engages_on_partition_buckets() {
    let f = fixtures();
    let mut conn = f.serial.server.connect(1);
    conn.set_opt_level(OptLevel::O2);
    conn.execute("SET SCOPE = \"IN (1, 2, 3, 4)\"").unwrap();
    conn.query(&queries::query(6)).unwrap();
    let stats = conn.last_query_stats();
    assert!(
        stats.rows_vectorized > 0,
        "expected Q6's lineitem scan to run vectorized, stats: {stats:?}"
    );
    assert!(
        stats.late_materialized < stats.rows_vectorized,
        "Q6's selective filter must late-materialize a strict subset, stats: {stats:?}"
    );

    let before = f.serial.baseline.stats();
    f.serial.baseline.query(&queries::query(6)).unwrap();
    let stats = f.serial.baseline.stats().delta_from(&before);
    assert!(stats.rows_scanned > 0);
    assert_eq!(stats.rows_vectorized, 0, "loose rows must not vectorize");
    assert_eq!(stats.late_materialized, 0);
}

/// Q1 and Q6 aggregate off the column vectors — directly over the scan (o2)
/// and through the per-bucket conversion join (o4) — and late-materialize no
/// scan row. The counters are engine-global, so this runs on a deployment no
/// other test touches.
#[test]
fn scan_fed_aggregates_materialize_no_row() {
    let config = MthConfig {
        scale: 0.05,
        tenants: TENANTS,
        distribution: TenantDistribution::Uniform,
        seed: 42,
    };
    let dep = loader::load(config, EngineConfig::postgres_like());
    let mut conn = dep.server.connect(1);
    conn.execute("SET SCOPE = \"IN (1, 2, 3, 4)\"").unwrap();
    for level in [OptLevel::O2, OptLevel::O4] {
        conn.set_opt_level(level);
        for query in [1usize, 6] {
            let before = dep.server.stats();
            conn.query(&queries::query(query)).unwrap();
            let stats = dep.server.stats().delta_from(&before);
            assert!(
                stats.rows_vectorized > 0,
                "Q{query} at {level:?}: {stats:?}"
            );
            assert_eq!(
                stats.late_materialized, 0,
                "Q{query} at {level:?}: {stats:?}"
            );
        }
    }
}

/// The parallel configuration must actually exercise the parallel scan path
/// (otherwise the property above would vacuously compare serial to serial).
#[test]
fn parallel_path_engages_on_large_scans() {
    let f = fixtures();
    let mut conn = f.parallel.server.connect(1);
    conn.set_opt_level(OptLevel::O2);
    conn.execute("SET SCOPE = \"IN (1, 2, 3, 4)\"").unwrap();
    conn.query(&queries::query(6)).unwrap();
    let stats = conn.last_query_stats();
    assert!(
        stats.morsels_dispatched > 0 && stats.morsel_workers > 1,
        "expected the worker pool to pull row-range morsels, stats: {stats:?}"
    );
    assert!(
        stats.partial_agg_merges > 0,
        "expected Q6's global SUM to merge per-morsel partial states, stats: {stats:?}"
    );

    // The serial deployment must never report parallel scans. (An MT_THREADS
    // override deliberately forces the pool on for every deployment — CI's
    // forced-pool leg relies on that — so the zero-asserts only hold without
    // the override.)
    if std::env::var("MT_THREADS").is_err() {
        let mut conn = f.serial.server.connect(1);
        conn.set_opt_level(OptLevel::O2);
        conn.execute("SET SCOPE = \"IN (1, 2, 3, 4)\"").unwrap();
        conn.query(&queries::query(6)).unwrap();
        let stats = conn.last_query_stats();
        assert_eq!(stats.morsels_dispatched, 0);
        assert_eq!(stats.partial_agg_merges, 0);
    }
}

/// Scans that keep an interpreted residual conjunct used to fall back to a
/// serial scan; under the morsel scheduler the hybrid path runs on the pool
/// too, with results and scan counters identical to the serial deployment.
#[test]
fn interpreted_residual_conjuncts_engage_the_pool() {
    let f = fixtures();
    // `l_quantity + 0` defeats the fast-predicate compiler, leaving a
    // Generic conjunct that must be interpreted per surviving row.
    let q = "SELECT l_orderkey, l_quantity FROM lineitem \
             WHERE l_quantity + 0 < 10 ORDER BY l_orderkey, l_quantity";

    let mut conn = f.parallel.server.connect(1);
    conn.set_opt_level(OptLevel::O2);
    conn.execute("SET SCOPE = \"IN (1, 2, 3, 4)\"").unwrap();
    let pooled = conn.query(q).unwrap();
    let pooled_stats = conn.last_query_stats();
    assert!(
        pooled_stats.morsels_dispatched > 0,
        "hybrid filter must still run on the morsel pool, stats: {pooled_stats:?}"
    );

    let mut conn = f.serial.server.connect(1);
    conn.set_opt_level(OptLevel::O2);
    conn.execute("SET SCOPE = \"IN (1, 2, 3, 4)\"").unwrap();
    let serial = conn.query(q).unwrap();
    let serial_stats = conn.last_query_stats();
    assert_eq!(pooled, serial);
    assert_eq!(pooled_stats.rows_scanned, serial_stats.rows_scanned);
    assert_eq!(
        pooled_stats.partitions_pruned,
        serial_stats.partitions_pruned
    );
}

// ---------------------------------------------------------------------------
// Decorrelated join semantics
// ---------------------------------------------------------------------------

/// Build a two-table deployment for the decorrelation property: an outer
/// `Cust` and an inner `Ords` with nullable join-key columns, rows spread
/// across two tenants so the scope rewrite injects `ttid` equi-correlations
/// into the sub-queries (exactly the Q22 shape). Tables are tiny — a fresh
/// pair of servers per generated case keeps the decorrelated and interpreted
/// deployments bit-identical in content.
fn join_server(
    engine_config: EngineConfig,
    cust: &[(Option<i64>, i64)],
    ords: &[(Option<i64>, i64)],
) -> std::sync::Arc<mtbase::MtBase> {
    use mtbase::Value;
    use mtsql::ast::Statement;
    let server = mtbase::MtBase::new(engine_config);
    for ddl in [
        "CREATE TABLE Cust SPECIFIC (c_id INTEGER SPECIFIC, c_val INTEGER NOT NULL SPECIFIC)",
        "CREATE TABLE Ords SPECIFIC (o_cust INTEGER SPECIFIC, o_val INTEGER NOT NULL SPECIFIC)",
    ] {
        match mtsql::parse_statement(ddl).expect("DDL parses") {
            Statement::CreateTable(ct) => server.create_table(&ct).expect("create table"),
            _ => unreachable!(),
        }
    }
    for t in 1..=2 {
        server.register_tenant(t).expect("register tenant");
    }
    server.grant_read_all(1).expect("grant read");
    let int_or_null = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let rows = |data: &[(Option<i64>, i64)]| -> Vec<Vec<Value>> {
        data.iter()
            .enumerate()
            .map(|(i, &(key, val))| {
                vec![
                    Value::Int(i as i64 % 2 + 1),
                    int_or_null(key),
                    Value::Int(val),
                ]
            })
            .collect()
    };
    if !cust.is_empty() {
        server.load_rows("Cust", rows(cust)).expect("load Cust");
    }
    if !ords.is_empty() {
        server.load_rows("Ords", rows(ords)).expect("load Ords");
    }
    server
}

/// Correlated predicate templates over `Cust`/`Ords`. The first five unnest
/// (equi-correlated EXISTS / NOT EXISTS / scalar aggregates on either side
/// of the comparison); the last two are deliberate bail cases — a non-equi
/// correlation and a COUNT aggregate (whose zero-over-empty vs NULL-over-
/// empty semantics the rewrite refuses to touch) — pinning that the planner
/// falls back to the interpreted sub-query rather than rewriting wrongly.
const JOIN_TEMPLATES: [&str; 7] = [
    "EXISTS (SELECT 1 FROM Ords WHERE o_cust = c_id AND o_val > {k})",
    "NOT EXISTS (SELECT 1 FROM Ords WHERE o_cust = c_id AND o_val > {k})",
    "c_val < (SELECT AVG(o_val) FROM Ords WHERE o_cust = c_id)",
    "c_val >= (SELECT SUM(o_val) FROM Ords WHERE o_cust = c_id)",
    "(SELECT MAX(o_val) FROM Ords WHERE o_cust = c_id) > {k}",
    "NOT EXISTS (SELECT 1 FROM Ords WHERE o_cust = c_id AND o_val <> c_val)",
    "c_val < (SELECT COUNT(*) FROM Ords WHERE o_cust = c_id)",
];
const UNNESTING_TEMPLATES: usize = 5;

proptest! {
    /// Decorrelated semi-/anti-/aggregate-joins must agree with the
    /// interpreted correlated plans on randomized data — including NULL join
    /// keys on both sides (anti-join 3VL: a NULL probe key matches nothing,
    /// so `NOT EXISTS` keeps the row) and empty inner sides (scalar
    /// aggregates over zero rows are NULL, never zero). The unnesting
    /// templates must actually rewrite, and the baseline deployment must
    /// never report an unnested sub-query.
    #[test]
    fn decorrelated_joins_match_interpreted_subqueries(
        template_idx in 0_usize..JOIN_TEMPLATES.len(),
        cust_n in 0_usize..10,
        ords_n in 0_usize..12,
        k in 0_i64..12,
        seed in 0_u64..1_000_000,
    ) {
        // Derive table contents from the seed with a local SplitMix step —
        // ~1 in 5 join keys NULL, values small enough to collide often.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 27)
        };
        let mut gen_rows = |n: usize| -> Vec<(Option<i64>, i64)> {
            (0..n)
                .map(|_| {
                    let key = if next() % 5 == 0 { None } else { Some((next() % 6) as i64) };
                    (key, (next() % 12) as i64)
                })
                .collect()
        };
        let cust = gen_rows(cust_n);
        let ords = gen_rows(ords_n);

        let decorr = join_server(EngineConfig::default(), &cust, &ords);
        let interp = join_server(EngineConfig::default().without_decorrelation(), &cust, &ords);
        let pred = JOIN_TEMPLATES[template_idx].replace("{k}", &k.to_string());
        let sql = format!("SELECT c_id, c_val FROM Cust WHERE {pred} ORDER BY c_val, c_id");

        let run = |server: &std::sync::Arc<mtbase::MtBase>| {
            let mut conn = server.connect(1);
            conn.set_opt_level(OptLevel::O2);
            conn.execute("SET SCOPE = \"IN (1, 2)\"").expect("scope statement");
            let rs = conn.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            (rs, conn.last_query_stats().subqueries_unnested)
        };
        let (drs, dunnested) = run(&decorr);
        let (irs, iunnested) = run(&interp);
        prop_assert_eq!(&drs, &irs);
        prop_assert_eq!(iunnested, 0);
        if template_idx < UNNESTING_TEMPLATES {
            prop_assert!(dunnested > 0);
        } else {
            prop_assert_eq!(dunnested, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Static plan verification (PR 9)
// ---------------------------------------------------------------------------

/// Small deployments with the static plan verifier forced **on**, crossing
/// the two axes that change plan *shape*: decorrelation (join variants) and
/// dictionary encoding (scan kernels). Scale is small — these cells pin that
/// every plan the planner can produce for the MT-H workload passes
/// verification, not performance.
struct VerifyFixtures {
    decorr_dict: MthDeployment,
    decorr_nodict: MthDeployment,
    interp_dict: MthDeployment,
    interp_nodict: MthDeployment,
}

fn verify_fixtures() -> &'static VerifyFixtures {
    static FIXTURES: OnceLock<VerifyFixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let config = MthConfig {
            scale: 0.05,
            tenants: TENANTS,
            distribution: TenantDistribution::Uniform,
            seed: 42,
        };
        let data: GeneratedData = gen::generate(&config);
        let load = |engine_config| loader::load_from_data(config, engine_config, &data);
        VerifyFixtures {
            decorr_dict: load(EngineConfig::postgres_like().with_verify_plans()),
            decorr_nodict: load(
                EngineConfig::postgres_like()
                    .without_dictionary_encoding()
                    .with_verify_plans(),
            ),
            interp_dict: load(
                EngineConfig::postgres_like()
                    .without_decorrelation()
                    .with_verify_plans(),
            ),
            interp_nodict: load(
                EngineConfig::postgres_like()
                    .without_decorrelation()
                    .without_dictionary_encoding()
                    .with_verify_plans(),
            ),
        }
    })
}

/// Every MT-H query must plan *and verify* cleanly at o2 and o4 across the
/// {decorrelate, interpret} × {dict, no-dict} configuration cross — the
/// verifier must reject corrupt plans, never legitimate planner output. The
/// per-config results must also still agree (verification is read-only).
#[test]
fn all_queries_verify_clean_across_the_config_matrix() {
    let f = verify_fixtures();
    let cells = [
        ("decorr+dict", &f.decorr_dict),
        ("decorr+nodict", &f.decorr_nodict),
        ("interp+dict", &f.interp_dict),
        ("interp+nodict", &f.interp_nodict),
    ];
    for query in queries::all_query_numbers() {
        for level in [OptLevel::O2, OptLevel::O4] {
            let mut baseline: Option<mtbase::ResultSet> = None;
            for (name, dep) in cells {
                let mut conn = dep.server.connect(1);
                conn.set_opt_level(level);
                conn.execute("SET SCOPE = \"IN (1, 3)\"")
                    .expect("scope statement");
                let rs = conn
                    .query(&queries::query(query))
                    .unwrap_or_else(|e| panic!("Q{query} at {level:?} on {name}: {e}"));
                assert!(
                    conn.last_query_stats().plans_verified > 0,
                    "Q{query} at {level:?} on {name}: verifier did not engage"
                );
                if let Some(base) = &baseline {
                    assert_eq!(
                        base, &rs,
                        "Q{query} at {level:?}: {name} diverged under verification"
                    );
                } else {
                    baseline = Some(rs);
                }
            }
        }
    }
}

/// Aggregates that appear only inside HAVING composites (BETWEEN, IS NULL)
/// must give identical results at every optimization level: either the o3
/// distribution handles them or it backs off to the undistributed form — it
/// must never ship a half-distributed query.
#[test]
fn having_composite_aggregates_agree_across_levels() {
    let f = fixtures();
    let queries = [
        "SELECT l_returnflag FROM lineitem GROUP BY l_returnflag \
         HAVING SUM(l_extendedprice) BETWEEN 0 AND 100000000 ORDER BY l_returnflag",
        "SELECT l_returnflag FROM lineitem GROUP BY l_returnflag \
         HAVING MAX(l_extendedprice) IS NOT NULL ORDER BY l_returnflag",
    ];
    let mut conn = f.serial.server.connect(1);
    conn.execute("SET SCOPE = \"IN (1, 2)\"").unwrap();
    for q in queries {
        let mut previous: Option<mtbase::ResultSet> = None;
        for level in LEVELS {
            conn.set_opt_level(level);
            let rs = conn
                .query(q)
                .unwrap_or_else(|e| panic!("{q}\nat {level:?}: {e}"));
            if let Some(prev) = &previous {
                assert_eq!(prev, &rs, "{q} differs at {level:?}");
            }
            previous = Some(rs);
        }
    }
}

// ---------------------------------------------------------------------------
// The streaming HashAggregate against a naive reference
// ---------------------------------------------------------------------------

/// One seeded random table pair on a serial and a pooled engine. `f(ttid, k,
/// ks, x, y, m, s, d)` is partitioned by `ttid` into three 3 000-row buckets
/// (enough for the pool to engage) plus loose rows whose `ttid` is NULL or
/// the float `2.0`. `k` is a NULL-bearing dictionary column; `ks` is
/// low-cardinality in buckets 1 and 3 and passes the dictionary threshold in
/// bucket 2 (a demoted bucket); `x`/`y` are NULL-bearing ints/floats; `m`
/// alternates ints and floats (a `Mixed` column); `s`/`d` are strings and
/// dates for MIN/MAX. `b(bk, fac)` is a Tenant-like build side with unique
/// keys, `b2` repeats key 2 (the per-bucket join must fall back).
struct AggFixture {
    serial: mtengine::Engine,
    pooled: mtengine::Engine,
}

fn agg_fixture(seed: u64) -> &'static AggFixture {
    use mtbase::Value;
    static FIXTURES: [OnceLock<AggFixture>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    FIXTURES[seed as usize % 3].get_or_init(|| {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let row_of = |ttid: Value, r: u64| {
            let null = |every: u64, v: Value| {
                if r.is_multiple_of(every) {
                    Value::Null
                } else {
                    v
                }
            };
            let bucket2 = ttid == Value::Int(2);
            vec![
                ttid,
                null(19, Value::str(["A", "B", "C", "D"][(r % 4) as usize])),
                null(
                    31,
                    match bucket2 {
                        true => Value::str(format!("v{}", r % 300)),
                        false => Value::str(["p", "q", "r"][(r % 3) as usize]),
                    },
                ),
                null(11, Value::Int((r % 101) as i64 - 50)),
                null(
                    13,
                    Value::Float((r % 9973) as f64 * 0.1 + 1.0 / (1 + r % 7) as f64),
                ),
                null(
                    23,
                    match r % 2 {
                        0 => Value::Int((r % 17) as i64),
                        _ => Value::Float((r % 29) as f64 / 3.0),
                    },
                ),
                Value::str(format!("w{:02}", r % 40)),
                Value::Date(8000 + (r % 500) as i32),
            ]
        };
        for t in 1..=3i64 {
            for _ in 0..3000 {
                rows.push(row_of(Value::Int(t), next() >> 8));
            }
        }
        for i in 0..30u64 {
            let ttid = if i % 3 == 0 {
                Value::Float(2.0)
            } else {
                Value::Null
            };
            rows.push(row_of(ttid, next() >> 8));
        }
        let build = |config: EngineConfig| {
            let mut e = mtengine::Engine::new(config);
            e.create_table("f", &["ttid", "k", "ks", "x", "y", "m", "s", "d"]);
            e.set_table_partition("f", "ttid").unwrap();
            e.insert_values("f", rows.clone()).unwrap();
            for (table, keys) in [("b", &[1i64, 2, 3, 7][..]), ("b2", &[1, 2, 2, 3][..])] {
                e.create_table(table, &["bk", "fac"]);
                // `fac` depends on the key alone, so a repeated key repeats it.
                let row = |&k: &i64| vec![Value::Int(k), Value::Float(1.0 + k as f64 / 3.0)];
                e.insert_values(table, keys.iter().map(row).collect())
                    .unwrap();
            }
            e
        };
        AggFixture {
            serial: build(EngineConfig::default()),
            pooled: build(EngineConfig::default().with_parallel_scan(4)),
        }
    })
}

/// Input shapes: `(FROM … WHERE prefix, the build-side factor column)`.
const AGG_SHAPES: [(&str, &str); 4] = [
    ("FROM f WHERE", "2.5"),
    ("FROM f, b WHERE b.bk = f.ttid AND", "fac"),
    ("FROM f, b2 WHERE b2.bk = f.ttid AND", "fac"),
    (
        "FROM (SELECT ttid, k, ks, x, y, m, s, d FROM f) AS f WHERE",
        "2.5",
    ),
];
const AGG_PREDICATES: [&str; 5] = [
    "x >= -50",
    "x > 1000",
    "y < 400.0 AND s LIKE 'w1%'",
    "x + 0 >= 0",
    "d >= DATE '1992-01-01' AND k IN ('A', 'C')",
];
const AGG_KEYS: [&[&str]; 6] = [
    &[],
    &["k"],
    &["k", "ks"],
    &["k", "f.ttid"],
    &["x"],
    &["ks", "m"],
];
/// `(function, argument, DISTINCT)`; `{fac}` is the shape's factor column.
const AGG_CALLS: [(&str, &str, bool); 15] = [
    ("COUNT", "*", false),
    ("COUNT", "x", false),
    ("SUM", "x", false),
    ("SUM", "y", false),
    ("AVG", "y", false),
    ("SUM", "m", false),
    ("MIN", "s", false),
    ("MAX", "s", false),
    ("MIN", "d", false),
    ("MAX", "d", false),
    ("COUNT", "x", true),
    ("SUM", "y", true),
    ("SUM", "y * {fac}", false),
    // Float arithmetic over an int column and an int constant (the column
    // kernel promotes lane-wise exactly like the row-wise evaluator).
    ("SUM", "y * x", false),
    ("AVG", "x - y * 2", false),
];

proptest! {
    /// The streaming aggregate must agree bit for bit — float sums, NULL
    /// handling, group order — with `testkit::naive_aggregate` folding the
    /// same input rows (as the projection path delivers them) in row order,
    /// over every input shape, serial and pooled.
    #[test]
    fn streaming_aggregate_matches_the_naive_reference(
        seed in 0_u64..3,
        shape in 0_usize..AGG_SHAPES.len(),
        pred in 0_usize..AGG_PREDICATES.len(),
        keys in 0_usize..AGG_KEYS.len(),
    ) {
        use mtbase::{testkit::naive_aggregate, Value};
        let fixture = agg_fixture(seed);
        let (from_where, fac) = AGG_SHAPES[shape];
        // Grouped by the partition column, a join shape also selects the
        // bare build column (read off the group's first row); it is a
        // function of `f.ttid`, so the reference simply groups by it too.
        let mut keys = AGG_KEYS[keys].to_vec();
        let dependent = (keys.contains(&"f.ttid") && fac == "fac").then_some("fac");
        keys.extend(dependent);
        let keys = keys.as_slice();
        let args: Vec<String> = AGG_CALLS.iter().skip(1).map(|c| c.1.replace("{fac}", fac)).collect();
        let calls: Vec<String> = AGG_CALLS
            .iter()
            .map(|(f, arg, distinct)| {
                let distinct = if *distinct { "DISTINCT " } else { "" };
                format!("{f}({distinct}{})", arg.replace("{fac}", fac))
            })
            .collect();
        let tail = format!("{from_where} {}", AGG_PREDICATES[pred]);
        let group_by = match &keys[..keys.len() - dependent.iter().len()] {
            [] => String::new(),
            grouped => format!(" GROUP BY {}", grouped.join(", ")),
        };
        let flat = format!("SELECT {} {tail}", [keys, &args.iter().map(String::as_str).collect::<Vec<_>>()].concat().join(", "));
        let grouped = format!("SELECT {} {tail}{group_by}", [keys, &calls.iter().map(String::as_str).collect::<Vec<_>>()].concat().join(", "));
        let reference_calls: Vec<(&str, Option<usize>, bool)> = AGG_CALLS
            .iter()
            .enumerate()
            .map(|(i, &(f, _, distinct))| (f, i.checked_sub(1), distinct))
            .collect();
        let bits = |rows: &[Vec<Value>]| -> Vec<Vec<String>> {
            let bits = |v: &Value| match v {
                Value::Float(f) => format!("Float({:#018x})", f.to_bits()),
                other => format!("{other:?}"),
            };
            rows.iter().map(|row| row.iter().map(bits).collect()).collect()
        };

        let mut results = Vec::new();
        for (engine, pooled) in [(&fixture.serial, false), (&fixture.pooled, true)] {
            let input = engine.query(&flat).unwrap_or_else(|e| panic!("`{flat}`: {e}"));
            let expected = naive_aggregate(&input.rows, keys.len(), &reference_calls);
            let got = engine.query(&grouped).unwrap_or_else(|e| panic!("`{grouped}`: {e}"));
            prop_assert_eq!(bits(&got.rows), bits(&expected));

            // Engagement, read off the plan rather than off shared counters.
            let plan = engine
                .explain_query(&mtsql::parse_query(&grouped).unwrap())
                .unwrap();
            let plan: Vec<&str> = plan.rows.iter().filter_map(|r| r[0].as_str()).collect();
            let plan = plan.join("\n");
            prop_assert_eq!(plan.contains("[per-bucket]"), shape == 1 || shape == 2);
            prop_assert_eq!(plan.contains("morsel partials"), pooled && shape < 3);
            prop_assert!(plan.contains("verified ("));
            results.push(got.rows);
        }
        // And the pool is invisible.
        prop_assert_eq!(bits(&results[0]), bits(&results[1]));
    }
}

// ---------------------------------------------------------------------------
// Expression sub-queries, planned with their parent
// ---------------------------------------------------------------------------

/// `big(ttid, k, v)`: 9 000 rows in three tenant buckets, enough for the
/// pool to engage; `small(k, w)` and `third(k, z)`: a dozen and five loose
/// rows.
fn subquery_engine(config: EngineConfig) -> mtengine::Engine {
    use mtbase::Value::Int;
    let mut e = mtengine::Engine::new(config);
    e.create_table("big", &["ttid", "k", "v"]);
    e.set_table_partition("big", "ttid").unwrap();
    let big = (0..9000i64).map(|i| vec![Int(i % 3 + 1), Int((i / 3) % 50), Int((i * 7) % 100)]);
    e.insert_values("big", big.collect()).unwrap();
    e.create_table("small", &["k", "w"]);
    let small = [0, 5, 10, 2, 7, 12, 4, 9, 1, 6, 11, 3]
        .into_iter()
        .enumerate();
    e.insert_values(
        "small",
        small.map(|(k, w)| vec![Int(k as i64), Int(w)]).collect(),
    )
    .unwrap();
    e.create_table("third", &["k", "z"]);
    let third = [(1, 10), (3, 50), (5, 70), (7, 200), (20, 1)];
    e.insert_values("third", third.map(|(k, z)| vec![Int(k), Int(z)]).to_vec())
        .unwrap();
    e
}

/// `(shape, query, its rows as captured at the parent commit)`.
const SUBQUERY_SHAPES: [(&str, &str, &str); 10] = [
    (
        "uncorrelated scalar in WHERE",
        "SELECT COUNT(*), SUM(v) FROM big WHERE v > (SELECT AVG(w) * 10 FROM small)",
        "[[Int(3690), Int(291510)]]",
    ),
    (
        "uncorrelated IN in WHERE",
        "SELECT ttid, COUNT(*) FROM big WHERE k IN (SELECT k FROM small WHERE w > 6) \
         GROUP BY ttid ORDER BY ttid",
        "[[Int(1), Int(300)], [Int(2), Int(300)], [Int(3), Int(300)]]",
    ),
    (
        "uncorrelated EXISTS / NOT EXISTS in WHERE",
        "SELECT COUNT(*) FROM big WHERE EXISTS (SELECT 1 FROM third WHERE z > 100) \
         AND NOT EXISTS (SELECT 1 FROM third WHERE z > 1000)",
        "[[Int(9000)]]",
    ),
    (
        "uncorrelated scalar / IN / EXISTS in the SELECT list",
        "SELECT k, w, (SELECT MAX(z) FROM third), k IN (SELECT k FROM third), \
         EXISTS (SELECT 1 FROM third WHERE z = 50) FROM small WHERE k < 5 ORDER BY k",
        "[[Int(0), Int(0), Int(200), Bool(false), Bool(true)], \
         [Int(1), Int(5), Int(200), Bool(true), Bool(true)], \
         [Int(2), Int(10), Int(200), Bool(false), Bool(true)], \
         [Int(3), Int(2), Int(200), Bool(true), Bool(true)], \
         [Int(4), Int(7), Int(200), Bool(false), Bool(true)]]",
    ),
    (
        "uncorrelated scalar / IN / EXISTS in HAVING",
        "SELECT ttid, COUNT(*) FROM big GROUP BY ttid \
         HAVING SUM(v) > (SELECT SUM(z) FROM third) * 100 AND ttid IN (SELECT k FROM third) \
         AND EXISTS (SELECT 1 FROM small WHERE w = 12) ORDER BY ttid",
        "[[Int(1), Int(3000)], [Int(3), Int(3000)]]",
    ),
    (
        "correlated scalar COUNT at depth 1 (never unnested)",
        "SELECT k, w FROM small s \
         WHERE w < (SELECT COUNT(*) FROM big b WHERE b.k = s.k AND b.v < 5) ORDER BY k",
        "[[Int(0), Int(0)], [Int(7), Int(9)], [Int(9), Int(6)]]",
    ),
    (
        "correlated non-equi EXISTS at depth 1",
        "SELECT k FROM small s \
         WHERE EXISTS (SELECT 1 FROM big b WHERE b.k = s.k AND b.v > s.w * 8) ORDER BY k",
        "[[Int(0)], [Int(1)], [Int(2)], [Int(3)], [Int(4)], [Int(6)], [Int(7)], [Int(8)], \
         [Int(9)], [Int(11)]]",
    ),
    (
        "correlated scalar at depth 1 in the SELECT list",
        "SELECT k, (SELECT COUNT(*) FROM third t WHERE t.k > s.k) FROM small s ORDER BY k",
        "[[Int(0), Int(5)], [Int(1), Int(4)], [Int(2), Int(4)], [Int(3), Int(3)], \
         [Int(4), Int(3)], [Int(5), Int(2)], [Int(6), Int(2)], [Int(7), Int(1)], \
         [Int(8), Int(1)], [Int(9), Int(1)], [Int(10), Int(1)], [Int(11), Int(1)]]",
    ),
    (
        "correlated at depth 2 (an outer-outer reference)",
        "SELECT s.k FROM small s WHERE EXISTS (SELECT 1 FROM third t WHERE t.k >= s.k \
         AND t.z > (SELECT COUNT(*) FROM big b WHERE b.k = t.k AND b.v < s.w * 5)) \
         ORDER BY s.k",
        "[[Int(0)], [Int(1)], [Int(2)], [Int(3)], [Int(4)], [Int(5)], [Int(6)], [Int(7)], \
         [Int(8)], [Int(11)]]",
    ),
    (
        "correlated at depth 2 beside a depth-1 filter",
        "SELECT s.k, s.w FROM small s WHERE EXISTS (SELECT 1 FROM third t WHERE t.z < 100 \
         AND t.k <= s.k AND t.z < (SELECT COUNT(*) FROM big b WHERE b.k = t.k \
         AND b.v < s.w * 10)) ORDER BY s.k",
        "[[Int(1), Int(5)], [Int(2), Int(10)], [Int(4), Int(7)], [Int(5), Int(12)], \
         [Int(6), Int(4)], [Int(7), Int(9)], [Int(9), Int(6)], [Int(10), Int(11)], \
         [Int(11), Int(3)]]",
    ),
];

/// `(shape, statement, the count it reports, then `SELECT k, w FROM small
/// ORDER BY k` as captured at the parent commit)` — each on a fresh engine.
const SUBQUERY_DML: [(&str, &str, i64, &str); 4] = [
    (
        "correlated sub-query in UPDATE SET",
        "UPDATE small SET w = (SELECT MAX(v) FROM big WHERE big.k = small.k AND big.ttid = 2) \
         WHERE k < 4",
        4,
        "[[Int(0), Int(57)], [Int(1), Int(78)], [Int(2), Int(99)], [Int(3), Int(70)], \
         [Int(4), Int(7)], [Int(5), Int(12)], [Int(6), Int(4)], [Int(7), Int(9)], \
         [Int(8), Int(1)], [Int(9), Int(6)], [Int(10), Int(11)], [Int(11), Int(3)]]",
    ),
    (
        "sub-query in UPDATE WHERE",
        "UPDATE small SET w = w + 100 WHERE k IN (SELECT k FROM third WHERE z < 100)",
        3,
        "[[Int(0), Int(0)], [Int(1), Int(105)], [Int(2), Int(10)], [Int(3), Int(102)], \
         [Int(4), Int(7)], [Int(5), Int(112)], [Int(6), Int(4)], [Int(7), Int(9)], \
         [Int(8), Int(1)], [Int(9), Int(6)], [Int(10), Int(11)], [Int(11), Int(3)]]",
    ),
    (
        "correlated sub-query in DELETE WHERE",
        "DELETE FROM small \
         WHERE EXISTS (SELECT 1 FROM third WHERE third.k = small.k AND third.z > 60)",
        2,
        "[[Int(0), Int(0)], [Int(1), Int(5)], [Int(2), Int(10)], [Int(3), Int(2)], \
         [Int(4), Int(7)], [Int(6), Int(4)], [Int(8), Int(1)], [Int(9), Int(6)], \
         [Int(10), Int(11)], [Int(11), Int(3)]]",
    ),
    (
        "sub-queries in INSERT VALUES",
        "INSERT INTO small VALUES (100, (SELECT COUNT(*) FROM big WHERE v = 0)), \
         ((SELECT MAX(k) FROM third), 1)",
        2,
        "[[Int(0), Int(0)], [Int(1), Int(5)], [Int(2), Int(10)], [Int(3), Int(2)], \
         [Int(4), Int(7)], [Int(5), Int(12)], [Int(6), Int(4)], [Int(7), Int(9)], \
         [Int(8), Int(1)], [Int(9), Int(6)], [Int(10), Int(11)], [Int(11), Int(3)], \
         [Int(20), Int(1)], [Int(100), Int(90)]]",
    ),
];

/// Every sub-query shape — uncorrelated in WHERE, the SELECT list and
/// HAVING; correlated at depth 1 and 2; inside UPDATE, DELETE and INSERT —
/// returns exactly the rows the name-resolving interpreter returned, serial
/// and on the pool.
#[test]
fn subquery_shapes_return_the_parent_rows_serial_and_pooled() {
    for config in [
        EngineConfig::default(),
        EngineConfig::default().with_parallel_scan(4),
    ] {
        let e = subquery_engine(config);
        for (shape, sql, expected) in SUBQUERY_SHAPES {
            let rs = e.query(sql).unwrap_or_else(|err| panic!("{shape}: {err}"));
            assert_eq!(format!("{:?}", rs.rows), expected, "{shape}: {config:?}");
        }
        for (shape, statement, count, expected) in SUBQUERY_DML {
            let mut e = subquery_engine(config);
            let rs = e
                .execute(statement)
                .unwrap_or_else(|err| panic!("{shape}: {err}"));
            assert_eq!(rs.rows, vec![vec![mtbase::Value::Int(count)]], "{shape}");
            let rows = e.query("SELECT k, w FROM small ORDER BY k").unwrap().rows;
            assert_eq!(format!("{rows:?}"), expected, "{shape}: {config:?}");
        }
    }
}

/// Execution counts, pinned with a counting UDF inside the sub-query on an
/// engine of its own: an uncorrelated sub-plan runs once per executor —
/// once per execution of the statement, however many rows test it — and a
/// correlated one once per outer row.
#[test]
fn uncorrelated_subqueries_run_once_per_executor_correlated_once_per_outer_row() {
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::sync::Arc;
    let mut e = subquery_engine(EngineConfig::default());
    let runs = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&runs);
    e.register_udf_fn("tick", false, move |args| {
        counter.fetch_add(1, SeqCst);
        Ok(args[0].clone())
    });
    let runs_of = |sql: &str, executions: usize| {
        let plan = e.plan_query(&mtsql::parse_query(sql).unwrap()).unwrap();
        let before = runs.load(SeqCst);
        for _ in 0..executions {
            e.execute_plan(&plan, &[]).unwrap();
        }
        runs.load(SeqCst) - before
    };
    // Each statement tests its sub-query against the 12 rows of `small`.
    let uncorrelated = "SELECT k FROM small WHERE w > (SELECT tick(5))";
    assert_eq!(runs_of(uncorrelated, 1), 1);
    assert_eq!(
        runs_of(uncorrelated, 3),
        3,
        "cached per executor, not per plan"
    );
    // Five rows of `third`, once.
    assert_eq!(
        runs_of("SELECT k, k IN (SELECT tick(k) FROM third) FROM small", 1),
        5
    );
    assert_eq!(
        runs_of("SELECT k FROM small s WHERE w > (SELECT tick(s.k))", 1),
        12
    );
    assert_eq!(runs_of("SELECT k, (SELECT tick(s.w)) FROM small s", 2), 24);
}

// ---------------------------------------------------------------------------
// Column pruning, with the loose-row store as the oracle
// ---------------------------------------------------------------------------

/// One seeded data set loaded twice into one engine: `f(ttid, id, k, a, b,
/// s, d)` and `g(ttid, k, x, y)` partitioned by `ttid` — their scans are
/// narrowed to the columns a plan reads — and `uf` / `ug`, unpartitioned
/// copies whose scans always read whole stored rows, the reference. `f`
/// holds three 3 000-row tenant buckets (enough for the pool) plus loose
/// rows with a NULL `ttid`, whose projection is built row by row; `k` is a
/// NULL-bearing join key on both sides, `s` a NULL-bearing dictionary
/// column. Rows are inserted tenant by tenant, so both copies scan in the
/// same order.
fn pruning_engine(config: EngineConfig) -> mtengine::Engine {
    use mtbase::Value;
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z ^ (z >> 27)) >> 8
    };
    let null_every = |r: u64, every: u64, v: Value| {
        if r.is_multiple_of(every) {
            Value::Null
        } else {
            v
        }
    };
    let tenants = [Value::Int(1), Value::Int(2), Value::Int(3), Value::Null];
    let mut f_rows = Vec::new();
    let mut g_rows = Vec::new();
    for (t, ttid) in tenants.iter().enumerate() {
        for _ in 0..if t < 3 { 3000 } else { 30 } {
            let r = next();
            f_rows.push(vec![
                ttid.clone(),
                Value::Int(f_rows.len() as i64),
                null_every(r, 7, Value::Int((r % 40) as i64)),
                Value::Int((r / 7 % 100) as i64),
                Value::Float((r / 11 % 1000) as f64 * 0.1),
                null_every(
                    r / 3,
                    11,
                    Value::str(["AIR", "MAIL", "RAIL", "SHIP", "TRUCK"][(r % 5) as usize]),
                ),
                Value::Date(9000 + (r / 13 % 300) as i32),
            ]);
        }
        for _ in 0..if t < 3 { 40 } else { 3 } {
            let r = next();
            g_rows.push(vec![
                ttid.clone(),
                null_every(r, 5, Value::Int((r / 5 % 50) as i64)),
                Value::Int((r / 17 % 20) as i64),
                Value::Float((r / 19 % 50) as f64 * 0.2),
            ]);
        }
    }
    let mut e = mtengine::Engine::new(config);
    for (name, columns, rows) in [
        ("f", &["ttid", "id", "k", "a", "b", "s", "d"][..], &f_rows),
        ("g", &["ttid", "k", "x", "y"][..], &g_rows),
    ] {
        for (table, partitioned) in [(name.to_string(), true), (format!("u{name}"), false)] {
            e.create_table(&table, columns);
            if partitioned {
                e.set_table_partition(&table, "ttid").unwrap();
            }
            e.insert_values(&table, rows.clone()).unwrap();
        }
    }
    e
}

/// `{f}` / `{g}` name the partitioned tables or their unpartitioned copies;
/// every shape orders by enough columns to be deterministic.
const PRUNING_SHAPES: [(&str, &str); 14] = [
    (
        "SELECT *",
        "SELECT * FROM {f} f WHERE f.a > 90 ORDER BY f.id",
    ),
    (
        "join residual reading only build columns",
        "SELECT f.id, g.x FROM {f} f LEFT JOIN (SELECT k, x, y FROM {g}) g \
         ON f.k = g.k AND g.y > 4.5 WHERE f.a < 20 ORDER BY f.id, g.x",
    ),
    (
        "non-equi join of two narrowed scans",
        "SELECT f.id, g.x FROM {f} f, {g} g WHERE f.a < 3 AND g.x > f.a + 15 \
         ORDER BY f.id, g.x",
    ),
    (
        "ORDER BY an unselected column",
        "SELECT f.s FROM {f} f WHERE f.a BETWEEN 10 AND 14 ORDER BY f.d DESC, f.id",
    ),
    (
        "DISTINCT",
        "SELECT DISTINCT COALESCE(f.s, '-') AS s, COALESCE(f.k, -1) AS k FROM {f} f \
         WHERE f.b > 90.0 ORDER BY s, k",
    ),
    (
        "aggregate over a join",
        "SELECT COALESCE(f.s, '-') AS s, COUNT(*), SUM(g.x) FROM {f} f, {g} g \
         WHERE f.k = g.k GROUP BY COALESCE(f.s, '-') ORDER BY s",
    ),
    (
        "correlated at depth 1, reading an outer column nothing else reads",
        "SELECT g.k, g.x FROM {g} g WHERE g.x > \
         (SELECT COUNT(*) FROM {f} f WHERE f.k = g.k AND f.b < g.y * 2.0) \
         ORDER BY COALESCE(g.k, -1), g.x",
    ),
    (
        "correlated at depth 1 in the SELECT list",
        "SELECT f.id, (SELECT MAX(g.x) FROM {g} g WHERE g.k = f.k AND g.y < f.b / 10.0) \
         FROM {f} f WHERE f.a = 7 ORDER BY f.id",
    ),
    (
        "correlated at depth 2, reading an outer-outer column nothing else reads",
        "SELECT g.x FROM {g} g WHERE EXISTS (SELECT 1 FROM {f} f WHERE f.k = g.k \
         AND f.a > (SELECT COUNT(*) FROM {g} h WHERE h.k = f.k AND h.x < g.y * 3.0)) \
         ORDER BY g.x",
    ),
    (
        "semi join, NULL keys on both sides",
        "SELECT f.id FROM {f} f WHERE f.a < 10 AND EXISTS \
         (SELECT 1 FROM {g} g WHERE g.k = f.k AND g.x > 12) ORDER BY f.id",
    ),
    (
        "anti join with an interpreted build conjunct",
        "SELECT f.id FROM {f} f WHERE f.a < 10 AND NOT EXISTS \
         (SELECT 1 FROM {g} g WHERE g.k = f.k AND g.ttid = f.ttid AND g.x + 0 > 4) \
         ORDER BY f.id",
    ),
    (
        "semi and anti joins over empty builds",
        "SELECT f.id FROM {f} f WHERE f.a = 3 \
         AND NOT EXISTS (SELECT 1 FROM {g} g WHERE g.k = f.k AND g.x > 1000) \
         AND f.id NOT IN (SELECT f2.id FROM {f} f2 WHERE EXISTS \
         (SELECT 1 FROM {g} g WHERE g.k = f2.k AND g.y < 0.0)) ORDER BY f.id",
    ),
    (
        "single join, NULL keys",
        "SELECT f.id FROM {f} f WHERE f.a < 8 AND \
         f.a * 2 < (SELECT AVG(g.x) FROM {g} g WHERE g.k = f.k) ORDER BY f.id",
    ),
    (
        "single join over an empty build",
        "SELECT f.id FROM {f} f WHERE f.a < 50 AND \
         f.a > (SELECT MIN(g.x) FROM {g} g WHERE g.k = f.k AND g.x > 1000) ORDER BY f.id",
    ),
];

/// `(shape, statement, the query reading the table it changed)`.
const PRUNING_DML: [(&str, &str, &str); 3] = [
    (
        "UPDATE with an IN sub-query",
        "UPDATE {f} SET a = a + 1000 WHERE k IN (SELECT k FROM {g} WHERE x > 15)",
        "SELECT id, a FROM {f} ORDER BY id",
    ),
    (
        "UPDATE with a correlated sub-query in SET",
        "UPDATE {g} SET x = (SELECT COUNT(*) FROM {f} WHERE {f}.k = {g}.k AND {f}.b > 95.0)",
        "SELECT k, x, y FROM {g} ORDER BY k, x, y",
    ),
    (
        "DELETE with a correlated EXISTS",
        "DELETE FROM {f} WHERE EXISTS (SELECT 1 FROM {g} WHERE {g}.k = {f}.k AND {g}.y > 9.0)",
        "SELECT id FROM {f} ORDER BY id",
    ),
];

fn on_tables(sql: &str, partitioned: bool) -> String {
    let (f, g) = if partitioned {
        ("f", "g")
    } else {
        ("uf", "ug")
    };
    sql.replace("{f}", f).replace("{g}", g)
}

/// Narrowed scans return exactly the rows of the unpartitioned copy, whose
/// scans are never narrowed — for every shape, serial and on the pool — and
/// the narrowing engages (EXPLAIN lists what the scans keep).
#[test]
fn pruned_scans_match_the_loose_row_copy() {
    for config in [
        EngineConfig::default().with_verify_plans(),
        EngineConfig::default().with_parallel_scan(4),
    ] {
        let e = pruning_engine(config);
        let mut pruned_shapes = 0;
        for (shape, sql) in PRUNING_SHAPES {
            let run = |partitioned| {
                let sql = on_tables(sql, partitioned);
                e.query(&sql)
                    .unwrap_or_else(|err| panic!("{shape}: `{sql}`: {err}"))
            };
            let (narrowed, reference) = (run(true), run(false));
            assert_eq!(narrowed.rows, reference.rows, "{shape}: {config:?}");
            let plan = e
                .explain_query(&mtsql::parse_query(&on_tables(sql, true)).unwrap())
                .unwrap();
            pruned_shapes += plan
                .rows
                .iter()
                .any(|r| r[0].as_str().is_some_and(|line| line.contains("cols: ")))
                as usize;
        }
        assert!(pruned_shapes >= PRUNING_SHAPES.len() - 1, "{pruned_shapes}");
        for (shape, statement, read_back) in PRUNING_DML {
            let after = |partitioned| {
                let mut e = pruning_engine(config);
                let changed = e
                    .execute(&on_tables(statement, partitioned))
                    .unwrap_or_else(|err| panic!("{shape}: {err}"));
                let rows = e.query(&on_tables(read_back, partitioned)).unwrap().rows;
                (changed.rows, rows)
            };
            assert_eq!(after(true), after(false), "{shape}: {config:?}");
        }
    }
}

/// A prepared statement's cursor streams a narrowed scan of a tenant-specific
/// table in small batches and yields exactly the rows of a global
/// (unpartitioned) copy of the same data.
#[test]
fn prepared_cursor_streams_a_pruned_scan() {
    use mtbase::Value;
    use mtsql::ast::Statement;
    let server = mtbase::MtBase::new(EngineConfig::default());
    for ddl in [
        "CREATE TABLE Pt SPECIFIC (id INTEGER NOT NULL COMPARABLE, a INTEGER COMPARABLE, \
         s VARCHAR(10) COMPARABLE, b INTEGER COMPARABLE)",
        "CREATE TABLE Gt GLOBAL (id INTEGER NOT NULL, a INTEGER, s VARCHAR(10), b INTEGER)",
    ] {
        match mtsql::parse_statement(ddl).expect("DDL parses") {
            Statement::CreateTable(ct) => server.create_table(&ct).expect("create table"),
            _ => unreachable!(),
        }
    }
    for t in 1..=3 {
        server.register_tenant(t).expect("register tenant");
    }
    server.grant_read_all(1).expect("grant read");
    let row = |i: i64| {
        let a = if i % 9 == 0 {
            Value::Null
        } else {
            Value::Int(i % 31)
        };
        vec![
            Value::Int(i),
            a,
            Value::str(["x", "y", "z"][i as usize % 3]),
            Value::Int(i % 17),
        ]
    };
    let specific = (0..600).map(|i| [vec![Value::Int(i % 3 + 1)], row(i)].concat());
    server.load_rows("Pt", specific.collect()).unwrap();
    server.load_rows("Gt", (0..600).map(row).collect()).unwrap();

    let mut conn = server.connect(1);
    conn.execute("SET SCOPE = \"IN (1, 2, 3)\"").unwrap();
    let drain = |table: &str| {
        let mut stmt = conn
            .prepare(&format!("SELECT id, a FROM {table} WHERE b > $1"))
            .unwrap();
        stmt.bind(&[Value::Int(11)]).unwrap();
        let mut cursor = stmt.cursor_with_batch(7).unwrap();
        let mut rows = Vec::new();
        while let Some(batch) = cursor.next_batch().unwrap() {
            assert!(batch.len() <= 7);
            rows.extend(batch);
        }
        assert!(cursor.is_streaming(), "{table}: the scan must stream");
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    };
    let narrowed = drain("Pt");
    assert!(!narrowed.is_empty());
    assert_eq!(narrowed, drain("Gt"));
    let plan = conn
        .query("EXPLAIN SELECT id, a FROM Pt WHERE b > 11")
        .unwrap();
    assert!(
        format!("{:?}", plan.rows).contains("cols: id, a, b;"),
        "{plan:?}"
    );
}
