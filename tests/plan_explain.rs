//! Plan snapshot tests: golden `EXPLAIN` output for Q1, Q6 and Q22 at o2 and
//! o4 under a scoped deployment (D = {1, 2} of 4 tenants), asserting that the
//! derived-table pushdown lands the tenant-pruning conjuncts on the base
//! scans, plus engine-level checks that conjuncts transpose through derived
//! table projections where the AST interpreter used to filter only after
//! materialization.
//!
//! Regenerate the golden files with:
//! `UPDATE_GOLDEN=1 cargo test --test plan_explain`

use mtbase::EngineConfig;
use mth::params::{MthConfig, TenantDistribution};
use mth::{loader, queries, MthDeployment};
use mtrewrite::OptLevel;

fn deployment() -> MthDeployment {
    loader::load(
        MthConfig {
            scale: 0.05,
            tenants: 4,
            distribution: TenantDistribution::Uniform,
            seed: 42,
        },
        EngineConfig::postgres_like().with_parallel_scan(4),
    )
}

/// The same deployment with dictionary encoding disabled (buckets keep plain
/// `Arc<str>` arrays — the code-space kernel baseline).
fn nodict_deployment() -> MthDeployment {
    loader::load(
        MthConfig {
            scale: 0.05,
            tenants: 4,
            distribution: TenantDistribution::Uniform,
            seed: 42,
        },
        EngineConfig::postgres_like()
            .with_parallel_scan(4)
            .without_dictionary_encoding(),
    )
}

/// The same deployment with parallel scans left at the serial default — the
/// baseline the morsel annotations are pinned against.
fn serial_deployment() -> MthDeployment {
    loader::load(
        MthConfig {
            scale: 0.05,
            tenants: 4,
            distribution: TenantDistribution::Uniform,
            seed: 42,
        },
        EngineConfig::postgres_like(),
    )
}

/// The same deployment with sub-query decorrelation disabled — correlated
/// EXISTS / scalar sub-queries stay interpreted per outer row, the baseline
/// the semi-/anti-join plans are pinned against.
fn nodecorr_deployment() -> MthDeployment {
    loader::load(
        MthConfig {
            scale: 0.05,
            tenants: 4,
            distribution: TenantDistribution::Uniform,
            seed: 42,
        },
        EngineConfig::postgres_like()
            .with_parallel_scan(4)
            .without_decorrelation(),
    )
}

fn explain(dep: &MthDeployment, query: usize, level: OptLevel) -> String {
    explain_sql(dep, &queries::query(query), level)
}

fn explain_sql(dep: &MthDeployment, sql: &str, level: OptLevel) -> String {
    let mut conn = dep.server.connect(1);
    conn.set_opt_level(level);
    conn.execute("SET SCOPE = \"IN (1, 2)\"").expect("scope");
    let rs = conn
        .query(&format!("EXPLAIN {sql}"))
        .unwrap_or_else(|e| panic!("EXPLAIN `{sql}` at {level:?}: {e}"));
    assert_eq!(rs.columns, vec!["QUERY PLAN".to_string()]);
    let mut text = String::new();
    for row in &rs.rows {
        text.push_str(row[0].as_str().expect("plan lines are strings"));
        text.push('\n');
    }
    text
}

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"))).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "EXPLAIN output drifted from {name}; run with UPDATE_GOLDEN=1 to regenerate"
    );
}

#[test]
fn golden_explain_snapshots() {
    let dep = deployment();
    for query in [1usize, 6, 22] {
        for (level, label) in [(OptLevel::O2, "o2"), (OptLevel::O4, "o4")] {
            let text = explain(&dep, query, level);
            check_golden(&format!("explain_q{query}_{label}.txt"), &text);
        }
    }
}

/// Scans over partition buckets are marked `vectorized` in EXPLAIN; a scan
/// of an unpartitioned (GLOBAL) table reads the loose row store and must not
/// be.
#[test]
fn explain_marks_bucket_scans_vectorized() {
    let dep = deployment();
    let text = explain(&dep, 6, OptLevel::O2);
    assert!(
        text.contains("SeqScan lineitem") && text.contains("vectorized"),
        "lineitem bucket scan not marked vectorized:\n{text}"
    );

    let loose_text = explain_sql(
        &dep,
        "SELECT n_name FROM nation WHERE n_regionkey = 1",
        OptLevel::O2,
    );
    assert!(
        loose_text.contains("SeqScan nation") && !loose_text.contains("vectorized"),
        "loose-row scan must not claim vectorized execution:\n{loose_text}"
    );
}

/// Scans over buckets holding dictionary-encoded columns carry the `dict`
/// marker; a deployment without dictionary encoding (still vectorized) must
/// not. The no-dict plan is pinned as its own golden snapshot.
#[test]
fn explain_marks_dictionary_scans() {
    let dep = deployment();
    let text = explain(&dep, 6, OptLevel::O2);
    assert!(
        text.contains("SeqScan lineitem") && text.contains("dict"),
        "dictionary-encoded lineitem scan not marked dict:\n{text}"
    );

    let nodict_dep = nodict_deployment();
    let nodict_text = explain(&nodict_dep, 6, OptLevel::O2);
    assert!(
        nodict_text.contains("vectorized") && !nodict_text.contains("dict"),
        "no-dict scan must stay vectorized but unmarked:\n{nodict_text}"
    );
    check_golden("explain_q6_o2_nodict.txt", &nodict_text);
}

/// On a serial deployment EXPLAIN carries no morsel annotation at all — the
/// notes describe the pool, and there is none to describe. The serial plan
/// is pinned as its own golden snapshot (the scheduler-off counterpart of
/// `explain_q6_o2.txt`).
#[test]
fn explain_omits_morsel_notes_on_serial_deployments() {
    let dep = deployment();
    let text = explain(&dep, 6, OptLevel::O2);
    assert!(
        text.contains("morsel:"),
        "pooled deployment lost its morsel annotation:\n{text}"
    );

    let serial_dep = serial_deployment();
    let serial_text = explain(&serial_dep, 6, OptLevel::O2);
    assert!(
        !serial_text.contains("morsel"),
        "serial plan must not mention the morsel scheduler:\n{serial_text}"
    );
    check_golden("explain_q6_o2_serial.txt", &serial_text);
}

/// Q22's correlated `NOT EXISTS` now plans as an anti join with a build-key
/// bloom annotation; on the no-decorrelation baseline the sub-query stays in
/// the filter, interpreted per outer row. The baseline plan is pinned as its
/// own golden snapshot (the rewrite-off counterpart of `explain_q22_o2.txt`).
#[test]
fn explain_shows_decorrelated_joins() {
    let dep = deployment();
    let text = explain(&dep, 22, OptLevel::O2);
    assert!(
        text.contains("HashJoin anti") && text.contains("[bloom:"),
        "Q22 lost its decorrelated anti join:\n{text}"
    );
    assert!(
        !text.contains("NOT EXISTS"),
        "Q22's EXISTS sub-query survived decorrelation:\n{text}"
    );

    let nodecorr_dep = nodecorr_deployment();
    let nodecorr_text = explain(&nodecorr_dep, 22, OptLevel::O2);
    assert!(
        nodecorr_text.contains("NOT EXISTS") && !nodecorr_text.contains("HashJoin anti"),
        "baseline plan must keep the interpreted sub-query:\n{nodecorr_text}"
    );
    check_golden("explain_q22_o2_nodecorr.txt", &nodecorr_text);
}

/// At o4 every conversion-heavy query wraps its scans in the `mt_partials`
/// derived table; the D-filter must still reach the base scan inside and
/// prune the two foreign tenants.
#[test]
fn o4_derived_tables_keep_scan_pruning() {
    let dep = deployment();
    for query in [1usize, 6] {
        let text = explain(&dep, query, OptLevel::O4);
        assert!(
            text.contains("Subquery AS mt_partials"),
            "Q{query} o4 lost its partials sub-query:\n{text}"
        );
        let after_subquery = text
            .split("Subquery AS mt_partials")
            .nth(1)
            .expect("sub-query section");
        assert!(
            after_subquery.contains("2/4 partitions (2 pruned)"),
            "Q{query} o4 scan below the derived table is not pruned:\n{text}"
        );
    }
}

/// Engine-level demonstration of the new derived-table pushdown: an outer
/// `ttid` conjunct over a derived table's projection now prunes the base
/// scan inside the sub-query. The AST interpreter materialized the whole
/// derived table first (partitions_pruned was 0 here before this layer).
#[test]
fn outer_conjunct_prunes_inside_derived_table() {
    let dep = deployment();
    dep.server.reset_stats();
    let full = dep
        .server
        .raw_query("SELECT COUNT(*) FROM lineitem")
        .unwrap();
    let total_rows = dep.server.stats().rows_scanned;

    dep.server.reset_stats();
    let rs = dep
        .server
        .raw_query(
            "SELECT SUM(x.l_quantity) FROM \
             (SELECT ttid, l_quantity FROM lineitem) AS x WHERE x.ttid = 1",
        )
        .unwrap();
    let stats = dep.server.stats();
    assert!(rs.scalar().is_some());
    assert!(full.scalar().is_some());
    assert_eq!(
        stats.partitions_pruned, 3,
        "expected the outer ttid filter to prune the 3 foreign buckets, stats: {stats:?}"
    );
    assert!(
        stats.rows_scanned * 2 < total_rows,
        "pruned derived-table scan visited {} of {} rows",
        stats.rows_scanned,
        total_rows
    );
}

/// The same pushdown stops at aggregate outputs: filtering on an aggregated
/// column must not reach below the grouping.
#[test]
fn aggregate_output_filters_stay_above_derived_tables() {
    let dep = deployment();
    dep.server.reset_stats();
    dep.server
        .raw_query(
            "SELECT g.total FROM \
             (SELECT ttid, SUM(l_quantity) AS total FROM lineitem GROUP BY ttid) AS g \
             WHERE g.total > 0",
        )
        .unwrap();
    assert_eq!(
        dep.server.stats().partitions_pruned,
        0,
        "a filter on an aggregate output must not prune the inner scan"
    );
}

/// `EXPLAIN` parses, prints and round-trips through mtsql like any other
/// statement.
#[test]
fn explain_statement_roundtrip() {
    let stmt = mtsql::parse_statement("EXPLAIN SELECT a FROM t WHERE b > 1").unwrap();
    assert!(matches!(stmt, mtsql::ast::Statement::Explain(_)));
    let printed = stmt.to_string();
    assert!(printed.starts_with("EXPLAIN SELECT"));
    let reparsed = mtsql::parse_statement(&printed).unwrap();
    assert_eq!(stmt, reparsed);
}
