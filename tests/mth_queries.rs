//! Integration tests spanning the whole stack: the 22 MT-H queries are
//! parsed, rewritten by MTBase at several optimization levels and executed on
//! the engine; results are validated against the single-tenant baseline.

use mtbase::EngineConfig;
use mth::params::MthConfig;
use mth::{loader, queries, validate};
use mtrewrite::OptLevel;

fn tiny_deployment() -> mth::MthDeployment {
    loader::load(
        MthConfig {
            scale: 0.08,
            tenants: 4,
            ..MthConfig::default()
        },
        EngineConfig::postgres_like(),
    )
}

#[test]
fn all_queries_execute_at_o1_and_o4() {
    let dep = tiny_deployment();
    for n in queries::all_query_numbers() {
        for level in [OptLevel::O1, OptLevel::O4] {
            let result = validate::run_mt_query(&dep, n, level);
            assert!(
                result.is_ok(),
                "Q{n} failed at {level:?}: {}",
                result.err().map(|e| e.to_string()).unwrap_or_default()
            );
        }
    }
}

#[test]
fn all_queries_execute_at_canonical_level() {
    let dep = tiny_deployment();
    for n in queries::all_query_numbers() {
        let result = validate::run_mt_query(&dep, n, OptLevel::Canonical);
        assert!(
            result.is_ok(),
            "Q{n} failed at canonical level: {}",
            result.err().map(|e| e.to_string()).unwrap_or_default()
        );
    }
}

#[test]
fn all_queries_execute_on_the_baseline() {
    let dep = tiny_deployment();
    for n in queries::all_query_numbers() {
        let result = validate::run_baseline_query(&dep, n);
        assert!(
            result.is_ok(),
            "baseline Q{n} failed: {}",
            result.err().map(|e| e.to_string()).unwrap_or_default()
        );
    }
}

#[test]
fn validation_queries_match_the_baseline_at_every_level() {
    let dep = tiny_deployment();
    for level in [
        OptLevel::Canonical,
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::O4,
    ] {
        for report in validate::validate(&dep, &validate::VALIDATABLE, level) {
            assert!(
                report.passed,
                "Q{} failed validation at {:?}: {}",
                report.query, report.level, report.detail
            );
        }
    }
}

#[test]
fn optimization_levels_agree_with_each_other() {
    let dep = tiny_deployment();
    // Beyond the baseline-comparable subset: every level must agree with the
    // canonical rewrite (the paper's gold standard) on all queries.
    for n in queries::all_query_numbers() {
        let reference = validate::run_mt_query(&dep, n, OptLevel::Canonical).unwrap();
        for level in [
            OptLevel::O1,
            OptLevel::O2,
            OptLevel::O3,
            OptLevel::O4,
            OptLevel::InlineOnly,
        ] {
            let other = validate::run_mt_query(&dep, n, level).unwrap();
            assert!(
                validate::compare_result_sets(&reference, &other).is_ok(),
                "Q{n}: {level:?} diverges from the canonical rewrite"
            );
        }
    }
}

/// Q22 counts customers without orders, but the generator gives every
/// customer at least one, so on generated data Q22 is empty at every scale
/// and every level trivially agrees. Deleting the orders of every customer
/// whose key is ≡ 0 mod 3 (TPC-H's own rule for order-less customers) makes
/// the anti join decide rows: Q22 must return some, the same at every level
/// and the same as the per-row `NOT EXISTS` of an engine that does not
/// decorrelate.
#[test]
fn q22_over_customers_without_orders_agrees_at_every_level() {
    let without_orders = |config| {
        let dep = loader::load(
            MthConfig {
                scale: 0.08,
                tenants: 4,
                ..MthConfig::default()
            },
            config,
        );
        dep.server
            .raw_execute("DELETE FROM orders WHERE o_custkey % 3 = 0")
            .expect("delete the orders of every third customer");
        dep
    };
    let dep = without_orders(EngineConfig::postgres_like());
    let reference = validate::run_mt_query(&dep, 22, OptLevel::Canonical).unwrap();
    assert!(
        !reference.rows.is_empty(),
        "Q22 must find customers without orders"
    );
    let per_row = without_orders(EngineConfig::postgres_like().without_decorrelation());
    let interpreted = validate::run_mt_query(&per_row, 22, OptLevel::Canonical).unwrap();
    assert!(
        validate::compare_result_sets(&reference, &interpreted).is_ok(),
        "Q22: the anti join disagrees with the per-row NOT EXISTS: {:?} vs {:?}",
        reference.rows,
        interpreted.rows
    );
    for level in [
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::O4,
        OptLevel::InlineOnly,
    ] {
        let other = validate::run_mt_query(&dep, 22, level).unwrap();
        assert!(
            validate::compare_result_sets(&reference, &other).is_ok(),
            "Q22: {level:?} diverges from the canonical rewrite: {:?} vs {:?}",
            other.rows,
            reference.rows
        );
    }
}
