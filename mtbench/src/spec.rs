//! The benchmark's definition: the four workloads with their sizes and
//! operation counts, and the registry of every metric the binary emits.
//! `BENCHMARK.json` at the repository root carries the same names, units,
//! directions and bounds; a unit test keeps the two in step.

use mth::params::TenantDistribution;
use mth::queries::CONVERSION_HEAVY;

/// `--seconds` value the operation counts below are calibrated for (2-vCPU
/// host): at this value every workload measures for roughly that long.
pub const RUN_SECONDS: f64 = 24.0;

/// One workload: a deployment shape plus fixed operation counts for the
/// three phases every workload runs — the read sweep (all tenants in scope,
/// paper Table 5 shape), the front-end phase (one foreign tenant in scope,
/// paper Table 4 shape) and the durable write phase. The workloads differ in
/// the shape and in which phase gets the bulk of the operations.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// MT-H scale (1.0 ≈ 6 k lineitem rows).
    pub scale: f64,
    pub tenants: i64,
    pub distribution: TenantDistribution,
    /// MT-H query numbers the read sweep and the front-end phase run.
    pub queries: &'static [usize],
    /// Queries whose cells take about a second: they get `slow_samples`
    /// executions (the checked first one included) instead of a warm-up
    /// plus `read_passes`.
    pub slow_queries: &'static [usize],
    pub slow_samples: usize,
    /// Times generate + load is repeated; `setup_s` is their median.
    pub setups: usize,
    /// Measured passes of the read sweep over queries × configurations.
    pub read_passes: usize,
    /// Measured passes of the front-end phase over the query texts.
    pub frontend_passes: usize,
    /// `w2`: `BEGIN; 5×INSERT; COMMIT` transactions per writer, two writers.
    pub w2_txns: usize,
    /// `rw`: prepared Q6 executions of the reader; the writer beside it
    /// commits auto-commit INSERTs until the reader is done. The reader's
    /// count is the fixed one because a looping reader can starve the writer
    /// of the engine lock, which would leave the phase without a bound.
    pub rw_reads: usize,
    /// `w1` (traced runs): auto-commit INSERTs of the single writer; also
    /// the size of the bucket the single-row UPDATEs and DELETEs rewrite.
    pub w1_commits: usize,
    /// Times the final log is reopened; `recovery_s` is their median.
    pub reopens: usize,
}

pub const ALL_QUERIES: &[usize] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mth_sweep",
        why: "Paper Table 5: scale 1 (6k lineitem), T=10 uniform, 22 queries x tpch/canonical/o4 prepared and warm; executor does the work, the config axis isolates mtrewrite's output",
        scale: 1.0,
        tenants: 10,
        distribution: TenantDistribution::Uniform,
        queries: ALL_QUERIES,
        // Q19's nested-loop join is super-linear: 1.1 s here. It stays in;
        // the geomean keeps it from drowning the other 21.
        slow_queries: &[19],
        slow_samples: 3,
        setups: 15,
        read_passes: 20,
        frontend_passes: 12,
        w2_txns: 12_000,
        rw_reads: 6_000,
        w1_commits: 3_000,
        reopens: 5,
    },
    Workload {
        name: "conv_heavy_large",
        why: "Paper Figure 5: scale 40 (215k lineitem), T=100 Zipf, Q1/Q6/Q22; working set beyond CPU and UDF caches, scan + aggregate + conversion dominate, planning amortised to zero",
        scale: 40.0,
        tenants: 100,
        distribution: TenantDistribution::Zipf,
        queries: &CONVERSION_HEAVY,
        // Q1 cells take 0.4 to 1.1 s at this size.
        slow_queries: &[1],
        slow_samples: 6,
        setups: 3,
        read_passes: 5,
        frontend_passes: 20,
        w2_txns: 12_000,
        rw_reads: 120,
        w1_commits: 3_000,
        reopens: 3,
    },
    Workload {
        name: "frontend_cold",
        why: "Paper Table 4: scale 0.05 (330 lineitem), T=10, 22 texts cold one-shot vs prepared with D={2}; parse, scope, rewrite, plan and plan cache are the cost, the executor is noise",
        scale: 0.05,
        tenants: 10,
        distribution: TenantDistribution::Uniform,
        queries: ALL_QUERIES,
        slow_queries: &[],
        slow_samples: 0,
        setups: 25,
        read_passes: 300,
        frontend_passes: 1_200,
        w2_txns: 12_000,
        rw_reads: 40_000,
        w1_commits: 6_000,
        reopens: 5,
    },
    Workload {
        name: "txn_write_mix",
        why: "Writes beside reads: durable scale 4 (21k lineitem) + Items table, 2 writers x 20k BEGIN/5 INSERT/COMMIT, a writer beside 8k Q6 reads, reopen 5x; lock -> txn -> wal instead of exec",
        scale: 4.0,
        tenants: 10,
        distribution: TenantDistribution::Uniform,
        queries: &CONVERSION_HEAVY,
        slow_queries: &[],
        slow_samples: 0,
        setups: 9,
        read_passes: 45,
        frontend_passes: 250,
        w2_txns: 20_000,
        rw_reads: 8_000,
        w1_commits: 20_000,
        reopens: 5,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The `--smoke` variant: scale 0.05 everywhere, 2 passes, 200 commits.
    /// It exercises every phase, check and output path in seconds.
    pub fn smoke(&self) -> Workload {
        Workload {
            scale: 0.05,
            slow_queries: &[],
            slow_samples: 0,
            setups: 2,
            read_passes: 2,
            frontend_passes: 2,
            w2_txns: 100,
            rw_reads: 50,
            w1_commits: 200,
            reopens: 2,
            ..self.clone()
        }
    }

    /// Scale the operation counts for a `--seconds` other than
    /// [`RUN_SECONDS`]. Counts are a function of the flag alone, never of
    /// elapsed time, so every commit runs the same operations.
    pub fn for_seconds(&self, seconds: f64) -> Workload {
        let scaled = |count: usize, floor: usize| {
            (((count as f64) * seconds / RUN_SECONDS).round() as usize).max(floor.min(count))
        };
        Workload {
            slow_samples: scaled(self.slow_samples, 2),
            setups: scaled(self.setups, 3),
            read_passes: scaled(self.read_passes, 2),
            frontend_passes: scaled(self.frontend_passes, 2),
            w2_txns: scaled(self.w2_txns, 100),
            rw_reads: scaled(self.rw_reads, 50),
            w1_commits: scaled(self.w1_commits, 200),
            reopens: scaled(self.reopens, 3),
            ..self.clone()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the registry. End-to-end metrics carry the share of the
/// parent's median by which they may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of MTBase feels. Reported by untraced runs (`--trace 0`).
///
/// The bounds are what the 2-vCPU build host can resolve between fresh
/// processes: ten runs of one commit spread absolute times by 2 to 13 % of
/// their median (quartile distance; shared-host drift and per-process memory
/// layout), the drift-cancelling ratios by 1 to 6 %. Sharper questions are
/// for the ratios, the exact counters of the traced run, and paired runs.
///
/// The p99 of the `COMMIT` latency spread by 17 to 36 % — the tail of the
/// host's `fsync` — which no bound the contract allows can hold, so it is
/// reported per layer (`mtengine.wal.commit_p99_ms`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tpch_geomean_ms", "ms", Lower, 0.25),
    e2e("mth_geomean_ms", "ms", Lower, 0.25),
    e2e("mth_over_tpch", "ratio", Lower, 0.15),
    e2e("canonical_over_tpch", "ratio", Lower, 0.15),
    e2e("q01_ms", "ms", Lower, 0.25),
    e2e("q06_ms", "ms", Lower, 0.25),
    e2e("q22_ms", "ms", Lower, 0.25),
    e2e("stmt_cold_us", "us", Lower, 0.25),
    e2e("stmt_prepared_us", "us", Lower, 0.25),
    e2e("commits_per_s", "1/s", Higher, 0.25),
    e2e("commit_p50_ms", "ms", Lower, 0.25),
    e2e("read_under_write_ms", "ms", Lower, 0.25),
    e2e("recovery_s", "s", Lower, 0.25),
];

/// One layer each (layer = crate or `mtengine` module). Reported by traced
/// runs (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    layer("mtsql.parse_us", "us", Lower),
    layer("mtsql.print_us", "us", Lower),
    layer("mtrewrite.rewrite_us.canonical", "us", Lower),
    layer("mtrewrite.rewrite_us.o1", "us", Lower),
    layer("mtrewrite.rewrite_us.o2", "us", Lower),
    layer("mtrewrite.rewrite_us.o3", "us", Lower),
    layer("mtrewrite.rewrite_us.o4", "us", Lower),
    layer("mtrewrite.rewrite_us.inl-only", "us", Lower),
    layer("mtrewrite.sql_bytes.canonical", "bytes", Lower),
    layer("mtrewrite.sql_bytes.o1", "bytes", Lower),
    layer("mtrewrite.sql_bytes.o2", "bytes", Lower),
    layer("mtrewrite.sql_bytes.o3", "bytes", Lower),
    layer("mtrewrite.sql_bytes.o4", "bytes", Lower),
    layer("mtrewrite.sql_bytes.inl-only", "bytes", Lower),
    layer("mtrewrite.level_over_tpch.o1", "ratio", Lower),
    layer("mtrewrite.level_over_tpch.o2", "ratio", Lower),
    layer("mtrewrite.level_over_tpch.o3", "ratio", Lower),
    layer("mtrewrite.level_over_tpch.inl-only", "ratio", Lower),
    layer("mtengine.plan_us.tpch", "us", Lower),
    layer("mtengine.verify_us.tpch", "us", Lower),
    layer("mtengine.plan_verify_us.mth", "us", Lower),
    layer("mtengine.plan.operators", "count", Lower),
    layer("mtengine.exec_ms.q01.tpch", "ms", Lower),
    layer("mtengine.exec_ms.q01.o2", "ms", Lower),
    layer("mtengine.exec_ms.q01.inl-only", "ms", Lower),
    layer("mtengine.exec_ms.q06.tpch", "ms", Lower),
    layer("mtengine.exec_ms.q06.o2", "ms", Lower),
    layer("mtengine.exec_ms.q06.inl-only", "ms", Lower),
    layer("mtengine.exec_ms.q22.tpch", "ms", Lower),
    layer("mtengine.exec_ms.q22.o2", "ms", Lower),
    layer("mtengine.exec_ms.q22.inl-only", "ms", Lower),
    layer("mtengine.exec.ns_per_row.q01", "ns", Lower),
    layer("mtengine.exec.ns_per_row.q06", "ns", Lower),
    layer("mtengine.exec.ns_per_row.q01.tpch", "ns", Lower),
    layer("mtengine.exec.q01_over_q06_per_row", "ratio", Lower),
    layer("mtengine.rows_scanned.o4", "count", Lower),
    layer("mtengine.rows_scanned.tpch", "count", Lower),
    layer("mtengine.rows_vectorized.o4", "count", Higher),
    layer("mtengine.late_materialized.o4", "count", Lower),
    layer("mtengine.dict_kernel_rows.o4", "count", Higher),
    layer("mtengine.subqueries_unnested.o4", "count", Higher),
    layer("mtengine.table.partitions_pruned_ratio", "ratio", Higher),
    layer("mtengine.table.load_rows_per_s", "1/s", Higher),
    layer("mtengine.udf.calls.canonical", "count", Lower),
    layer("mtengine.udf.calls.o4", "count", Lower),
    layer("mtengine.udf.cache_hits.canonical", "count", Higher),
    layer("mtengine.udf.cache_hit_ratio.canonical", "ratio", Higher),
    layer("mtengine.udf.ns_per_invocation_est", "ns", Lower),
    layer("mtengine.pool.q01_speedup_2w", "ratio", Higher),
    layer("mtengine.pool.q06_speedup_2w", "ratio", Higher),
    layer("mtengine.pool.available_parallelism", "count", Higher),
    layer("mtengine.cursor.first_batch_us", "us", Lower),
    layer("mtengine.cursor.rows_per_s", "1/s", Higher),
    layer("mtengine.cursor.peak_resident_rows", "count", Lower),
    layer("mtbase.plan_cache.hit_ratio", "ratio", Higher),
    layer("mtbase.oneshot_warm_us", "us", Lower),
    layer("mtbase.connect_us", "us", Lower),
    layer("mtbase.scope_complex_extra_us", "us", Lower),
    layer("mtbase.read_under_write_slowdown", "ratio", Lower),
    layer("mtbase.commits_per_s_beside_reader", "1/s", Higher),
    layer("mtengine.txn.begin_us", "us", Lower),
    layer("mtengine.txn.insert_stmt_us", "us", Lower),
    layer("mtengine.txn.commit_us", "us", Lower),
    layer("mtengine.txn.rollback_us", "us", Lower),
    layer("mtengine.txn.update_stmt_ms", "ms", Lower),
    layer("mtengine.txn.delete_stmt_ms", "ms", Lower),
    layer("mtengine.lock.same_tenant_commits_per_s", "1/s", Higher),
    layer("mtengine.lock.aborts", "count", Lower),
    layer("mtengine.wal.single_writer_commits_per_s", "1/s", Higher),
    layer("mtengine.wal.fsyncs_per_commit.1w", "ratio", Lower),
    layer("mtengine.wal.fsyncs_per_commit.2w", "ratio", Lower),
    layer("mtengine.wal.bytes_per_row", "bytes", Lower),
    layer("mtengine.wal.bytes_per_user_byte", "ratio", Lower),
    layer("mtengine.wal.commit_p99_ms", "ms", Lower),
    layer("mtengine.wal.replay_mb_per_s", "MB/s", Higher),
    layer("mtengine.wal.durable_load_overhead", "ratio", Lower),
    layer("mth.gen_s", "s", Lower),
    layer("mtbench.trace_overhead", "ratio", Lower),
    layer("mtbench.layer_sum_over_e2e", "ratio", Lower),
];

/// The registry a run of the given mode reports in full.
pub fn registry(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// A metric or workload name as the benchmark contract allows it: starts
/// with a letter or digit, then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn name_validator_follows_the_contract() {
        for good in ["q01_ms", "mtrewrite.rewrite_us.inl-only", "1w", "A.b-c_9"] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-x",
            "_x",
            "a b",
            "a/b",
            "µs",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn registry_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert_eq!(END_TO_END.len(), 14);
    }

    fn fields(entry: &Json) -> Vec<(&str, &Json)> {
        entry
            .as_object()
            .expect("entry is an object")
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .collect()
    }

    /// The names, units, directions and bounds the binary emits are exactly
    /// those `BENCHMARK.json` promises.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = fields(&doc).iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );

        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(
                fields(entry),
                [("name", &Json::str(w.name)), ("why", &Json::str(w.why))]
            );
        }

        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(entries.len(), defs.len(), "{key}");
            for (entry, def) in entries.iter().zip(defs) {
                let mut expected = vec![
                    ("name", Json::str(def.name)),
                    ("unit", Json::str(def.unit)),
                    ("better", Json::str(def.better.label())),
                ];
                if let Some(bound) = def.bound {
                    expected.push(("bound", Json::Num(bound)));
                }
                let expected: Vec<(&str, &Json)> = expected.iter().map(|(k, v)| (*k, v)).collect();
                assert_eq!(fields(entry), expected, "{}", def.name);
            }
        }
    }

    #[test]
    fn counts_scale_with_seconds_only() {
        let w = Workload::by_name("txn_write_mix").unwrap();
        assert_eq!(w.for_seconds(RUN_SECONDS).w2_txns, w.w2_txns);
        assert_eq!(w.for_seconds(RUN_SECONDS / 2.0).w2_txns, w.w2_txns / 2);
        let tiny = w.for_seconds(0.001);
        assert!(tiny.read_passes >= 2 && tiny.w2_txns >= 100 && tiny.reopens >= 3);
    }
}
