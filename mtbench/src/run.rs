//! One run of one workload: set up, run the three phases (and, traced, the
//! single-layer probes), check the results, and turn samples into the
//! metrics of the registry.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use mtrewrite::OptLevel;

use crate::json::Json;
use crate::read::{self, Config, ReadSweep, CANONICAL, O4};
use crate::spec::{self, MetricDef, Workload};
use crate::stats::{median, percentile, tail};
use crate::trace::{self, Tracer};
use crate::util::{qtag, Metrics, Ops, Rng};
use crate::{deploy, frontend, probes, write};

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where WAL files and traces go (`mtbench/out`).
    pub out_dir: PathBuf,
}

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Every metric of the mode's registry, in registry order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Sizes, counts, sample counts and per-cell medians behind the metrics.
    pub details: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|(def, value)| {
            (
                def.name,
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(def.unit))]),
            )
        }))
    }

    /// The result line of the benchmark contract.
    pub fn contract_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
    }

    /// The entry appended to `--out`: the contract line plus what identifies
    /// and explains the run.
    pub fn record_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", self.metrics_json()),
            ("details", self.details.clone()),
        ])
    }
}

fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

/// Median, supported tail percentile and sample count of a latency series.
fn latency_json(samples_s: &[f64], scale: f64) -> Json {
    let mut fields = vec![
        ("samples", num(samples_s.len() as f64)),
        ("median", num(median(samples_s) * scale)),
    ];
    if let Some((p, value)) = tail(samples_s) {
        fields.push(("tail_percentile", num(p)));
        fields.push(("tail", num(value * scale)));
    }
    Json::obj(fields)
}

fn sweep_json(sweep: &ReadSweep) -> Json {
    Json::obj(sweep.queries.iter().map(|&q| {
        (
            qtag(q),
            Json::obj(
                sweep
                    .configs
                    .iter()
                    .map(|&c| (c.label(), num(sweep.median_ms(q, c)))),
            ),
        )
    }))
}

pub fn run(workload: &'static Workload, opts: &RunOpts) -> Result<RunResult, String> {
    let w = if opts.smoke {
        workload.smoke()
    } else {
        workload.for_seconds(opts.seconds)
    };
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;

    let deployed = deploy::deploy(&w, &opts.out_dir)?;
    let deploy::Deployed {
        mem,
        durable,
        wal,
        data,
        mt_rows,
        setup_s,
        gen_s,
        mem_load_s,
        durable_load_s,
    } = deployed;

    let measuring = Instant::now();
    let mut rng = Rng::new(opts.seed);
    let mut tracer = Tracer::new(measuring, opts.trace);
    let mut ops = Ops::default();
    let mut m = Metrics::default();

    // Traced runs sweep all seven configurations with a third of the passes
    // and decompose every front-end statement with a quarter of the passes,
    // so their phases cost about what the untraced ones do.
    let (configs, read_passes, slow_samples, frontend_passes) = if opts.trace {
        (
            read::all_configs(),
            (w.read_passes / 3).max(2),
            w.slow_samples.min(2),
            (w.frontend_passes / 4).max(2),
        )
    } else {
        (
            read::END_TO_END_CONFIGS.to_vec(),
            w.read_passes,
            w.slow_samples,
            w.frontend_passes,
        )
    };

    // The passes of the read sweep and of the front-end phase are spread
    // over the same stretch of time, each at its own even pace, so a noisy
    // few seconds on the host touch a few samples of every cell of both
    // phases instead of most samples of the shorter one.
    let mut read_phase = read::ReadPhase::start(&mem, &w, &configs, slow_samples, &mut ops)?;
    // The front-end phase runs on the durable deployment (idle until the
    // write phase; SELECTs never touch its log): it clears the server's plan
    // cache before every cold statement, which on the sweep's server would
    // turn the sweep's warm executions into re-plans.
    let mut front_phase = frontend::FrontendPhase::start(&durable, &w, opts.trace, &mut ops)?;
    let (mut read_done, mut front_done, mut read_s, mut frontend_s) = (0, 0, 0.0, 0.0);
    while read_done < read_passes || front_done < frontend_passes {
        let phase = Instant::now();
        // Run whichever phase is further behind its share.
        if (read_done + 1) * frontend_passes <= (front_done + 1) * read_passes {
            read_phase.pass(read_done, &mut rng, &mut tracer, &mut ops);
            read_done += 1;
            read_s += phase.elapsed().as_secs_f64();
        } else {
            front_phase.pass(front_done, &mut rng, &mut tracer, &mut ops);
            front_done += 1;
            frontend_s += phase.elapsed().as_secs_f64();
        }
    }
    let sweep = read_phase.finish();
    let front = front_phase.finish();

    let phase = Instant::now();
    if opts.trace {
        probes::cursor(&mem, read_passes, &mut m, &mut ops)?;
        probes::session(&mem, &w, frontend_passes, &mut m, &mut ops)?;
        probes::pool(&w, &data, &sweep, read_passes, &mut m, &mut ops)?;
    }
    let probes_s = phase.elapsed().as_secs_f64();
    let loaded_rows: usize = data
        .mt
        .values()
        .chain(data.baseline.values())
        .map(Vec::len)
        .sum();
    drop(data);

    let phase = Instant::now();
    let wrote = write::run(durable, &wal.0, &w, &mut rng, &mut tracer, &mut ops)?;
    let write_s = phase.elapsed().as_secs_f64();
    let measured_s = measuring.elapsed().as_secs_f64();
    drop(wal);

    // End-to-end metrics.
    m.set("setup_s", median(&setup_s));
    m.set("tpch_geomean_ms", sweep.geomean_ms(Config::Tpch));
    m.set("mth_geomean_ms", sweep.geomean_ms(O4));
    m.set("mth_over_tpch", sweep.over_tpch(O4));
    m.set("canonical_over_tpch", sweep.over_tpch(CANONICAL));
    for q in [1, 6, 22] {
        m.set(format!("{}_ms", qtag(q)), sweep.median_ms(q, O4));
    }
    m.set("stmt_cold_us", frontend::geomean_us(&front.cold));
    m.set("stmt_prepared_us", frontend::geomean_us(&front.prepared));
    m.set("commits_per_s", wrote.commits_per_s);
    m.set("commit_p50_ms", median(&wrote.commit_s) * 1e3);
    m.set(
        "read_under_write_ms",
        median(&wrote.read_under_write_s) * 1e3,
    );
    m.set("recovery_s", median(&wrote.recovery_s));

    // Per-layer metrics.
    if opts.trace {
        layer_metrics(&mut m, &sweep, &front, &wrote, &tracer)?;
        m.set(
            "mtengine.table.load_rows_per_s",
            loaded_rows as f64 / median(&mem_load_s),
        );
        m.set(
            "mtengine.wal.durable_load_overhead",
            median(&durable_load_s) / median(&mem_load_s),
        );
        m.set("mth.gen_s", median(&gen_s));
        let path = opts.out_dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, trace::to_json(tracer.spans()).pretty(1))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let mut metrics = Vec::new();
    for def in spec::registry(opts.trace) {
        let value =
            m.0.get(def.name)
                .copied()
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() || !spec::valid_name(def.name) {
            return Err(format!("metric {} = {value} cannot be reported", def.name));
        }
        metrics.push((*def, value));
    }

    let (min_samples, max_samples) = sweep.sample_counts();
    let details = Json::obj([
        (
            "shape",
            Json::obj([
                ("scale", num(w.scale)),
                ("tenants", num(w.tenants as f64)),
                ("distribution", Json::str(format!("{:?}", w.distribution))),
                ("queries", num(w.queries.len() as f64)),
                ("mt_rows", num(mt_rows as f64)),
                ("smoke", Json::Bool(opts.smoke)),
            ]),
        ),
        (
            "counts",
            Json::obj([
                ("setups", num(setup_s.len() as f64)),
                ("read_passes", num(read_passes as f64)),
                ("read_configs", num(configs.len() as f64)),
                ("read_samples_per_cell_min", num(min_samples as f64)),
                ("read_samples_per_cell_max", num(max_samples as f64)),
                ("frontend_passes", num(frontend_passes as f64)),
                ("w2_commits", num(wrote.commit_s.len() as f64)),
                ("rw_commits", num(wrote.rw_commits as f64)),
                ("rw_reads", num(wrote.read_under_write_s.len() as f64)),
                ("reopens", num(wrote.recovery_s.len() as f64)),
                ("spans", num(tracer.spans().len() as f64)),
            ]),
        ),
        (
            "seconds",
            Json::obj([
                ("measured", num(measured_s)),
                ("read", num(read_s)),
                ("frontend", num(frontend_s)),
                ("probes", num(probes_s)),
                ("write", num(write_s)),
            ]),
        ),
        (
            "write_phase_seconds",
            Json::obj(wrote.phase_s.iter().map(|&(name, s)| (name, num(s)))),
        ),
        ("commit_ms", latency_json(&wrote.commit_s, 1e3)),
        (
            "read_under_write_ms",
            latency_json(&wrote.read_under_write_s, 1e3),
        ),
        (
            "recovery",
            Json::obj([
                ("wal_bytes", num(wrote.wal_bytes as f64)),
                ("items_rows_replayed", num(wrote.items_rows as f64)),
                ("loaded_rows_replayed", num(mt_rows as f64)),
                ("w2_fsyncs_per_commit", num(wrote.w2_fsyncs_per_commit)),
            ]),
        ),
        ("cell_median_ms", sweep_json(&sweep)),
    ]);

    Ok(RunResult {
        workload: workload.name,
        seed: opts.seed,
        trace: opts.trace,
        attempted: ops.attempted,
        failed: ops.failed,
        failures: ops.failures,
        metrics,
        details,
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn layer_metrics(
    m: &mut Metrics,
    sweep: &ReadSweep,
    front: &frontend::Frontend,
    wrote: &write::WriteOutcome,
    tracer: &Tracer,
) -> Result<(), String> {
    let layers = front
        .layers
        .as_ref()
        .ok_or("traced run without front-end layers")?;
    let wl = wrote
        .layers
        .as_ref()
        .ok_or("traced run without write layers")?;

    // mtsql, mtrewrite, mtengine::plan / ::verify — the front-end phase.
    m.set("mtsql.parse_us", frontend::geomean_us(&layers.parse));
    m.set("mtsql.print_us", frontend::geomean_us(&layers.print));
    for (i, level) in OptLevel::ALL.iter().enumerate() {
        m.set(
            format!("mtrewrite.rewrite_us.{}", level.label()),
            frontend::geomean_diff_us(&layers.rewrite_only[i], &layers.parse),
        );
        m.set(
            format!("mtrewrite.sql_bytes.{}", level.label()),
            layers.sql_bytes[i] as f64,
        );
    }
    let o4_index = frontend::level_index(OptLevel::O4);
    m.set(
        "mtengine.plan_us.tpch",
        frontend::geomean_us(&layers.plan_tpch),
    );
    m.set(
        "mtengine.verify_us.tpch",
        frontend::geomean_us(&layers.verify_tpch),
    );
    m.set(
        "mtengine.plan_verify_us.mth",
        frontend::geomean_diff_us(&layers.explain_cold, &layers.rewrite_only[o4_index]),
    );
    m.set("mtengine.plan.operators", layers.operators as f64);
    m.set(
        "mtbase.oneshot_warm_us",
        frontend::geomean_us(&layers.oneshot_warm),
    );
    m.set(
        "mtbase.plan_cache.hit_ratio",
        ratio(
            front.window.prepared_cache_hits,
            front.window.prepared_cache_hits + front.window.prepared_cache_misses,
        ),
    );
    m.set(
        "mtengine.table.partitions_pruned_ratio",
        ratio(
            front.window.partitions_pruned,
            front.window.partitions_pruned + front.window.partitions_scanned,
        ),
    );
    m.set(
        "mtbench.layer_sum_over_e2e",
        front.layer_sum_over_e2e().ok_or("no layer sum")?,
    );

    // mtrewrite's output and mtengine::exec / ::table / ::udf — the sweep.
    for level in [
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::InlineOnly,
    ] {
        m.set(
            format!("mtrewrite.level_over_tpch.{}", level.label()),
            sweep.over_tpch(Config::Mt(level)),
        );
    }
    for q in [1, 6, 22] {
        for config in [
            Config::Tpch,
            Config::Mt(OptLevel::O2),
            Config::Mt(OptLevel::InlineOnly),
        ] {
            m.set(
                format!("mtengine.exec_ms.{}.{}", qtag(q), config.label()),
                sweep.median_ms(q, config),
            );
        }
    }
    let ns_per_row = |q: usize, config: Config| {
        sweep.median_ms(q, config) * 1e6 / sweep.counters(q, config).rows_scanned.max(1) as f64
    };
    m.set("mtengine.exec.ns_per_row.q01", ns_per_row(1, O4));
    m.set("mtengine.exec.ns_per_row.q06", ns_per_row(6, O4));
    m.set(
        "mtengine.exec.ns_per_row.q01.tpch",
        ns_per_row(1, Config::Tpch),
    );
    m.set(
        "mtengine.exec.q01_over_q06_per_row",
        ns_per_row(1, O4) / ns_per_row(6, O4),
    );
    m.set(
        "mtengine.rows_scanned.o4",
        sweep.counter_sum(O4, |s| s.rows_scanned) as f64,
    );
    m.set(
        "mtengine.rows_scanned.tpch",
        sweep.counter_sum(Config::Tpch, |s| s.rows_scanned) as f64,
    );
    m.set(
        "mtengine.rows_vectorized.o4",
        sweep.counter_sum(O4, |s| s.rows_vectorized) as f64,
    );
    m.set(
        "mtengine.late_materialized.o4",
        sweep.counter_sum(O4, |s| s.late_materialized) as f64,
    );
    m.set(
        "mtengine.dict_kernel_rows.o4",
        sweep.counter_sum(O4, |s| s.dict_kernel_rows) as f64,
    );
    m.set(
        "mtengine.subqueries_unnested.o4",
        sweep.counter_sum(O4, |s| s.subqueries_unnested) as f64,
    );
    let calls = sweep.counter_sum(CANONICAL, |s| s.udf_calls);
    let hits = sweep.counter_sum(CANONICAL, |s| s.udf_cache_hits);
    m.set("mtengine.udf.calls.canonical", calls as f64);
    m.set(
        "mtengine.udf.calls.o4",
        sweep.counter_sum(O4, |s| s.udf_calls) as f64,
    );
    m.set("mtengine.udf.cache_hits.canonical", hits as f64);
    m.set(
        "mtengine.udf.cache_hit_ratio.canonical",
        ratio(hits, hits + calls),
    );
    // Estimated on Q1, the query whose canonical cost is conversion calls.
    let q1 = sweep.counters(1, CANONICAL);
    m.set(
        "mtengine.udf.ns_per_invocation_est",
        (sweep.median_ms(1, CANONICAL) - sweep.median_ms(1, O4)) * 1e6
            / (q1.udf_calls + q1.udf_cache_hits).max(1) as f64,
    );

    // mtengine::txn / ::lock / ::wal and mtbase under writes — the write phase.
    let self_s: BTreeMap<&str, Vec<f64>> = trace::self_seconds_by_name(tracer.spans());
    for (metric, span) in [
        ("mtengine.txn.begin_us", "mtengine.txn.begin"),
        ("mtengine.txn.insert_stmt_us", "mtengine.txn.insert"),
        ("mtengine.txn.commit_us", "mtengine.txn.commit"),
        ("mtengine.txn.rollback_us", "mtengine.txn.rollback"),
    ] {
        let samples = self_s.get(span).ok_or_else(|| format!("no {span} spans"))?;
        m.set(metric, median(samples) * 1e6);
    }
    if wl.update_s.is_empty() || wl.delete_s.is_empty() || wl.replay_s.is_empty() {
        return Err("the write phase recorded no UPDATE, DELETE or replay sample".into());
    }
    m.set("mtengine.txn.update_stmt_ms", median(&wl.update_s) * 1e3);
    m.set("mtengine.txn.delete_stmt_ms", median(&wl.delete_s) * 1e3);
    m.set(
        "mtengine.lock.same_tenant_commits_per_s",
        wl.same_tenant_commits_per_s,
    );
    m.set("mtengine.lock.aborts", wl.aborts as f64);
    m.set(
        "mtengine.wal.single_writer_commits_per_s",
        wl.w1_commits_per_s,
    );
    m.set("mtengine.wal.fsyncs_per_commit.1w", wl.w1_fsyncs_per_commit);
    m.set(
        "mtengine.wal.fsyncs_per_commit.2w",
        wrote.w2_fsyncs_per_commit,
    );
    m.set("mtengine.wal.bytes_per_row", wl.wal_bytes_per_row);
    m.set(
        "mtengine.wal.bytes_per_user_byte",
        wl.wal_bytes_per_user_byte,
    );
    m.set(
        "mtengine.wal.replay_mb_per_s",
        wrote.wal_bytes as f64 / 1e6 / median(&wl.replay_s),
    );
    m.set(
        "mtbase.read_under_write_slowdown",
        median(&wrote.read_under_write_s) / median(&wrote.read_idle_s),
    );
    m.set("mtbase.commits_per_s_beside_reader", wrote.rw_commits_per_s);
    m.set(
        "mtengine.wal.commit_p99_ms",
        percentile(&wrote.commit_s, 99.0) * 1e3,
    );
    m.set("mtbench.trace_overhead", wl.trace_overhead);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke run of each mode goes through every phase, check and output
    /// path and emits exactly the names of its registry, in registry order.
    #[test]
    fn smoke_runs_emit_exactly_the_registry() {
        let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        for trace in [false, true] {
            let opts = RunOpts {
                seed: 7,
                seconds: spec::RUN_SECONDS,
                trace,
                smoke: true,
                out_dir: out_dir.clone(),
            };
            let workload = Workload::by_name("txn_write_mix").expect("a known workload");
            let result = run(workload, &opts).expect("smoke run");
            assert_eq!(result.failures, Vec::<String>::new());
            assert!(result.correct() && result.attempted > 0);
            let emitted: Vec<&str> = result.metrics.iter().map(|(def, _)| def.name).collect();
            let expected: Vec<&str> = spec::registry(trace).iter().map(|d| d.name).collect();
            assert_eq!(emitted, expected);
            let line = Json::parse(&result.contract_json().to_string()).expect("result line");
            let keys: Vec<&str> = line
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(out_dir.join("trace-txn_write_mix.json").exists(), trace);
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
