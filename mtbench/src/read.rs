//! The read sweep (paper Table 5 shape): the workload's queries × execution
//! configurations, client 1 with every tenant in scope, **prepared and
//! warm** — MT-H cells through `Connection::prepare` → `Statement::execute`,
//! the single-tenant baseline through `Engine::plan_query` once →
//! `Engine::execute_plan`. Planning is amortised to zero, so the executor
//! does the work and the configuration axis changes only the SQL `mtrewrite`
//! emits.
//!
//! Cells are visited in a seed-shuffled order that interleaves all
//! configurations inside every pass, so host drift lands on every cell
//! equally and ratios between cells cancel it. The run spreads the passes
//! of this phase and of the front-end phase over the same stretch of time
//! (see `run.rs`), so a noisy few seconds on the host touch a few samples of
//! every cell of both phases instead of all samples of one.

use std::hint::black_box;
use std::time::Instant;

use mtbase::{ResultSet, Statement};
use mtengine::plan::Plan;
use mtengine::stats::StatsSnapshot;
use mth::loader::MthDeployment;
use mth::{queries, validate};
use mtrewrite::OptLevel;

use crate::spec::Workload;
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::util::{Ops, Rng};

/// Scope statement putting every tenant in `D`.
pub const SCOPE_ALL: &str = "SET SCOPE = \"IN ()\"";

/// One execution configuration of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Plain TPC-H on the single-tenant baseline engine.
    Tpch,
    /// MT-H through MTBase at one optimisation level.
    Mt(OptLevel),
}

impl Config {
    pub fn label(self) -> &'static str {
        match self {
            Config::Tpch => "tpch",
            Config::Mt(level) => level.label(),
        }
    }
}

pub const CANONICAL: Config = Config::Mt(OptLevel::Canonical);
/// The product default level.
pub const O4: Config = Config::Mt(OptLevel::O4);

/// The configurations the end-to-end metrics need.
pub const END_TO_END_CONFIGS: [Config; 3] = [Config::Tpch, CANONICAL, O4];

/// All seven: the baseline plus every optimisation level (traced runs).
pub fn all_configs() -> Vec<Config> {
    std::iter::once(Config::Tpch)
        .chain(OptLevel::ALL.into_iter().map(Config::Mt))
        .collect()
}

enum Runner<'d> {
    Tpch(&'d MthDeployment, Plan),
    Mt(Box<Statement>),
}

impl Runner<'_> {
    /// Execute once; returns the result and the engine-counter delta of
    /// this execution (exact, because the sweep is the only client).
    fn execute(&mut self) -> Result<(ResultSet, StatsSnapshot), String> {
        match self {
            Runner::Tpch(dep, plan) => {
                let before = dep.baseline.stats();
                let rs = dep
                    .baseline
                    .execute_plan(plan, &[])
                    .map_err(|e| e.to_string())?;
                Ok((rs, dep.baseline.stats().delta_from(&before)))
            }
            Runner::Mt(stmt) => {
                let rs = stmt.execute().map_err(|e| e.to_string())?;
                Ok((rs, stmt.last_query_stats()))
            }
        }
    }
}

/// A statement prepared by client 1 at `level` under `scope`. The statement
/// keeps the session (scope, level) of the connection that prepared it.
pub fn prepare_mt(
    dep: &MthDeployment,
    level: OptLevel,
    scope: &str,
    sql: &str,
) -> Result<Statement, String> {
    let mut conn = dep.server.connect(1);
    conn.set_opt_level(level);
    conn.execute(scope).map_err(|e| e.to_string())?;
    conn.prepare(sql).map_err(|e| e.to_string())
}

/// Samples and counters of one sweep, indexed `[query][config]` in the
/// order of `queries` / `configs`.
pub struct ReadSweep {
    pub queries: Vec<usize>,
    pub configs: Vec<Config>,
    /// Execution times in seconds.
    pub samples: Vec<Vec<Vec<f64>>>,
    /// Engine-counter delta of each cell's last execution.
    pub counters: Vec<Vec<StatsSnapshot>>,
}

impl ReadSweep {
    fn config_index(&self, config: Config) -> usize {
        self.configs
            .iter()
            .position(|&c| c == config)
            .unwrap_or_else(|| panic!("configuration {} was not swept", config.label()))
    }

    fn query_index(&self, query: usize) -> usize {
        self.queries
            .iter()
            .position(|&q| q == query)
            .unwrap_or_else(|| panic!("query {query} was not swept"))
    }

    /// Median execution time of one cell in milliseconds.
    pub fn median_ms(&self, query: usize, config: Config) -> f64 {
        median(&self.samples[self.query_index(query)][self.config_index(config)]) * 1e3
    }

    pub fn counters(&self, query: usize, config: Config) -> StatsSnapshot {
        self.counters[self.query_index(query)][self.config_index(config)]
    }

    /// Geomean over the queries of the cell medians, in milliseconds.
    pub fn geomean_ms(&self, config: Config) -> f64 {
        let medians: Vec<f64> = self
            .queries
            .iter()
            .map(|&q| self.median_ms(q, config))
            .collect();
        geomean(&medians)
    }

    /// Geomean over the queries of `config` median / `tpch` median.
    pub fn over_tpch(&self, config: Config) -> f64 {
        let ratios: Vec<f64> = self
            .queries
            .iter()
            .map(|&q| self.median_ms(q, config) / self.median_ms(q, Config::Tpch))
            .collect();
        geomean(&ratios)
    }

    /// One counter summed over the queries of one configuration.
    pub fn counter_sum(&self, config: Config, field: impl Fn(&StatsSnapshot) -> u64) -> u64 {
        self.queries
            .iter()
            .map(|&q| field(&self.counters(q, config)))
            .sum()
    }

    pub fn sample_counts(&self) -> (usize, usize) {
        let counts = self.samples.iter().flatten().map(Vec::len);
        (counts.clone().min().unwrap_or(0), counts.max().unwrap_or(0))
    }
}

/// The sweep in progress. [`ReadPhase::start`] prepares every cell and runs
/// its checked first execution (the warm-up, which is also where every
/// level's result is compared to `canonical` and, for
/// `validate::VALIDATABLE` queries, to the `tpch` baseline); each
/// [`ReadPhase::pass`] is one measured pass. Slow cells keep their first
/// execution as a sample and join only the first `slow_samples - 1` passes.
pub struct ReadPhase<'d> {
    runners: Vec<Vec<Runner<'d>>>,
    sweep: ReadSweep,
    expected_rows: Vec<Vec<usize>>,
    slow: Vec<bool>,
    slow_samples: usize,
}

impl<'d> ReadPhase<'d> {
    pub fn start(
        dep: &'d MthDeployment,
        w: &Workload,
        configs: &[Config],
        slow_samples: usize,
        ops: &mut Ops,
    ) -> Result<Self, String> {
        let mut runners: Vec<Vec<Runner>> = Vec::new();
        for &q in w.queries {
            let sql = queries::query(q);
            let mut row = Vec::new();
            for &config in configs {
                row.push(match config {
                    Config::Tpch => {
                        let ast = mtsql::parse_query(&sql).map_err(|e| e.to_string())?;
                        let plan = dep.baseline.plan_query(&ast).map_err(|e| e.to_string())?;
                        Runner::Tpch(dep, plan)
                    }
                    Config::Mt(level) => {
                        Runner::Mt(Box::new(prepare_mt(dep, level, SCOPE_ALL, &sql)?))
                    }
                });
            }
            runners.push(row);
        }

        let nq = w.queries.len();
        let nc = configs.len();
        let mut phase = ReadPhase {
            runners,
            sweep: ReadSweep {
                queries: w.queries.to_vec(),
                configs: configs.to_vec(),
                samples: vec![vec![Vec::new(); nc]; nq],
                counters: vec![vec![StatsSnapshot::default(); nc]; nq],
            },
            expected_rows: vec![vec![0usize; nc]; nq],
            slow: w
                .queries
                .iter()
                .map(|q| w.slow_queries.contains(q))
                .collect(),
            slow_samples,
        };

        // Checked first executions, in a fixed order.
        for qi in 0..nq {
            let mut results: Vec<ResultSet> = Vec::with_capacity(nc);
            for ci in 0..nc {
                let start = Instant::now();
                let outcome = phase.runners[qi][ci].execute();
                let elapsed = start.elapsed().as_secs_f64();
                let what = phase.cell_name(qi, ci);
                let Some((rs, counters)) = ops.attempt(&what, outcome) else {
                    return Err(format!("{what} failed on its first execution"));
                };
                if phase.slow[qi] {
                    phase.sweep.samples[qi][ci].push(elapsed);
                    phase.sweep.counters[qi][ci] = counters;
                }
                phase.expected_rows[qi][ci] = rs.rows.len();
                results.push(rs);
            }
            check_results(w.queries[qi], configs, &results, ops);
        }
        Ok(phase)
    }

    fn cell_name(&self, qi: usize, ci: usize) -> String {
        format!(
            "Q{} {}",
            self.sweep.queries[qi],
            self.sweep.configs[ci].label()
        )
    }

    /// Measured pass number `pass` (0-based) over the cells, shuffled.
    pub fn pass(&mut self, pass: usize, rng: &mut Rng, tracer: &mut Tracer, ops: &mut Ops) {
        let nc = self.sweep.configs.len();
        let mut cells: Vec<(usize, usize)> = (0..self.sweep.queries.len())
            .filter(|&qi| !self.slow[qi] || pass + 1 < self.slow_samples)
            .flat_map(|qi| (0..nc).map(move |ci| (qi, ci)))
            .collect();
        rng.shuffle(&mut cells);
        for (qi, ci) in cells {
            let stmt_id = (qi * nc + ci) as u32;
            let runner = &mut self.runners[qi][ci];
            let (outcome, elapsed) =
                tracer.time("mtengine.exec", None, stmt_id, || runner.execute());
            let what = self.cell_name(qi, ci);
            if let Some((rs, counters)) = ops.attempt(&what, outcome) {
                if rs.rows.len() != self.expected_rows[qi][ci] {
                    ops.fail(format!(
                        "{what}: {} rows, first execution had {}",
                        rs.rows.len(),
                        self.expected_rows[qi][ci]
                    ));
                }
                black_box(&rs);
                self.sweep.samples[qi][ci].push(elapsed);
                self.sweep.counters[qi][ci] = counters;
            }
        }
    }

    pub fn finish(self) -> ReadSweep {
        self.sweep
    }
}

/// Every MT-H level must agree with `canonical` (the gold standard for
/// queries whose output carries tenant-local keys); queries whose results
/// are directly comparable must also agree with the single-tenant baseline.
fn check_results(query: usize, configs: &[Config], results: &[ResultSet], ops: &mut Ops) {
    let of = |wanted: Config| {
        configs
            .iter()
            .position(|&c| c == wanted)
            .map(|i| &results[i])
    };
    for (config, rs) in configs.iter().zip(results) {
        let Config::Mt(level) = config else { continue };
        if let Some(canonical) = of(CANONICAL) {
            if let Err(e) = validate::compare_result_sets(rs, canonical) {
                ops.fail(format!("Q{query} {} vs canonical: {e}", level.label()));
            }
        }
        if validate::VALIDATABLE.contains(&query) {
            if let Some(tpch) = of(Config::Tpch) {
                if let Err(e) = validate::compare_result_sets(rs, tpch) {
                    ops.fail(format!("Q{query} {} vs tpch: {e}", level.label()));
                }
            }
        }
    }
}
