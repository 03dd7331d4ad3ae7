//! The front-end phase (paper Table 4 shape): client 1 with one foreign
//! tenant in scope (`D = {2}`), so all but one bucket are pruned and on a
//! small database parse, scope + privilege resolution, rewrite, planning and
//! the plan cache are the cost. Every pass runs each query text twice: cold
//! one-shot (`MtBase::clear_plan_cache`, then `Connection::query`) and
//! prepared re-execution (`Statement::execute`, a plan-cache hit).
//!
//! A traced run also decomposes each statement from outside, by calling
//! ever deeper entry points on the same text and recording a span around
//! each call:
//!
//! ```text
//! stmt ─┬─ mtsql.parse           mtsql::parse_statement
//!       ├─ mtrewrite.rewrite     Connection::rewrite_only   (parses again)
//!       ├─ mtengine.plan_verify  cold EXPLAIN               (rewrites again)
//!       └─ mtengine.exec         warm Statement::execute
//! ```
//!
//! The calls are cumulative, so a layer's time is its call minus the
//! previous one, and `EXPLAIN` + `execute` together redo what one cold
//! one-shot does: their sum over the one-shot latency says whether the
//! outside-in decomposition can be trusted.

use std::hint::black_box;

use mtbase::{Connection, ResultSet, Statement};
use mtengine::stats::StatsSnapshot;
use mtengine::verify;
use mth::loader::MthDeployment;
use mth::{queries, validate};
use mtrewrite::OptLevel;

use crate::read::prepare_mt;
use crate::spec::Workload;
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::util::{timed, Ops, Rng};

/// Scope statement of the phase: one foreign tenant.
pub const SCOPE_FOREIGN: &str = "SET SCOPE = \"IN (2)\"";

/// Per-text samples in seconds, indexed like `Frontend::queries`.
type PerText = Vec<Vec<f64>>;

/// Outside-in layer timings of a traced run, per text.
#[derive(Default)]
pub struct Layers {
    pub parse: PerText,
    /// `Connection::rewrite_only` per level, in `OptLevel::ALL` order.
    pub rewrite_only: Vec<PerText>,
    pub print: PerText,
    pub explain_cold: PerText,
    pub exec_warm: PerText,
    pub oneshot_warm: PerText,
    pub plan_tpch: PerText,
    pub verify_tpch: PerText,
    /// Bytes of rewritten SQL per level, summed over the texts.
    pub sql_bytes: Vec<u64>,
    /// Operators in the verified o4 plans, summed over the texts.
    pub operators: u64,
}

pub struct Frontend {
    pub queries: Vec<usize>,
    pub cold: PerText,
    pub prepared: PerText,
    /// Engine-counter window over the measured passes.
    pub window: StatsSnapshot,
    pub layers: Option<Layers>,
}

/// Geomean over the texts of the per-text medians, in microseconds.
pub fn geomean_us(samples: &PerText) -> f64 {
    let medians: Vec<f64> = samples.iter().map(|s| median(s) * 1e6).collect();
    geomean(&medians)
}

/// What the deeper of two cumulative calls adds, in microseconds: the
/// difference of their geomeans. (Per-text differences can be zero or
/// negative within noise, which a geomean of differences cannot take.)
pub fn geomean_diff_us(deeper: &PerText, shallower: &PerText) -> f64 {
    geomean_us(deeper) - geomean_us(shallower)
}

impl Frontend {
    /// Geomean over the texts of (cold `EXPLAIN` + warm execute) / cold
    /// one-shot, on per-text medians.
    pub fn layer_sum_over_e2e(&self) -> Option<f64> {
        let layers = self.layers.as_ref()?;
        let ratios: Vec<f64> = (0..self.queries.len())
            .map(|i| {
                (median(&layers.explain_cold[i]) + median(&layers.exec_warm[i]))
                    / median(&self.cold[i])
            })
            .collect();
        Some(geomean(&ratios))
    }
}

fn operators_of(explain: &ResultSet) -> Option<u64> {
    let line = explain.rows.last()?.first()?.as_str()?;
    line.strip_prefix("verified (")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The phase in progress: [`FrontendPhase::start`] prepares the statements
/// and runs the checked warm-up, each [`FrontendPhase::pass`] is one measured
/// pass over the texts.
pub struct FrontendPhase<'d> {
    dep: &'d MthDeployment,
    texts: Vec<String>,
    conn: Connection,
    stmts: Vec<Statement>,
    out: Frontend,
}

impl<'d> FrontendPhase<'d> {
    pub fn start(
        dep: &'d MthDeployment,
        w: &Workload,
        traced: bool,
        ops: &mut Ops,
    ) -> Result<Self, String> {
        let texts: Vec<String> = w.queries.iter().map(|&q| queries::query(q)).collect();
        let n = texts.len();
        let mut conn = dep.server.connect(1);
        conn.execute(SCOPE_FOREIGN).map_err(|e| e.to_string())?;
        let mut stmts = Vec::with_capacity(n);
        for text in &texts {
            stmts.push(conn.prepare(text).map_err(|e| e.to_string())?);
        }

        // Checked warm-up: cold and prepared agree exactly, and both agree
        // with the canonical rewrite under the same scope.
        for (i, text) in texts.iter().enumerate() {
            let what = format!("Q{} D={{2}}", w.queries[i]);
            dep.server.clear_plan_cache();
            let cold = ops.attempt(&what, conn.query(text));
            let prepared = ops.attempt(&what, stmts[i].execute());
            let canonical = prepare_mt(dep, OptLevel::Canonical, SCOPE_FOREIGN, text)
                .and_then(|mut stmt| stmt.execute().map_err(|e| e.to_string()));
            let canonical = ops.attempt(&what, canonical);
            let (Some(cold), Some(prepared), Some(canonical)) = (cold, prepared, canonical) else {
                return Err(format!("{what} failed on its first execution"));
            };
            if cold != prepared {
                ops.fail(format!("{what}: cold and prepared results differ"));
            }
            if let Err(e) = validate::compare_result_sets(&cold, &canonical) {
                ops.fail(format!("{what} o4 vs canonical: {e}"));
            }
        }

        let out = Frontend {
            queries: w.queries.to_vec(),
            cold: vec![Vec::new(); n],
            prepared: vec![Vec::new(); n],
            window: StatsSnapshot::default(),
            layers: traced.then(|| Layers {
                parse: vec![Vec::new(); n],
                rewrite_only: vec![vec![Vec::new(); n]; OptLevel::ALL.len()],
                print: vec![Vec::new(); n],
                explain_cold: vec![Vec::new(); n],
                exec_warm: vec![Vec::new(); n],
                oneshot_warm: vec![Vec::new(); n],
                plan_tpch: vec![Vec::new(); n],
                verify_tpch: vec![Vec::new(); n],
                sql_bytes: vec![0; OptLevel::ALL.len()],
                operators: 0,
            }),
        };
        Ok(FrontendPhase {
            dep,
            texts,
            conn,
            stmts,
            out,
        })
    }

    /// Measured pass number `pass` (0-based) over the texts, shuffled.
    pub fn pass(&mut self, pass: usize, rng: &mut Rng, tracer: &mut Tracer, ops: &mut Ops) {
        let n = self.texts.len();
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for i in order {
            self.statement(pass, i, tracer, ops);
        }
    }

    fn statement(&mut self, pass: usize, i: usize, tracer: &mut Tracer, ops: &mut Ops) {
        let FrontendPhase {
            dep,
            texts,
            conn,
            stmts,
            out,
        } = self;
        let text = &texts[i];
        let what = format!("Q{} D={{2}}", out.queries[i]);

        // The untraced pair is what `stmt_cold_us` and `stmt_prepared_us` are
        // made of; the counter window covers exactly these executions, so
        // its ratios repeat bit-for-bit.
        let before = dep.server.stats();
        dep.server.clear_plan_cache();
        let (rs, cold) = timed(|| conn.query(text));
        if let Some(rs) = ops.attempt(&what, rs) {
            black_box(rs);
            out.cold[i].push(cold);
        }
        let (rs, prepared) = timed(|| stmts[i].execute());
        if let Some(rs) = ops.attempt(&what, rs) {
            black_box(rs);
            out.prepared[i].push(prepared);
        }
        out.window = add(out.window, dep.server.stats().delta_from(&before));

        let Some(layers) = out.layers.as_mut() else {
            return;
        };
        let stmt_id = (pass * texts.len() + i) as u32;
        // The calls below are cumulative and their differences are the layer
        // times, so all of them must run equally warm: an untimed parse keeps
        // the first timed call from paying the cache misses the execution
        // above left behind.
        black_box(mtsql::parse_statement(text).is_ok());
        let span = tracer.open("stmt", None, stmt_id);
        let (parsed, t) = tracer.time("mtsql.parse", span, stmt_id, || {
            mtsql::parse_statement(text)
        });
        ops.attempt(&what, parsed);
        layers.parse[i].push(t);
        conn.set_opt_level(OptLevel::O4);
        let (rewritten, t) = tracer.time("mtrewrite.rewrite", span, stmt_id, || {
            conn.rewrite_only(text)
        });
        let rewritten = ops.attempt(&what, rewritten);
        layers.rewrite_only[level_index(OptLevel::O4)][i].push(t);
        let explain_sql = format!("EXPLAIN {text}");
        dep.server.clear_plan_cache();
        let (explained, t) = tracer.time("mtengine.plan_verify", span, stmt_id, || {
            conn.execute(&explain_sql)
        });
        let explained = ops.attempt(&what, explained);
        layers.explain_cold[i].push(t);
        let (rs, t) = tracer.time("mtengine.exec", span, stmt_id, || stmts[i].execute());
        ops.attempt(&what, rs);
        layers.exec_warm[i].push(t);
        tracer.close(span);

        // Probes outside the statement span.
        let (rs, t) = timed(|| conn.query(text));
        ops.attempt(&what, rs);
        layers.oneshot_warm[i].push(t);
        if let Some(rewritten) = &rewritten {
            let (printed, t) = timed(|| rewritten.to_string());
            black_box(&printed);
            layers.print[i].push(t);
            if pass == 0 {
                layers.sql_bytes[level_index(OptLevel::O4)] += printed.len() as u64;
            }
        }
        if pass == 0 {
            match explained.as_ref().and_then(operators_of) {
                Some(count) => layers.operators += count,
                None => ops.fail(format!("{what}: EXPLAIN carries no verified marker")),
            }
        }
        for level in OptLevel::ALL {
            if level == OptLevel::O4 {
                continue;
            }
            conn.set_opt_level(level);
            let (rewritten, t) = timed(|| conn.rewrite_only(text));
            layers.rewrite_only[level_index(level)][i].push(t);
            if let (0, Some(q)) = (pass, ops.attempt(&what, rewritten)) {
                layers.sql_bytes[level_index(level)] += q.to_string().len() as u64;
            }
        }
        conn.set_opt_level(OptLevel::O4);
        let ast = ops.attempt(&what, mtsql::parse_query(text));
        let (plan, t) = timed(|| ast.map(|ast| dep.baseline.plan_query(&ast)));
        if let Some(plan) = plan.and_then(|plan| ops.attempt(&what, plan)) {
            layers.plan_tpch[i].push(t);
            let (report, t) = timed(|| verify::verify_plan(&dep.baseline, &plan));
            ops.attempt(&what, report);
            layers.verify_tpch[i].push(t);
        }
    }

    pub fn finish(self) -> Frontend {
        self.out
    }
}

/// Index of `level` in the per-level vectors of [`Layers`].
pub fn level_index(level: OptLevel) -> usize {
    OptLevel::ALL
        .iter()
        .position(|&l| l == level)
        .expect("every level is in OptLevel::ALL")
}

/// Field-wise sum of the counters the phase reports.
fn add(mut a: StatsSnapshot, b: StatsSnapshot) -> StatsSnapshot {
    a.partitions_scanned += b.partitions_scanned;
    a.partitions_pruned += b.partitions_pruned;
    a.prepared_cache_hits += b.prepared_cache_hits;
    a.prepared_cache_misses += b.prepared_cache_misses;
    a
}
