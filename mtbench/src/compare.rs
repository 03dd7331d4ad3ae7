//! `mtbench compare <a.json> <b.json>`: for every (end-to-end metric,
//! workload) pair, the relative change of the median from the runs in `a` to
//! the runs in `b`, judged against the metric's bound. Where the run-to-run
//! spread of either side is wider than the bound the pair is `unresolved`,
//! never "unchanged".

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spec::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub median_a: f64,
    pub median_b: f64,
    /// Relative change of the median, signed so that positive is worse.
    pub worsening: f64,
    /// The wider of the two sides' quartile spreads (0 with under two runs).
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one pair from the two sides' values.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs();
    let worsening = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread_of = |v: &[f64]| {
        if v.len() >= 2 {
            quartile_spread(v)
        } else {
            0.0
        }
    };
    let spread = spread_of(a).max(spread_of(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (worsening, spread, verdict)
}

/// End-to-end values of a result file: `(workload, metric) → one value per
/// untraced run`.
fn values_of(doc: &Json) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("result file has no `runs` array")?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        if run.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload name")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("run without metrics")?;
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} without a value"))?;
            values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(values)
}

pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let (a, b) = (values_of(a)?, values_of(b)?);
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for def in END_TO_END {
            let key = (w.name.to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (worsening, spread, verdict) = judge(def, va, vb);
            rows.push(Row {
                workload: key.0,
                metric: def.name,
                median_a: median(va),
                median_b: median(vb),
                worsening,
                spread,
                bound: def.bound.expect("end-to-end metrics carry a bound"),
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    Ok(rows)
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "worsening", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<18} {:<22} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.worsening * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10 % bound, whatever the registry's bounds are.
    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "x",
            unit: "ms",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let q = def(Better::Lower);
        assert_eq!(judge(&q, &[100.0], &[105.0]).2, Verdict::WithinBound);
        assert_eq!(judge(&q, &[100.0], &[115.0]).2, Verdict::Worse);
        assert_eq!(judge(&q, &[100.0], &[80.0]).2, Verdict::Better);
        // Higher is better: fewer commits per second is worse.
        let c = def(Better::Higher);
        let (worsening, _, verdict) = judge(&c, &[1000.0], &[800.0]);
        assert!((worsening - 0.2).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Worse);
        assert_eq!(judge(&c, &[1000.0], &[1200.0]).2, Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let q = def(Better::Lower);
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let steady = [100.0, 100.5, 101.0, 100.2, 99.8];
        assert_eq!(judge(&q, &noisy, &steady).2, Verdict::Unresolved);
        assert_eq!(judge(&q, &steady, &steady).2, Verdict::WithinBound);
    }

    #[test]
    fn files_are_matched_by_workload_and_metric() {
        let file = |value: f64| {
            Json::parse(&format!(
                r#"{{"runs": [
                    {{"workload": "mth_sweep", "trace": false,
                      "metrics": {{"q01_ms": {{"value": {value}, "unit": "ms"}}}}}},
                    {{"workload": "mth_sweep", "trace": true,
                      "metrics": {{"mtsql.parse_us": {{"value": 1, "unit": "us"}}}}}}
                ]}}"#
            ))
            .unwrap()
        };
        let rows = compare(&file(10.0), &file(20.0)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].metric, rows[0].verdict),
            ("q01_ms", Verdict::Worse)
        );
    }
}
