//! The statistics every reported number goes through: a timing is a median
//! plus the highest percentile with at least ten samples beyond it, a
//! summary over queries is a geometric mean of per-cell medians, and
//! run-to-run spread is the quartile distance as a share of the median.

/// Percentile ladder tried from the top: the reported tail is the highest
/// rung that still leaves [`MIN_BEYOND`] samples above it.
const LADDER: [f64; 5] = [99.99, 99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples (mean of the two middle values for an even count).
/// Panics on an empty slice: a cell without samples is a harness bug.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps `99.99 % × 100 000` from rounding up past its exact rank.
fn rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of the samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    v[rank(p, v.len()) - 1]
}

/// The highest percentile of [`LADDER`] that has at least [`MIN_BEYOND`]
/// samples beyond it, as `(percentile, value)`; `None` when even p90 is not
/// supported (fewer than 100 samples).
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    LADDER
        .iter()
        .copied()
        .find_map(|p| (n >= rank(p, n) + MIN_BEYOND).then(|| (p, percentile(samples, p))))
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the first and third quartile as a share of the median:
/// the spread the benchmark contract compares against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 leaves exactly 10 samples above rank 990; p99.9 leaves one.
        assert_eq!(tail(&samples), Some((99.0, 990.0)));
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        // ceil(0.99 * 999) = 990 leaves only 9 beyond: fall back to p95.
        assert_eq!(tail(&samples), Some((95.0, 950.0)));
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((90.0, 90.0)));
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&samples), None);
        let samples: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((99.99, 99_990.0)));
    }

    #[test]
    fn geomean_is_scale_free() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        // One slow query does not drown the others.
        let with_outlier = geomean(&[1.0, 1.0, 1.0, 1000.0]);
        assert!(with_outlier < 6.0, "{with_outlier}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&values) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
