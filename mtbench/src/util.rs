//! Small shared pieces: the seeded generator that orders operations, the
//! attempted/failed operation ledger, and the metric map a run fills.

use std::collections::BTreeMap;
use std::fmt::Display;

/// SplitMix64: the run's only source of randomness, seeded from `--seed`, so
/// the same seed visits cells and writes rows in the same order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Operations attempted and failed. A wrong result, an `Err`, or a lost
/// acknowledged commit is a failed operation; the first few are kept as text
/// for the report.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    const KEPT: usize = 20;

    pub fn fail(&mut self, what: impl Into<String>) {
        self.fail_many(1, what);
    }

    pub fn fail_many(&mut self, count: u64, what: impl Into<String>) {
        self.failed += count;
        if self.failures.len() < Self::KEPT {
            self.failures.push(what.into());
        }
    }

    /// Count one attempted operation; an `Err` is recorded as failed.
    pub fn attempt<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Self::KEPT.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// Metric values by name, filled by the phases and read out against the
/// registry when the run ends.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// Run `f` and return its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// `q01`, `q22`: the query tag used in metric names.
pub fn qtag(query: usize) -> String {
    format!("q{query:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order() {
        let order = |seed| {
            let mut items: Vec<u32> = (0..50).collect();
            Rng::new(seed).shuffle(&mut items);
            items
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn ledger_counts_errors_as_failed() {
        let mut ops = Ops::default();
        assert_eq!(ops.attempt("ok", Ok::<_, String>(1)), Some(1));
        assert_eq!(ops.attempt("bad", Err::<u8, _>("boom")), None);
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert_eq!(ops.failures, ["bad: boom"]);
    }
}
