//! Outside-in tracing: spans are recorded here, in the benchmark's own code,
//! around the calls into each layer — never inside the crates. Spans stay in
//! memory while the workload runs and are written out once at exit.
//!
//! A disabled [`Tracer`] still times the call (the phases need the elapsed
//! time either way) but records nothing, so traced and untraced runs execute
//! the same code and their difference is the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::util::timed;

/// One recorded interval. `stmt` groups the spans of one statement or
/// transaction; `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub stmt: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Each thread of a phase owns one (sharing the run's time
/// origin) and the owner [`Tracer::absorb`]s them when the threads join.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin, self.enabled)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off. Close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, stmt: u32) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            stmt,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    pub fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span and return its result with the elapsed seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        stmt: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, stmt);
        let timed = timed(f);
        self.close(id);
        timed
    }

    /// Take over another recorder's spans, re-numbering ids so they stay
    /// unique within this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its child spans cover (overlapping children
/// are counted once, children are clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self times in seconds grouped by span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        by_name
            .entry(s.name)
            .or_default()
            .push(self_ns as f64 / 1e9);
    }
    by_name
}

/// The trace file: one object per span, in recording order.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(f64::from(s.id))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("stmt", Json::Num(f64::from(s.stmt))),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            stmt: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 70),
            span(3, Some(2), 45, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_are_clipped() {
        let spans = vec![
            span(0, None, 100, 200),
            // Overlap 120..150 is covered once.
            span(1, Some(0), 110, 150),
            span(2, Some(0), 120, 160),
            // Hangs over the parent's end: only 190..200 counts.
            span(3, Some(0), 190, 250),
            // Entirely outside the parent: ignored.
            span(4, Some(0), 10, 20),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut off = Tracer::new(Instant::now(), false);
        let (value, secs) = off.time("x", None, 0, || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_ids_unique_and_parents_attached() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin, true);
        let root = main.open("root", None, 1);
        main.close(root);
        let mut worker = main.fork();
        let txn = worker.open("txn", None, 2);
        let (_, _) = worker.time("commit", txn, 2, || ());
        worker.close(txn);
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(
            spans.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[2].start_ns >= spans[1].start_ns && spans[2].end_ns <= spans[1].end_ns);
    }
}
