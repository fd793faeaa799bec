//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (nothing inside the program is instrumented).
//! A span has a layer, an operation, the thread it ran on, its start and
//! duration, and the span that caused it. Spans are kept in memory and
//! written out once the run ends.
//!
//! Self time follows the usual rule — a span's duration minus the part of
//! its interval that its child spans cover — with children counted only when
//! they ran on the parent's own thread. A child on another thread is
//! concurrent work (a fan-out worker, a shard thread), not a part of the
//! parent's own timeline, so the self times of one thread's spans partition
//! that thread's wall time exactly.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// The layer the benchmark harness itself is accounted to.
pub const HARNESS: &str = "bench";

/// One recorded span, or an aggregate of many short calls whose individual
/// intervals were not kept.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub op: &'static str,
    pub parent: Option<SpanId>,
    pub thread: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Calls folded into this record.
    pub count: u64,
    /// An aggregate has no interval of its own and covers `dur_ns` of its
    /// parent.
    pub aggregate: bool,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// A small per-process id of the calling thread, as recorded in its spans.
#[must_use]
pub fn current_thread() -> u32 {
    THREAD.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Records spans when enabled; when disabled every call runs the wrapped
/// work and records nothing, so the untraced run takes the same code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// children on (or `None` when tracing is off).
    pub fn scope<R>(
        &self,
        layer: &'static str,
        op: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.push(Span {
            layer,
            op,
            parent,
            thread: current_thread(),
            start_ns: self.now_ns(),
            dur_ns: 0,
            count: 1,
            aggregate: false,
        });
        let out = f(Some(id));
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans[id].dur_ns = end - spans[id].start_ns;
        out
    }

    /// Records `count` short calls of one operation, `dur_ns` in total, made
    /// from the calling thread inside `parent`.
    pub fn aggregate(
        &self,
        layer: &'static str,
        op: &'static str,
        parent: Option<SpanId>,
        dur_ns: u64,
        count: u64,
    ) {
        if self.enabled && count > 0 {
            self.push(Span {
                layer,
                op,
                parent,
                thread: current_thread(),
                start_ns: 0,
                dur_ns,
                count,
                aggregate: true,
            });
        }
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Every span recorded so far, in start order of their `scope` calls.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            if spans[p].thread == s.thread {
                children[p].push(id);
            }
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            if s.aggregate {
                return s.dur_ns;
            }
            // Union of the interval children, clipped to the parent, plus
            // the aggregates (which lie inside the parent by construction).
            let mut ivs: Vec<(u64, u64)> = kids
                .iter()
                .filter(|&&k| !spans[k].aggregate)
                .map(|&k| {
                    (
                        spans[k].start_ns.max(s.start_ns),
                        spans[k].end_ns().min(s.end_ns()),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            ivs.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in ivs {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered += kids
                .iter()
                .filter(|&&k| spans[k].aggregate)
                .map(|&k| spans[k].dur_ns)
                .sum::<u64>();
            s.dur_ns.saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer, summed over every thread, in seconds.
#[must_use]
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Self time summed over the spans of one thread, in seconds — the part of
/// that thread's wall time the spans account for.
#[must_use]
pub fn thread_self_s(spans: &[Span], thread: u32) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.thread == thread)
        .map(|(_, ns)| ns as f64 * 1e-9)
        .sum()
}

/// Durations in seconds of every interval span with this layer and op.
#[must_use]
pub fn durations_s(spans: &[Span], layer: &str, op: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| !s.aggregate && s.layer == layer && s.op == op)
        .map(|s| s.dur_ns as f64 * 1e-9)
        .collect()
}

/// Renders the spans as JSON lines (one object per span, with self time).
#[must_use]
pub fn render(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {id}, \"parent\": {parent}, \"layer\": \"{}\", \"op\": \"{}\", \
             \"thread\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"self_ns\": {self_ns}, \
             \"count\": {}, \"aggregate\": {}}}\n",
            s.layer, s.op, s.thread, s.start_ns, s.dur_ns, s.count, s.aggregate
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        layer: &'static str,
        parent: Option<SpanId>,
        thread: u32,
        start: u64,
        dur: u64,
    ) -> Span {
        Span {
            layer,
            op: "op",
            parent,
            thread,
            start_ns: start,
            dur_ns: dur,
            count: 1,
            aggregate: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ c [50,70).
        let spans = vec![
            span("bench", None, 0, 0, 100),
            span("core.engine", Some(0), 0, 10, 30),
            span("badge", Some(1), 0, 20, 10),
            span("habitat", Some(0), 0, 50, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        // One thread's self times partition its root's wall exactly.
        assert!((thread_self_s(&spans, 0) - 100e-9).abs() < 1e-15);
        let by_layer = layer_self_s(&spans);
        assert!((by_layer["bench"] - 50e-9).abs() < 1e-15);
        assert!((by_layer["core.engine"] - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_are_counted_as_their_union() {
        let spans = vec![
            span("bench", None, 0, 0, 100),
            span("a", Some(0), 0, 10, 30),
            span("b", Some(0), 0, 30, 30),
            // Reaches past the parent's end: clipped.
            span("c", Some(0), 0, 90, 30),
        ];
        // Covered: [10,60) ∪ [90,100) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_on_other_threads_do_not_reduce_self_time() {
        let spans = vec![
            span("core.fleet", None, 0, 0, 100),
            span("badge", Some(0), 1, 0, 90),
            span("badge", Some(0), 2, 5, 80),
        ];
        assert_eq!(self_times(&spans), vec![100, 90, 80]);
    }

    #[test]
    fn aggregates_cover_their_parent() {
        let spans = vec![
            span("bench", None, 0, 0, 100),
            Span {
                layer: "support.ingest",
                op: "submit",
                parent: Some(0),
                thread: 0,
                start_ns: 0,
                dur_ns: 70,
                count: 1000,
                aggregate: true,
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 70]);
        // A one-call aggregate is still an aggregate, not an interval at 0.
        let mut one = spans.clone();
        one[1].count = 1;
        assert_eq!(self_times(&one), vec![30, 70]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.scope("badge", "record_day", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        t.aggregate("support.ingest", "submit", None, 5, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let t = Tracer::new(true);
        t.scope(HARNESS, "timed", None, |root| {
            t.scope("badge", "record_day", root, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
        assert_eq!(spans[0].thread, spans[1].thread);
    }
}
