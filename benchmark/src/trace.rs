//! Span recorder for the traced pass.
//!
//! Spans are recorded only here, in the benchmark's own code, around
//! each call into a layer (a crate). The crates under test are not
//! instrumented; tracing inside them is a later change. Spans stay in
//! memory and are written out once, when the run ends.
//!
//! A span's *self time* is its duration minus the part of it covered by
//! its children, so self times summed by layer add up to the root
//! span's wall time exactly (clock reads aside).

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// The harness's own layer: time between calls into the crates.
pub const HARNESS: &str = "bench";

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: u32,
    /// The span that was open when this one started (`None` for a root).
    pub parent: Option<u32>,
    /// What was called.
    pub name: &'static str,
    /// The crate the call went into ([`HARNESS`] for the benchmark itself).
    pub layer: &'static str,
    /// Iteration (pass, batch or arrival number) the span belongs to.
    pub iter: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Work counted at this boundary (instructions, events, schedules, entries).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall time inside the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread. A disabled tracer costs one branch per
/// call site and records nothing.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`true`) or only forwards calls (`false`).
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between spans (the traced pass
    /// alternates, so traced and untraced operations share the same
    /// stretch of host time). Ignored while a span is open.
    pub fn set_enabled(&mut self, on: bool) {
        if self.open.is_empty() {
            self.enabled = on;
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. `f` gets the tracer back so it can open
    /// child spans and attach counts.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        iter: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            layer,
            iter,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        r
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, n: u64) {
        if let (true, Some(&id)) = (self.enabled, self.open.last()) {
            self.spans[id as usize].counts.push((key, n));
        }
    }

    /// Append another thread's spans (ids and parents shifted), so one
    /// file holds the whole run.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        // Align the other thread's clock to this tracer's origin.
        let skew = other.t0.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            s.parent = s.parent.map(|p| p + shift);
            s.start_ns += skew;
            s.end_ns += skew;
            s
        }));
    }

    /// The recorded spans, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time summed by layer, and the wall time of the root spans they
/// should add up to: `(by_layer_ns, roots_wall_ns)`.
pub fn layer_ledger(spans: &[Span]) -> (BTreeMap<&'static str, u64>, u64) {
    let own = self_times(spans);
    let mut by_layer = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *by_layer.entry(s.layer).or_insert(0) += ns;
    }
    let roots = spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum();
    (by_layer, roots)
}

/// The trace file: every span with the workload's name stamped on it.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let own = self_times(spans);
    Value::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                obj([
                    ("id", Value::from(u64::from(s.id))),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::from(u64::from(p)))),
                    ("name", Value::from(s.name)),
                    ("layer", Value::from(s.layer)),
                    ("workload", Value::from(workload)),
                    ("iter", Value::from(s.iter)),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    ("self_ns", Value::from(self_ns)),
                    ("counts", obj(s.counts.iter().map(|&(k, n)| (k, Value::from(n))))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name: "s", layer, iter: 0, start_ns: start, end_ns: end, counts: vec![] }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        // root 0..100 (bench) -> a 10..40 (vm) -> b 15..25 (core); c 50..90 (vm)
        let spans = vec![
            span(0, None, HARNESS, 0, 100),
            span(1, Some(0), "vm", 10, 40),
            span(2, Some(1), "core", 15, 25),
            span(3, Some(0), "vm", 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let (by_layer, wall) = layer_ledger(&spans);
        assert_eq!(wall, 100);
        assert_eq!(by_layer[HARNESS], 30);
        assert_eq!(by_layer["vm"], 60);
        assert_eq!(by_layer["core"], 10);
        assert_eq!(by_layer.values().sum::<u64>(), wall);
    }

    #[test]
    fn tracer_nests_counts_and_keeps_the_ledger_closed() {
        let mut t = Tracer::new(true);
        let out = t.span("pass", HARNESS, 7, |t| {
            t.span("call", "vm", 7, |t| {
                t.count("instructions", 42);
                std::hint::black_box((0..1000u64).sum::<u64>())
            })
        });
        assert_eq!(out, 499_500);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].counts, vec![("instructions", 42)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let (by_layer, wall) = layer_ledger(spans);
        assert_eq!(by_layer.values().sum::<u64>(), wall);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_work() {
        let mut t = Tracer::new(false);
        let r = t.span("pass", HARNESS, 0, |t| {
            t.count("n", 1);
            5
        });
        assert_eq!(r, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_shifts_ids_and_parents() {
        let mut a = Tracer::new(true);
        a.span("a", HARNESS, 0, |_| ());
        let mut b = Tracer::new(true);
        b.span("b", HARNESS, 0, |t| t.span("b1", "locks", 0, |_| ()));
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.iter().map(|s| s.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(to_json("w", spans).as_arr().unwrap().len(), 3);
    }
}
