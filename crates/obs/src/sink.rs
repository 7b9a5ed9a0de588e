//! The event sink: where the real-thread runtime delivers its events
//! (the VM hands its whole run over as one ordered `Vec<Event>` instead).
//!
//! The producer path is lock-free and thread-local. The first event a
//! thread records against a sink registers a fixed-capacity
//! [`SpscRing`] with that sink and caches the handle in thread-local
//! storage; every later [`EventSink::record`] is one relaxed
//! enabled-check, a local ring write, and a per-thread sequence stamp —
//! no global `fetch_add`, no mutex, no cache line shared between
//! producing threads. A disabled sink costs one relaxed atomic load per
//! event site.
//!
//! Consumption moved off the hot path into **collection passes**: a
//! pass (run inline by [`EventSink::sync`] / the background
//! [`Collector`](crate::Collector), serialized by an internal lock)
//! decodes every ring once into one vector, merges it into global order
//! by `(timestamp, producer, per-thread seq)` — a stable sort by
//! timestamp over rings laid end to end in producer order — hands it to
//! any streaming exporters, and moves the merged events into a bounded
//! retained buffer that [`EventSink::drain`] consumes and
//! [`EventSink::snapshot`] observes without consuming. The sink derives
//! no numbers from what it moves: the latency histograms, like every
//! other figure, come from an [`Analyzer`](crate::Analyzer) over the
//! drained or snapshotted events. Per-thread order is exact (same ring
//! ⇒ same producer id ⇒ seq tie-break); cross-thread order is timestamp
//! order within a pass, which is also what the trace importer expects.
//!
//! Overflow **drops the newest** event (the push fails) instead of
//! overwriting the oldest, and every producer counts its own drops:
//! [`EventSink::dropped`] is the sum over rings, the same number a
//! consumer can independently derive from gaps in the per-thread
//! sequence stream, and [`EventSink::drop_breakdown`] attributes it per
//! producer. Counters are cumulative — draining never resets them.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::Instant;

use crate::event::Event;
use crate::hist::Histogram;
use crate::spsc::SpscRing;

/// The streaming exporter hook a [`Collector`](crate::Collector)
/// installs into the collect state: called with each freshly merged
/// batch, on whichever thread runs the pass.
type StreamHook = Box<dyn FnMut(&[Event]) + Send>;

/// Default per-thread ring capacity (events).
const DEFAULT_RING_CAP: usize = 8192;

/// Measure record-path self-cost on every Nth call per thread (power of
/// two). Sampled so the measurement (two `Instant::now` reads) doesn't
/// itself dominate the path it measures.
const SELF_COST_EVERY: u64 = 64;

/// What one timestamp unit means for a sink's producers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TsUnit {
    /// Deterministic virtual-clock ticks (the VM runtime).
    VirtualTicks,
    /// Monotonic wall-clock nanoseconds (the locks runtime).
    WallNanos,
}

impl TsUnit {
    /// Convert a timestamp to Chrome-trace microseconds. Virtual ticks
    /// render as 1 tick = 1 µs so traces stay readable.
    pub fn to_micros(self, ts: u64) -> f64 {
        match self {
            TsUnit::VirtualTicks => ts as f64,
            TsUnit::WallNanos => ts as f64 / 1000.0,
        }
    }

    /// Unit suffix for human-readable summaries.
    pub fn suffix(self) -> &'static str {
        match self {
            TsUnit::VirtualTicks => "ticks",
            TsUnit::WallNanos => "ns",
        }
    }
}

/// Next sink id; distinguishes sinks in the thread-local ring cache.
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's cached handle to its ring in one sink.
struct RingHandle {
    sink_id: u64,
    /// Upgradable while the owning sink is alive; lets the cache GC
    /// entries for dropped sinks without a registry round-trip.
    alive: Weak<()>,
    ring: Arc<SpscRing>,
    /// Per-thread call counter driving the self-cost sample.
    calls: Cell<u64>,
}

thread_local! {
    /// This thread's rings, one per live sink it has recorded into.
    /// Tiny (one entry per concurrently-live sink), scanned linearly.
    static RINGS: RefCell<Vec<RingHandle>> = const { RefCell::new(Vec::new()) };
}

/// Mutable collection-side state, serialized by the sink's collect
/// lock. `record()` never takes this lock.
struct CollectState {
    /// Merged events collected but not yet drained. Bounded by
    /// `retain`; the oldest are trimmed (and counted) past the cap. A
    /// deque so a capped long-running pipeline trims O(excess) per pass
    /// instead of memmoving the whole retained window.
    buffer: VecDeque<Event>,
    /// Retained-buffer cap; `usize::MAX` = unbounded (bounded runs that
    /// end with one `drain()`).
    retain: usize,
    /// Events trimmed from the retained buffer (streamed consumers saw
    /// them; late `drain()`/`snapshot()` callers did not).
    trimmed: u64,
    /// Collection passes run.
    epochs: u64,
    /// Events merged in the most recent pass.
    last_batch: u64,
    /// Largest single-pass batch (collector backlog high-water mark).
    max_batch: u64,
    /// Duration of the most recent pass, nanoseconds.
    last_pass_ns: u64,
    /// Streaming exporter hook installed by a [`Collector`]
    /// (`crate::Collector`). Living inside the collect state means
    /// *every* collection pass — the collector's epoch tick, but equally
    /// a watcher's `snapshot()` or a final `drain()` — hands the
    /// freshly merged batch to the streams before it joins the retained
    /// buffer. No pass can steal events from `--trace-out`.
    stream: Option<StreamHook>,
}

/// A point-in-time view of the pipeline's self-telemetry: producer
/// drop accounting plus collector cadence gauges. Built by
/// [`EventSink::pipeline_stats`]; rendered by `--stats`, metrics-JSON,
/// and the Prometheus endpoints.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Producer threads that registered a ring.
    pub producers: u64,
    /// Events accepted into rings (excludes drops).
    pub recorded: u64,
    /// Events dropped because a producer's ring was full.
    pub dropped: u64,
    /// Per-producer `(producer id, dropped)` breakdown, all producers.
    pub drops_by_producer: Vec<(u64, u64)>,
    /// Collection passes run so far.
    pub epochs: u64,
    /// Events merged by the most recent pass.
    pub last_batch: u64,
    /// Largest single-pass batch seen.
    pub max_batch: u64,
    /// Duration of the most recent pass in nanoseconds (collector lag
    /// proxy: how far behind a pass had to catch up).
    pub last_pass_ns: u64,
    /// Events currently sitting in rings, not yet collected.
    pub backlog: u64,
    /// Events in the retained (snapshot) buffer.
    pub retained: u64,
    /// Events trimmed from the retained buffer by its cap.
    pub trimmed: u64,
    /// `record()` self-cost in wall nanoseconds, sampled every
    /// `SELF_COST_EVERY` (64) calls: `(samples, p50, p99, max)`.
    pub self_cost_ns: (u64, u64, u64, u64),
}

/// Collects events from every thread that records into it.
pub struct EventSink {
    enabled: AtomicBool,
    id: u64,
    /// Liveness token; thread-local caches hold a `Weak` to it.
    alive: Arc<()>,
    ring_cap: usize,
    /// Ring registry, in registration (= producer id) order. Locked on
    /// first record per (thread, sink) and by collection passes only.
    rings: Mutex<Vec<Arc<SpscRing>>>,
    collect: Mutex<CollectState>,
    /// Sampled record-path self-cost, wall ns.
    self_cost: Histogram,
    unit: TsUnit,
}

impl EventSink {
    /// Sink with the default per-thread ring capacity, enabled.
    pub fn new(unit: TsUnit) -> Self {
        Self::with_capacity(unit, DEFAULT_RING_CAP)
    }

    /// Sink whose per-thread rings each hold at most `ring_cap` events
    /// (rounded up to a power of two).
    pub fn with_capacity(unit: TsUnit, ring_cap: usize) -> Self {
        EventSink {
            enabled: AtomicBool::new(true),
            id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
            alive: Arc::new(()),
            ring_cap,
            rings: Mutex::new(Vec::new()),
            collect: Mutex::new(CollectState {
                buffer: VecDeque::new(),
                retain: usize::MAX,
                trimmed: 0,
                epochs: 0,
                last_batch: 0,
                max_batch: 0,
                last_pass_ns: 0,
                stream: None,
            }),
            self_cost: Histogram::new(),
            unit,
        }
    }

    /// The clock domain this sink's timestamps live in.
    pub fn ts_unit(&self) -> TsUnit {
        self.unit
    }

    /// Whether recording is on. One relaxed load — this is the whole
    /// cost of a disabled event site.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Toggle recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Cap the retained (snapshot) buffer at `n` merged events; the
    /// oldest past the cap are trimmed and counted. Long-running
    /// `serve`/`demo --watch` set this so memory stays bounded.
    pub fn set_retain(&self, n: usize) {
        self.collect_guard().retain = n;
    }

    /// Record one event into the calling thread's ring. Lock-free after
    /// the thread's first event: an enabled check, a seq stamp, and a
    /// local SPSC push. No-op (one branch) when disabled.
    pub fn record(&self, ev: Event) {
        if !self.is_enabled() {
            return;
        }
        // try_with / try_borrow_mut: never panic from an event site,
        // even during thread teardown or (impossible today, but cheap
        // to be safe about) re-entrant recording.
        let _ = RINGS.try_with(|cell| {
            let Ok(mut cache) = cell.try_borrow_mut() else { return };
            let handle = match cache.iter().position(|h| h.sink_id == self.id) {
                Some(i) => &cache[i],
                None => {
                    // Drop cache entries whose sink died, then register
                    // this thread with this sink exactly once.
                    cache.retain(|h| h.alive.upgrade().is_some());
                    let mut rings = lock_clean(&self.rings);
                    let ring = Arc::new(SpscRing::new(self.ring_cap, rings.len() as u64));
                    rings.push(Arc::clone(&ring));
                    drop(rings);
                    cache.push(RingHandle {
                        sink_id: self.id,
                        alive: Arc::downgrade(&self.alive),
                        ring,
                        calls: Cell::new(0),
                    });
                    cache.last().expect("just pushed")
                }
            };
            let n = handle.calls.get();
            handle.calls.set(n.wrapping_add(1));
            let t0 = if n % SELF_COST_EVERY == 0 { Some(Instant::now()) } else { None };
            handle.ring.push(ev);
            if let Some(t0) = t0 {
                self.self_cost.record(t0.elapsed().as_nanos() as u64);
            }
        });
    }

    /// Events accepted into rings: what a complete drain observes (plus
    /// anything trimmed from the retained buffer). Excludes drops.
    pub fn recorded(&self) -> u64 {
        lock_clean(&self.rings).iter().map(|r| r.recorded()).sum()
    }

    /// Events dropped because a producer's ring was full. Cumulative;
    /// draining does not reset it. Always equals the sum of
    /// [`EventSink::drop_breakdown`] and the number of gaps in the
    /// per-thread sequence streams.
    pub fn dropped(&self) -> u64 {
        lock_clean(&self.rings).iter().map(|r| r.dropped()).sum()
    }

    /// Per-producer `(producer id, dropped)` pairs, id order. One entry
    /// per registered producer thread, zero or not.
    pub fn drop_breakdown(&self) -> Vec<(u64, u64)> {
        lock_clean(&self.rings).iter().map(|r| (r.producer(), r.dropped())).collect()
    }

    /// Run one collection pass inline: drain every ring, merge, append
    /// to the retained buffer. The same pass the background collector
    /// runs on its epoch cadence.
    pub fn sync(&self) {
        let mut st = self.collect_guard();
        self.collect_locked(&mut st);
    }

    /// Collect, then remove and return all retained events in merged
    /// order. Counters are not reset.
    pub fn drain(&self) -> Vec<Event> {
        let mut st = self.collect_guard();
        self.collect_locked(&mut st);
        std::mem::take(&mut st.buffer).into()
    }

    /// Collect, then return a copy of the retained events **without**
    /// consuming them: watchers (`demo --watch`, `serve`) observe the
    /// stream without stealing events from `--trace-out` or `drain()`.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut st = self.collect_guard();
        self.collect_locked(&mut st);
        st.buffer.iter().copied().collect()
    }

    /// Install (or remove) the streaming exporter hook. Every later
    /// collection pass routes its merged batch through the hook,
    /// whichever thread runs the pass.
    pub(crate) fn set_stream(&self, f: Option<StreamHook>) {
        self.collect_guard().stream = f;
    }

    /// Pipeline self-telemetry snapshot. Does not run a pass; gauges
    /// reflect the rings and collector state as they are now.
    pub fn pipeline_stats(&self) -> PipelineStats {
        let rings = lock_clean(&self.rings);
        let st = self.collect_guard();
        PipelineStats {
            producers: rings.len() as u64,
            recorded: rings.iter().map(|r| r.recorded()).sum(),
            dropped: rings.iter().map(|r| r.dropped()).sum(),
            drops_by_producer: rings.iter().map(|r| (r.producer(), r.dropped())).collect(),
            epochs: st.epochs,
            last_batch: st.last_batch,
            max_batch: st.max_batch,
            last_pass_ns: st.last_pass_ns,
            backlog: rings.iter().map(|r| r.len() as u64).sum(),
            retained: st.buffer.len() as u64,
            trimmed: st.trimmed,
            self_cost_ns: (
                self.self_cost.count(),
                self.self_cost.percentile(50.0),
                self.self_cost.percentile(99.0),
                self.self_cost.max(),
            ),
        }
    }

    fn collect_guard(&self) -> MutexGuard<'_, CollectState> {
        match self.collect.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// The collection pass body; caller holds the collect lock (the
    /// exclusive-consumer guarantee every ring relies on).
    fn collect_locked(&self, st: &mut CollectState) {
        let t0 = Instant::now();
        let rings: Vec<Arc<SpscRing>> = lock_clean(&self.rings).clone();
        // Each ring decoded once, in registry (= producer id) order.
        let mut batch: Vec<Event> = Vec::new();
        for ring in &rings {
            batch.reserve(ring.len());
            ring.drain_with(|_seq, ev| batch.push(ev));
        }
        // Global merge order: timestamp, then producer, then per-thread
        // seq. `batch` is already in (producer, seq) order, so a
        // *stable* sort by timestamp alone is that order — per-thread
        // order stays exact — and costs one O(n) scan when a single
        // producer's timestamps already ascend.
        batch.sort_by_key(|ev| ev.ts);
        if let Some(stream) = st.stream.as_mut() {
            stream(&batch);
        }
        st.epochs += 1;
        st.last_batch = batch.len() as u64;
        st.max_batch = st.max_batch.max(st.last_batch);
        st.buffer.extend(batch);
        if st.buffer.len() > st.retain {
            let excess = st.buffer.len() - st.retain;
            st.buffer.drain(..excess);
            st.trimmed += excess as u64;
        }
        st.last_pass_ns = t0.elapsed().as_nanos() as u64;
    }
}

/// Lock, swallowing poison: a panicking thread mid-revocation (the
/// locks runtime unwinds on purpose) must not wedge tracing.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64, thread: u64) -> Event {
        Event { ts, thread, monitor: 1, core: 0, kind: EventKind::Acquire }
    }

    #[test]
    fn drain_preserves_record_order_across_shards() {
        let sink = EventSink::new(TsUnit::VirtualTicks);
        for i in 0..100u64 {
            sink.record(ev(i, i % 7)); // spread event-thread ids
        }
        let drained = sink.drain();
        assert_eq!(drained.len(), 100);
        let ts: Vec<u64> = drained.iter().map(|e| e.ts).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "order lost: {ts:?}");
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = EventSink::new(TsUnit::WallNanos);
        sink.set_enabled(false);
        sink.record(ev(1, 1));
        assert!(sink.drain().is_empty());
        assert_eq!(sink.recorded(), 0);
        assert_eq!(sink.pipeline_stats().epochs, 1, "one pass ran and found nothing");
    }

    #[test]
    fn overflow_counts_dropped_events() {
        let sink = EventSink::with_capacity(TsUnit::WallNanos, 2);
        for i in 0..10u64 {
            sink.record(ev(i, 0)); // one producer thread
        }
        assert_eq!(sink.dropped(), 8);
        assert_eq!(sink.drain().len(), 2);
    }

    #[test]
    fn recorded_sections_reach_the_analysis_histograms() {
        let sink = EventSink::new(TsUnit::VirtualTicks);
        sink.record(Event { ts: 5, thread: 1, monitor: 3, core: 0, kind: EventKind::Acquire });
        sink.record(Event { ts: 25, thread: 1, monitor: 3, core: 0, kind: EventKind::Release });
        let h = crate::Analysis::from_events(&sink.drain()).histograms;
        assert_eq!(h.section_length.count(), 1);
        assert_eq!(h.section_length.max(), 20);
    }

    #[test]
    fn drop_accounting_is_consistent_and_cumulative() {
        let sink = EventSink::with_capacity(TsUnit::WallNanos, 4);
        for i in 0..10u64 {
            sink.record(ev(i, 0));
        }
        // One producer: 4 accepted, 6 dropped; every view agrees.
        assert_eq!(sink.recorded(), 4);
        assert_eq!(sink.dropped(), 6);
        assert_eq!(sink.drop_breakdown(), vec![(0, 6)]);
        assert_eq!(sink.pipeline_stats().dropped, 6);
        // Draining frees ring space but resets no counter.
        assert_eq!(sink.drain().len(), 4);
        assert_eq!(sink.dropped(), 6);
        sink.record(ev(10, 0));
        assert_eq!(sink.recorded(), 5);
        assert_eq!(sink.dropped(), 6);
    }

    #[test]
    fn snapshot_observes_without_consuming() {
        let sink = EventSink::new(TsUnit::VirtualTicks);
        for i in 0..5u64 {
            sink.record(ev(i, 1));
        }
        assert_eq!(sink.snapshot().len(), 5);
        assert_eq!(sink.snapshot().len(), 5, "snapshot must not consume");
        assert_eq!(sink.drain().len(), 5, "snapshot must not steal from drain");
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn retain_cap_bounds_snapshot_memory() {
        let sink = EventSink::new(TsUnit::VirtualTicks);
        sink.set_retain(3);
        for i in 0..10u64 {
            sink.record(ev(i, 1));
        }
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.iter().map(|e| e.ts).collect::<Vec<_>>(), vec![7, 8, 9]);
        let stats = sink.pipeline_stats();
        assert_eq!(stats.trimmed, 7);
        assert_eq!(stats.retained, 3);
        // Trimmed events were recorded, not dropped.
        assert_eq!(stats.recorded, 10);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn pipeline_stats_reports_backlog_and_epochs() {
        let sink = EventSink::new(TsUnit::VirtualTicks);
        for i in 0..7u64 {
            sink.record(ev(i, 1));
        }
        let before = sink.pipeline_stats();
        assert_eq!(before.backlog, 7, "uncollected events sit in rings");
        assert_eq!(before.producers, 1);
        sink.sync();
        let after = sink.pipeline_stats();
        assert_eq!(after.backlog, 0);
        assert_eq!(after.last_batch, 7);
        assert!(after.epochs >= 1);
        assert!(after.self_cost_ns.0 >= 1, "self-cost sampled at least once");
    }

    #[test]
    fn merge_order_is_timestamp_then_producer_then_seq() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 3_000;
        // Producer `p`'s `i`-th event. Timestamps tie four at a time
        // within a producer and all the time across producers; the last
        // producer's run backwards.
        let script = |p: u64, i: u64| {
            let ts = if p == PRODUCERS - 1 { (PER - 1 - i) / 4 } else { i / 4 };
            Event { ts, thread: p, monitor: i, core: 0, kind: EventKind::Acquire }
        };
        let sink = EventSink::with_capacity(TsUnit::VirtualTicks, PER as usize);
        // Producer ids are registration order: take turns recording the
        // first event, then record the rest all at once.
        let turn = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (sink, turn) = (&sink, &turn);
                s.spawn(move || {
                    while turn.load(Ordering::Acquire) != p {
                        std::thread::yield_now();
                    }
                    sink.record(script(p, 0));
                    turn.fetch_add(1, Ordering::Release);
                    while turn.load(Ordering::Acquire) != PRODUCERS {
                        std::thread::yield_now();
                    }
                    for i in 1..PER {
                        sink.record(script(p, i));
                    }
                });
            }
        });
        assert_eq!(sink.dropped(), 0);

        let mut reference: Vec<(u64, u64, Event)> =
            (0..PRODUCERS).flat_map(|p| (0..PER).map(move |i| (p, i, script(p, i)))).collect();
        reference.sort_by_key(|&(id, seq, ev)| (ev.ts, id, seq));
        let reference: Vec<Event> = reference.into_iter().map(|(_, _, ev)| ev).collect();
        assert!(sink.drain() == reference, "drain() left (ts, producer, seq) order");
    }

    #[test]
    fn stream_hook_sees_the_batches_drain_returns() {
        let sink = EventSink::new(TsUnit::VirtualTicks);
        let seen = Arc::new(Mutex::new((0u64, Vec::new())));
        let hook = Arc::clone(&seen);
        sink.set_stream(Some(Box::new(move |batch: &[Event]| {
            let mut seen = lock_clean(&hook);
            seen.0 += 1;
            seen.1.extend_from_slice(batch);
        })));
        // Three passes of two producers each, by three different entry
        // points; within a pass the second producer's timestamps start
        // below the first's, so each batch really is merged.
        let passes: [fn(&EventSink, &mut Vec<Event>); 3] = [
            |s, _| s.sync(),
            |s, _| {
                s.snapshot();
            },
            |s, drained| drained.extend(s.drain()),
        ];
        let mut drained = Vec::new();
        for (pass, collect) in passes.into_iter().enumerate() {
            let base = pass as u64 * 100;
            for i in 0..20 {
                sink.record(ev(base + 10 + i, 1));
            }
            std::thread::scope(|s| {
                s.spawn(|| (0..20).for_each(|i| sink.record(ev(base + 2 * i, 2))));
            });
            collect(&sink, &mut drained);
        }
        drained.extend(sink.drain());
        let seen = lock_clean(&seen);
        assert_eq!(seen.0, 4, "one batch per pass, the drain's own (empty) pass included");
        assert_eq!(seen.1.len(), 120);
        assert!(seen.1 == drained, "streamed batches differ from what drain() returned");
        assert!(drained.windows(2).any(|w| w[0].thread > w[1].thread), "nothing was merged");
    }

    #[test]
    fn two_sinks_on_one_thread_stay_separate() {
        let a = EventSink::new(TsUnit::VirtualTicks);
        let b = EventSink::new(TsUnit::WallNanos);
        a.record(ev(1, 1));
        b.record(ev(2, 1));
        b.record(ev(3, 1));
        assert_eq!(a.drain().len(), 1);
        assert_eq!(b.drain().len(), 2);
    }
}
