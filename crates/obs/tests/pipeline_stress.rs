//! Stress tests for the concurrent telemetry pipeline: many producer
//! threads record while a consumer drains, and the per-thread sequence
//! discipline must hold — no event lost silently, none duplicated,
//! per-thread order preserved, and every loss visible as both a drop
//! counter and a sequence gap.

use revmon_obs::{
    import_trace_jsonl, Collector, CollectorConfig, Event, EventKind, EventSink, RunMeta,
    StreamSet, TraceStream, TsUnit,
};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Producers stamp their payload so the consumer can reconstruct each
/// thread's stream: `thread` = producer index, `monitor` = per-thread
/// emission counter.
fn stamped(producer: u64, i: u64, ts: u64) -> Event {
    Event { ts, thread: producer, monitor: i, core: 0, kind: EventKind::Acquire }
}

#[test]
fn record_while_draining_loses_nothing_untracked() {
    const PRODUCERS: u64 = 8;
    const PER_PRODUCER: u64 = 20_000;

    let sink = Arc::new(EventSink::with_capacity(TsUnit::WallNanos, 512));
    let done = Arc::new(AtomicBool::new(false));

    // Drainer: continuously collects (snapshot-less drain) while
    // producers are live, accumulating everything it sees.
    let drainer = {
        let sink = Arc::clone(&sink);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut seen: Vec<Event> = Vec::new();
            loop {
                seen.extend(sink.drain());
                if done.load(Ordering::Relaxed) {
                    seen.extend(sink.drain());
                    return seen;
                }
                std::thread::yield_now();
            }
        })
    };

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    // ts non-decreasing per producer, disjoint ranges
                    // across producers so the global ts-merge cannot
                    // reorder one producer's events behind another's
                    // with the same timestamp.
                    sink.record(stamped(p, i, p * 1_000_000_000 + i));
                }
            })
        })
        .collect();
    for h in producers {
        h.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let seen = drainer.join().unwrap();

    // Accounting: everything attempted is either seen or counted dropped.
    let stats = sink.pipeline_stats();
    let (recorded, dropped) = (stats.recorded, stats.dropped);
    assert_eq!(recorded + dropped, PRODUCERS * PER_PRODUCER, "attempts unaccounted");
    assert_eq!(seen.len() as u64, recorded, "drained events != recorded counter");
    assert_eq!(sink.dropped(), dropped);

    // The per-producer breakdown sums to the total.
    assert_eq!(stats.drops_by_producer.iter().map(|(_, d)| d).sum::<u64>(), dropped);

    // Per-producer stream discipline: strictly increasing emission
    // counters (order preserved, no duplicates), and the number of gaps
    // equals that producer's drop count exactly.
    let mut by_producer: HashMap<u64, Vec<u64>> = HashMap::new();
    for ev in &seen {
        by_producer.entry(ev.thread).or_default().push(ev.monitor);
    }
    assert_eq!(by_producer.len() as u64, PRODUCERS);
    let mut gaps_total = 0u64;
    for (p, emissions) in &by_producer {
        assert!(
            emissions.windows(2).all(|w| w[0] < w[1]),
            "producer {p}: order lost or duplicate near {:?}",
            emissions.windows(2).find(|w| w[0] >= w[1])
        );
        // Gaps in the emission counter = events that producer lost.
        let mut gaps = emissions.first().copied().unwrap_or(0);
        gaps += emissions.windows(2).map(|w| w[1] - w[0] - 1).sum::<u64>();
        gaps += PER_PRODUCER - 1 - emissions.last().copied().unwrap();
        gaps_total += gaps;
    }
    assert_eq!(gaps_total, dropped, "sequence gaps disagree with drop counters");
}

#[test]
fn snapshot_watchers_do_not_perturb_the_stream() {
    const PER_PRODUCER: u64 = 5_000;
    let sink = Arc::new(EventSink::new(TsUnit::WallNanos));
    // Retention as `demo --watch` sets it; the hour-long epoch leaves
    // every pass to the watcher.
    let collector = Collector::start(
        Arc::clone(&sink),
        CollectorConfig { epoch: Duration::from_secs(3600), retain: Some(1024) },
        StreamSet::none(),
    );
    let done = Arc::new(AtomicBool::new(false));

    // A watcher polling snapshots concurrently with production — the
    // satellite-2 pattern (`demo --watch`, `serve`).
    let watcher = {
        let sink = Arc::clone(&sink);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut polls = 0u64;
            while !done.load(Ordering::Relaxed) {
                let snap = sink.snapshot();
                assert!(snap.len() <= 1024, "retention cap violated");
                polls += 1;
                std::thread::yield_now();
            }
            polls
        })
    };

    let producers: Vec<_> = (0..4u64)
        .map(|p| {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    sink.record(stamped(p, i, p * 1_000_000_000 + i));
                }
            })
        })
        .collect();
    for h in producers {
        h.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let polls = watcher.join().unwrap();
    assert!(polls > 0);

    // Watching consumed nothing: recorded events are all still
    // accounted for in retained + trimmed, and none were dropped as a
    // result of watching (default ring cap comfortably fits the load
    // between collection passes... unless the watcher stalls, in which
    // case drops are *counted*, not silent).
    let stats = sink.pipeline_stats();
    assert_eq!(stats.recorded + stats.dropped, 4 * PER_PRODUCER);
    collector.stop(&std::collections::BTreeMap::new(), &RunMeta::default()).unwrap();
    let stats = sink.pipeline_stats();
    assert_eq!(stats.retained + stats.trimmed, stats.recorded, "snapshot stole events");
}

/// A `Write` that accumulates into a shared buffer and, as the streamed
/// bytes reach staged content markers, registers a brand-new producer
/// ring *while the triggering collection pass is still running* (the
/// writer is invoked from inside the pass, under the collect lock; the
/// pass snapshotted the ring list before it started, so the new ring is
/// invisible to it). Each stage is one-shot.
struct MidPassSpawner {
    buf: Arc<Mutex<Vec<u8>>>,
    sink: Arc<EventSink>,
    stage: AtomicUsize,
}

impl MidPassSpawner {
    /// Spawn producer `p` on a fresh thread (fresh SPSC ring) and wait
    /// for its events to be in the ring. Recording only takes the ring
    /// registry lock, never the collect lock, so joining here is safe.
    fn register_producer(&self, p: u64) {
        let sink = Arc::clone(&self.sink);
        std::thread::spawn(move || {
            for i in 0..100u64 {
                sink.record(stamped(p, i, p * 1_000_000_000 + i));
            }
        })
        .join()
        .unwrap();
    }
}

impl io::Write for MidPassSpawner {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.buf.lock().unwrap().extend_from_slice(bytes);
        let seen = self.buf.lock().unwrap().clone();
        let seen = String::from_utf8_lossy(&seen).into_owned();
        // Markers include the trailing comma so "thread":1 cannot match
        // the "thread":10 and "thread":11 lines of later stages.
        let next = match self.stage.load(Ordering::Relaxed) {
            0 if seen.contains("\"thread\":1,") => Some((1, 9)),
            1 if seen.contains("\"thread\":9,") => Some((2, 10)),
            2 if seen.contains("\"thread\":10,") => Some((3, 11)),
            _ => None,
        };
        if let Some((stage, producer)) = next {
            self.stage.store(stage, Ordering::Relaxed);
            self.register_producer(producer);
        }
        Ok(bytes.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Shutdown reconciliation: every recorded event reaches the stream,
/// even when producer rings register mid-pass all the way into the
/// final catch-up. Each stage of the chain registers a new ring during
/// a collection pass (manual sync → collector thread's last-gasp pass →
/// `stop`'s first catch-up pass), so a `stop` that ran exactly one
/// catch-up pass would close the stream with the last ring's 100 events
/// recorded but never streamed.
#[test]
fn stop_streams_rings_registered_during_the_final_passes() {
    let sink = Arc::new(EventSink::new(TsUnit::WallNanos));
    let buf = Arc::new(Mutex::new(Vec::new()));
    let writer = MidPassSpawner {
        buf: Arc::clone(&buf),
        sink: Arc::clone(&sink),
        stage: AtomicUsize::new(0),
    };
    let streams = StreamSet {
        jsonl: Some(
            TraceStream::new(
                Box::new(writer) as Box<dyn io::Write + Send>,
                TsUnit::WallNanos,
                &RunMeta::default(),
            )
            .unwrap(),
        ),
        chrome: None,
    };
    // An hour-long epoch: the collector thread never ticks on its own,
    // so nothing drains until the passes this test provokes.
    let collector = Collector::start(
        Arc::clone(&sink),
        CollectorConfig { epoch: Duration::from_secs(3600), retain: None },
        streams,
    );

    for i in 0..50u64 {
        sink.record(stamped(1, i, 1_000_000_000 + i));
    }
    // Streams thread 1's events; producer 9's ring registers mid-pass.
    sink.snapshot();
    // stop(): the collector thread's wake-up pass streams producer 9
    // (registering producer 10 mid-pass), and the catch-up passes must
    // then chase producers 10 and 11 into the stream before finishing.
    let report = collector.stop(&std::collections::BTreeMap::new(), &RunMeta::default()).unwrap();

    let recorded = sink.pipeline_stats().recorded;
    assert_eq!(recorded, 50 + 3 * 100, "all four producers recorded");
    assert_eq!(sink.dropped(), 0);
    assert_eq!(
        report.events_streamed, recorded,
        "tail events lost between the last epoch tick and shutdown"
    );
    // And the streamed trace itself reconciles: every recorded event is
    // a parseable line in the closed file.
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let imp = import_trace_jsonl(&text);
    assert_eq!(imp.events.len() as u64, recorded, "streamed trace missing events");
    assert_eq!(imp.warnings.malformed_lines, 0);
}
