//! The background collector: epoch-cadence draining of the per-thread
//! event rings.
//!
//! Producers only ever write their own SPSC ring; someone has to move
//! those events downstream. For bounded runs (`revmon run`) the CLI
//! simply calls [`EventSink::drain`] at the end. Long-running modes
//! (`demo`, `serve`) spawn a [`Collector`]: a thread that wakes every
//! [`CollectorConfig::epoch`], runs one collection pass (drain rings →
//! merge into global order → retain), and streams the merged batch
//! incrementally through a [`StreamSet`] — a JSONL [`TraceStream`]
//! and/or a [`ChromeStream`] — so arbitrarily long runs write traces to
//! disk with bounded memory.
//!
//! The streams are installed as the sink's collection-pass hook, not
//! held privately by the collector thread: any pass run by any thread
//! (a watcher's [`EventSink::snapshot`], a final [`EventSink::drain`])
//! hands its merged batch to the streams first, so concurrent observers
//! can never steal events from `--trace-out`.
//!
//! [`Collector::stop`] runs a final catch-up pass, closes the streams
//! (monitor-name table + `trace_end` counters), and reports what was
//! streamed. Collector lag and backlog are visible in
//! [`EventSink::pipeline_stats`] the whole time.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::Event;
use crate::export::{ChromeStream, RunMeta, TraceStream};
use crate::sink::EventSink;

/// Collector cadence and retention policy.
#[derive(Clone, Copy, Debug)]
pub struct CollectorConfig {
    /// How often to run a collection pass.
    pub epoch: Duration,
    /// Cap for the sink's retained snapshot buffer (`None` leaves the
    /// sink's current setting). Long-running modes set this so watcher
    /// snapshots stay bounded while streams see everything.
    pub retain: Option<usize>,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig { epoch: Duration::from_millis(100), retain: None }
    }
}

/// The incremental exporters a collector feeds. Either or both may be
/// absent; the collector still fills the retained snapshot buffer.
pub struct StreamSet {
    /// JSONL trace stream (`--trace-out`).
    pub jsonl: Option<TraceStream<Box<dyn Write + Send>>>,
    /// Chrome trace stream (`--chrome-trace`).
    pub chrome: Option<ChromeStream<Box<dyn Write + Send>>>,
}

impl StreamSet {
    /// No streams: collect for snapshots and drains only.
    pub fn none() -> Self {
        StreamSet { jsonl: None, chrome: None }
    }

    fn write_batch(&mut self, events: &[Event], err: &mut io::Result<()>) {
        if err.is_err() {
            return;
        }
        if let Some(s) = &mut self.jsonl {
            if let Err(e) = s.write_batch(events) {
                *err = Err(e);
                return;
            }
        }
        if let Some(c) = &mut self.chrome {
            if let Err(e) = c.write_batch(events) {
                *err = Err(e);
            }
        }
    }
}

/// What a stopped collector streamed.
#[derive(Clone, Copy, Debug, Default)]
pub struct CollectorReport {
    /// Events written to the JSONL stream (0 when none was attached).
    pub events_streamed: u64,
    /// Mid-stream tears the Chrome stream repaired.
    pub chrome_repairs: u64,
}

/// Background epoch-cadence consumer of a sink's per-thread rings.
pub struct Collector {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
    sink: Arc<EventSink>,
    /// The streams, shared with the collection-pass hook installed in
    /// the sink; reclaimed (and finished) by [`Collector::stop`].
    shared: Arc<Mutex<(StreamSet, io::Result<()>)>>,
}

impl Collector {
    /// Spawn the collector thread and install the streams as the sink's
    /// collection-pass hook. Collection starts immediately on the epoch
    /// cadence; call [`Collector::stop`] to finish.
    pub fn start(sink: Arc<EventSink>, cfg: CollectorConfig, streams: StreamSet) -> Collector {
        if let Some(cap) = cfg.retain {
            sink.set_retain(cap);
        }
        let shared = Arc::new(Mutex::new((streams, Ok(()))));
        {
            let shared = Arc::clone(&shared);
            sink.set_stream(Some(Box::new(move |batch: &[Event]| {
                let mut guard = match shared.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                let (streams, err) = &mut *guard;
                streams.write_batch(batch, err);
            })));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let sink = Arc::clone(&sink);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("revmon-obs-collector".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::park_timeout(cfg.epoch);
                        sink.sync();
                    }
                })
                .expect("spawn collector thread")
        };
        Collector { stop, handle, sink, shared }
    }

    /// Stop the collector: join the thread, run one final catch-up
    /// pass, detach the stream hook, and close the streams with the
    /// monitor-name table and the final [`RunMeta`] counters.
    pub fn stop(
        self,
        names: &BTreeMap<u64, String>,
        meta: &RunMeta,
    ) -> io::Result<CollectorReport> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.thread().unpark();
        self.handle.join().map_err(|_| io::Error::other("collector thread panicked"))?;
        // Catch anything produced after the thread's last pass. One
        // pass is not enough: `collect_locked` snapshots the ring list
        // at pass start, so a producer that registered its ring *during*
        // that pass is invisible to it and its tail events would never
        // reach `--trace-out`. Loop until the rings report empty
        // (bounded — producers have quiesced by the stop contract, so
        // this settles in a pass or two; the cap keeps a rogue
        // still-recording producer from wedging shutdown).
        for _ in 0..64 {
            self.sink.sync();
            if self.sink.pipeline_stats().backlog == 0 {
                break;
            }
        }
        self.sink.set_stream(None);
        let shared = Arc::try_unwrap(self.shared)
            .map_err(|_| io::Error::other("stream hook still attached"))?;
        let (mut streams, err) = shared.into_inner().unwrap_or_else(|p| p.into_inner());
        err?;
        let mut report = CollectorReport::default();
        if let Some(s) = streams.jsonl.take() {
            report.events_streamed = s.finish(names, meta)?;
        }
        if let Some(c) = streams.chrome.take() {
            report.chrome_repairs = c.finish()?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::import::import_trace_jsonl;
    use crate::sink::TsUnit;
    use std::sync::Mutex;

    /// `Write` into a shared buffer the test can read back after the
    /// stream consumed its writer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn ev(ts: u64, thread: u64, kind: EventKind) -> Event {
        Event { ts, thread, monitor: 1, core: 0, kind }
    }

    #[test]
    fn collector_streams_everything_and_folds_histograms() {
        let sink = Arc::new(EventSink::new(TsUnit::WallNanos));
        let buf = SharedBuf::default();
        let chrome_buf = SharedBuf::default();
        let streams = StreamSet {
            jsonl: Some(
                TraceStream::new(
                    Box::new(buf.clone()) as Box<dyn Write + Send>,
                    TsUnit::WallNanos,
                    &RunMeta { scheduler: Some("test".into()), ..RunMeta::default() },
                )
                .unwrap(),
            ),
            chrome: Some(
                ChromeStream::new(
                    Box::new(chrome_buf.clone()) as Box<dyn Write + Send>,
                    TsUnit::WallNanos,
                )
                .unwrap(),
            ),
        };
        let collector = Collector::start(
            Arc::clone(&sink),
            CollectorConfig { epoch: Duration::from_millis(5), retain: None },
            streams,
        );

        // Two producer threads record concurrently with collection.
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        sink.record(ev(t * 10_000 + i * 2, t, EventKind::Acquire));
                        sink.record(ev(t * 10_000 + i * 2 + 1, t, EventKind::Release));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }

        let meta = RunMeta {
            recorded: Some(sink.pipeline_stats().recorded),
            dropped: Some(sink.dropped()),
            ..RunMeta::default()
        };
        let report = collector.stop(&BTreeMap::new(), &meta).unwrap();
        assert_eq!(report.events_streamed, 2000, "every recorded event reaches the stream");

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let imp = import_trace_jsonl(&text);
        // Per-thread ts are strictly increasing and thread ranges don't
        // overlap batches' sort keys, so a clean import is expected.
        assert_eq!(imp.events.len() as u64 + imp.warnings.out_of_order, 2000);
        assert_eq!(imp.run_meta.scheduler.as_deref(), Some("test"));
        assert_eq!(imp.run_meta.recorded, Some(2000));

        // The retained buffer holds the whole run for the analysis.
        let stats = sink.pipeline_stats();
        let a = crate::Analysis::from_events(&sink.drain());
        assert_eq!(a.histograms.section_length.count(), 1000);
        assert!(stats.epochs >= 1);
        assert_eq!(stats.producers, 2);

        let chrome = String::from_utf8(chrome_buf.0.lock().unwrap().clone()).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.trim_end().ends_with("]}"));
        let b = chrome.matches("\"ph\":\"B\"").count();
        let e = chrome.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e, "streamed chrome trace unbalanced");
    }

    #[test]
    fn collector_without_streams_keeps_snapshots_bounded() {
        let sink = Arc::new(EventSink::new(TsUnit::VirtualTicks));
        let collector = Collector::start(
            Arc::clone(&sink),
            CollectorConfig { epoch: Duration::from_millis(2), retain: Some(16) },
            StreamSet::none(),
        );
        for i in 0..1000u64 {
            sink.record(ev(i, 1, EventKind::Acquire));
        }
        // Snapshots never exceed the retention cap, whatever the load.
        assert!(sink.snapshot().len() <= 16);
        let report = collector.stop(&BTreeMap::new(), &RunMeta::default()).unwrap();
        assert_eq!(report.events_streamed, 0);
        let stats = sink.pipeline_stats();
        assert_eq!(stats.recorded, 1000);
        assert_eq!(stats.retained + stats.trimmed, 1000);
    }
}
