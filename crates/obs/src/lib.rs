//! `revmon-obs`: unified event tracing and metrics export for both
//! revmon runtimes.
//!
//! The deterministic VM (`revmon-vm`) and the real-thread library
//! (`revmon-locks`) each observe the same conceptual monitor events —
//! acquire, block, revoke-request, rollback, commit, release — but
//! historically exposed them through different mechanisms (an in-VM
//! trace vector vs. per-monitor atomic counters). This crate gives both
//! a single structured pipeline:
//!
//! * [`Event`] / [`EventKind`] — the runtime-agnostic event model; the
//!   VM's virtual clock and the locks runtime's monotonic wall clock
//!   both fit the `u64` timestamp (the sink's [`TsUnit`] says which).
//! * [`EventSink`] — the real-thread runtime's way in (the VM hands over
//!   one ordered `Vec<Event>`): a lock-free, thread-local producer path:
//!   each recording thread owns a fixed-capacity SPSC ring registered
//!   with the sink, so `record()` is one relaxed enabled-check, a
//!   per-thread sequence stamp, and a local ring write — no global
//!   `fetch_add`, no mutex, no shared cache line between producers.
//!   Collection passes (inline via [`EventSink::drain`] and
//!   [`EventSink::snapshot`], or the background [`Collector`] on an
//!   epoch cadence) merge the rings into global order; the sink only
//!   moves events, it derives no numbers from them.
//!   Pipeline self-telemetry — per-producer drop counters, collector
//!   lag/backlog, record-path self-cost — is a [`PipelineStats`]
//!   snapshot away. A disabled sink costs one relaxed atomic load per
//!   event site.
//! * exporters — [`write_events_jsonl`] (JSON Lines),
//!   [`write_trace_jsonl`] (JSON Lines with a meta header + monitor
//!   name table, the `revmon analyze` interchange format),
//!   [`write_chrome_trace`] (Chrome `trace_event`, loadable in Perfetto
//!   or `chrome://tracing`; repairs and counts spans torn by ring
//!   overflow), their incremental forms [`TraceStream`] and
//!   [`ChromeStream`] (fed batch-by-batch by the [`Collector`], with a
//!   trailing `trace_end` counter line), [`write_summary`]
//!   (p50/p90/p99/max text table), and [`metrics_json`] (counters +
//!   percentiles + phase timers + pipeline self-telemetry as JSON).
//! * [`json`] — the workspace's one JSON reader ([`json::Reader`], which
//!   the trace importer and `.schedule.json` artifacts share) and one
//!   string escaper ([`json::esc`]).
//! * `revmon-analyze` — the read side, shaped like the write side: one
//!   streaming form with a collect-everything wrapper each.
//!   [`TraceImport::read`] is the lossy-stream-tolerant importer, a line
//!   at a time from any `BufRead`, decoding each exporter-spelled line
//!   in the reader's buffer ([`import_trace_jsonl`] is the same loop
//!   over a `&str`, keeping the whole trace); [`Analyzer`] folds events one at a time into an
//!   [`Analysis`] ([`Analysis::from_events`] does it for a slice):
//!   priority-inversion [`Episode`]s classified by [`Resolution`], with
//!   inversion latency and wasted-work accounting, per-monitor
//!   contention profiles, the event census and the four latency
//!   [`Histograms`] (entry-queue blocking time, section length, rollback
//!   duration, and inversion-resolution latency — revoke request →
//!   high-priority acquire — each in an HDR-style log-linear
//!   [`Histogram`]), rendered by [`write_report`], [`analysis_json`],
//!   [`write_prometheus`], [`write_summary`] and [`metrics_json`]. One
//!   interval matcher (`Block` → `Acquire` → `Release`/`Rollback` per
//!   thread and monitor) feeds the histograms, the profiles and the
//!   episodes alike.
//!
//! * profiling ([`prof`]) — always-on slow-path phase timers
//!   ([`PhaseTimers`]), wait-for graph snapshots ([`GraphSnapshot`],
//!   DOT + JSON), and contention flamegraph export ([`FoldedStacks`],
//!   brendangregg folded format: each episode's critical path, segment
//!   by segment).
//!
//! See `docs/observability.md`, `docs/analysis.md`, and
//! `docs/profiling.md` for the end-to-end guides.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod analyze;
mod collect;
mod episode;
mod event;
mod export;
mod flame;
mod graph;
mod hist;
mod import;
pub mod json;
mod latency;
pub mod prof;
mod sink;
mod spsc;

pub use analyze::{
    analysis_json, monitor_label, write_prometheus, write_report, Analysis, Analyzer, ExactStats,
    MonitorProfile,
};
pub use collect::{Collector, CollectorConfig, CollectorReport, StreamSet};
pub use episode::{Episode, Resolution};
pub use event::{Event, EventKind};
pub use export::{
    metrics_json, write_chrome_trace, write_events_jsonl, write_pipeline_prometheus,
    write_pipeline_table, write_summary, write_trace_jsonl, write_trace_jsonl_with, ChromeStream,
    RunMeta, TraceStream,
};
pub use flame::FoldedStacks;
pub use graph::{GraphEdge, GraphSnapshot};
pub use hist::Histogram;
pub use import::{import_trace_jsonl, ImportWarnings, TraceImport};
pub use latency::Histograms;
pub use prof::{Phase, PhaseTimers};
pub use sink::{EventSink, PipelineStats, TsUnit};
