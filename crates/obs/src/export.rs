//! Exporters: JSON Lines events, Chrome `trace_event` JSON (loadable in
//! Perfetto / `chrome://tracing`), and a human-readable text summary.
//!
//! JSON is emitted by hand — the payloads are flat and numeric, and the
//! build environment has no serde. The two per-event writers (JSONL
//! lines, Chrome trace elements) build each element in one reused line
//! buffer from `push_str` and [`push_u64`], timestamps included
//! ([`push_micros`]): no allocation and no formatter at event rate. The
//! once-per-run writers (headers, metrics, tables) are `format!`-built.
//! Everything writes through `io::Write` so the CLI can target files
//! and tests can target `Vec`s.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::event::{envelope, Event, EventKind};
use crate::json::{esc, push_u64};
use crate::latency::Histograms;
use crate::sink::{PipelineStats, TsUnit};
use revmon_core::FxMap;

/// Append `,"field":value` for each payload field of `kind` (`null`
/// for an absent nullable one) — the tail of a JSONL event line and of
/// a Chrome instant's `args`.
fn push_payload(out: &mut String, kind: &EventKind) {
    for (field, value) in kind.payload() {
        out.push_str(",\"");
        out.push_str(field);
        out.push_str("\":");
        match value {
            Some(v) => push_u64(out, v),
            None => out.push_str("null"),
        }
    }
}

/// Append a monitor id, `null` for [`Event::NO_MONITOR`]: the sentinel
/// is `u64::MAX`, a number no JSON consumer holds exactly.
fn push_monitor(out: &mut String, monitor: u64) {
    match monitor {
        Event::NO_MONITOR => out.push_str("null"),
        m => push_u64(out, m),
    }
}

/// Write events as JSON Lines: one flat object per event, in order.
/// `core` is written only when non-zero, so single-core traces stay
/// byte-identical to the pre-multicore format.
pub fn write_events_jsonl<W: Write>(w: &mut W, events: &[Event]) -> io::Result<()> {
    // One reused line buffer and one `write_all` per event, so an
    // unbuffered `w` still sees whole lines.
    let mut line = String::new();
    for ev in events {
        line.clear();
        line.push_str(envelope::TS);
        push_u64(&mut line, ev.ts);
        line.push_str(envelope::THREAD);
        push_u64(&mut line, ev.thread);
        line.push_str(envelope::MONITOR);
        push_monitor(&mut line, ev.monitor);
        if ev.core != 0 {
            line.push_str(envelope::CORE);
            push_u64(&mut line, ev.core as u64);
        }
        line.push_str(envelope::KIND);
        line.push_str(ev.kind.name());
        line.push('"');
        push_payload(&mut line, &ev.kind);
        line.push_str("}\n");
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Optional run context carried in the trace meta header, so `revmon
/// analyze` can label a trace without the original CLI flags: sink
/// drop accounting (was the recording lossy?), the effective governor
/// config (was the run governed?), and the scheduler name. Every field
/// is optional; absent fields are simply not written, which keeps
/// [`write_trace_jsonl`]'s output — and the lossless round-trip
/// guarantee — byte-identical to the pre-`RunMeta` format.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Events the sink recorded (accepted into the ring).
    pub recorded: Option<u64>,
    /// Events dropped on ring overflow. `Some(0)` is meaningful: it
    /// asserts the trace is complete, which silence cannot.
    pub dropped: Option<u64>,
    /// Effective governor config as `(k, backoff, decay)`; `k == 0`
    /// means the governor was disabled but explicitly so.
    pub governor: Option<(u32, u64, u64)>,
    /// Scheduler name (e.g. `"priority"`, `"lottery"`).
    pub scheduler: Option<String>,
    /// High-rate events thinned by the sampling knob (`Some(0)` asserts
    /// nothing was sampled away).
    pub sampled: Option<u64>,
    /// Sampling modulus in effect (keep 1/N); `Some(1)` means sampling
    /// was explicitly off.
    pub sample_n: Option<u64>,
    /// Per-producer drop breakdown, encoded `"producer:dropped,..."`
    /// (e.g. `"0:3,2:1"`) because the header is a flat object with no
    /// arrays. Build with [`RunMeta::encode_drop_breakdown`], read back
    /// with [`RunMeta::drop_breakdown`].
    pub drops_by_producer: Option<String>,
}

impl RunMeta {
    /// Whether no field is set (header renders identically to the
    /// meta-less format).
    pub fn is_empty(&self) -> bool {
        *self == RunMeta::default()
    }

    /// Encode a per-producer `(producer, dropped)` breakdown into the
    /// header's flat string form. `None` when the breakdown is empty.
    pub fn encode_drop_breakdown(breakdown: &[(u64, u64)]) -> Option<String> {
        if breakdown.is_empty() {
            return None;
        }
        Some(breakdown.iter().map(|(p, d)| format!("{p}:{d}")).collect::<Vec<_>>().join(","))
    }

    /// Decode [`RunMeta::drops_by_producer`] back into `(producer,
    /// dropped)` pairs; unparsable entries are skipped.
    pub fn drop_breakdown(&self) -> Vec<(u64, u64)> {
        let Some(s) = &self.drops_by_producer else {
            return Vec::new();
        };
        s.split(',')
            .filter_map(|pair| {
                let (p, d) = pair.split_once(':')?;
                Some((p.trim().parse().ok()?, d.trim().parse().ok()?))
            })
            .collect()
    }

    /// Field-wise merge: fields set in `other` override this meta's,
    /// unset fields survive. How the importer folds a trailing
    /// `trace_end` line (final counters) into the stream header
    /// (scheduler/governor context) without losing either.
    pub fn merge_from(&mut self, other: RunMeta) {
        if other.recorded.is_some() {
            self.recorded = other.recorded;
        }
        if other.dropped.is_some() {
            self.dropped = other.dropped;
        }
        if other.governor.is_some() {
            self.governor = other.governor;
        }
        if other.scheduler.is_some() {
            self.scheduler = other.scheduler;
        }
        if other.sampled.is_some() {
            self.sampled = other.sampled;
        }
        if other.sample_n.is_some() {
            self.sample_n = other.sample_n;
        }
        if other.drops_by_producer.is_some() {
            self.drops_by_producer = other.drops_by_producer;
        }
    }

    fn header_extras(&self) -> String {
        let mut s = String::new();
        if let Some(r) = self.recorded {
            s.push_str(&format!(",\"recorded\":{r}"));
        }
        if let Some(d) = self.dropped {
            s.push_str(&format!(",\"dropped\":{d}"));
        }
        if let Some((k, backoff, decay)) = self.governor {
            s.push_str(&format!(
                ",\"governor_k\":{k},\"governor_backoff\":{backoff},\"governor_decay\":{decay}"
            ));
        }
        if let Some(sched) = &self.scheduler {
            s.push_str(&format!(",\"scheduler\":\"{}\"", esc(sched)));
        }
        if let Some(n) = self.sampled {
            s.push_str(&format!(",\"sampled\":{n}"));
        }
        if let Some(n) = self.sample_n {
            s.push_str(&format!(",\"sample_n\":{n}"));
        }
        if let Some(b) = &self.drops_by_producer {
            s.push_str(&format!(",\"drops_by_producer\":\"{}\"", esc(b)));
        }
        s
    }
}

/// Write a full analyzable trace as JSON Lines: a meta header naming
/// the clock unit, one `monitor_name` meta line per named monitor, then
/// one flat object per event (same shape as [`write_events_jsonl`]).
/// This is the format `revmon analyze` imports; see
/// [`crate::import_trace_jsonl`].
pub fn write_trace_jsonl<W: Write>(
    w: &mut W,
    events: &[Event],
    unit: TsUnit,
    names: &std::collections::BTreeMap<u64, String>,
) -> io::Result<()> {
    write_trace_jsonl_with(w, events, unit, names, &RunMeta::default())
}

/// [`write_trace_jsonl`] with run context appended to the meta header.
/// With an empty [`RunMeta`] the output is byte-identical to
/// [`write_trace_jsonl`].
pub fn write_trace_jsonl_with<W: Write>(
    w: &mut W,
    events: &[Event],
    unit: TsUnit,
    names: &std::collections::BTreeMap<u64, String>,
    meta: &RunMeta,
) -> io::Result<()> {
    write_trace_header(w, unit, meta)?;
    write_monitor_names(w, names)?;
    write_events_jsonl(w, events)
}

fn write_trace_header<W: Write>(w: &mut W, unit: TsUnit, meta: &RunMeta) -> io::Result<()> {
    writeln!(
        w,
        "{{\"meta\":\"trace\",\"ts_unit\":\"{}\",\"version\":1{}}}",
        unit.suffix(),
        meta.header_extras()
    )
}

fn write_monitor_names<W: Write>(
    w: &mut W,
    names: &std::collections::BTreeMap<u64, String>,
) -> io::Result<()> {
    for (monitor, name) in names {
        writeln!(
            w,
            "{{\"meta\":\"monitor_name\",\"monitor\":{monitor},\"name\":\"{}\"}}",
            esc(name)
        )?;
    }
    Ok(())
}

/// Incremental [`write_trace_jsonl_with`]: the background collector
/// appends merged batches as they are collected, so long-running
/// `demo`/`serve` traces stream to disk instead of accumulating in
/// memory. Layout: the same meta header first (initial context; final
/// counters are unknown at start), then event lines batch by batch,
/// then — from [`TraceStream::finish`] — the monitor-name lines
/// (legal anywhere in the stream; names settle late in live runs) and
/// a trailing `{"meta":"trace_end",...}` line carrying the final
/// [`RunMeta`] counters. The importer merges `trace_end` into the
/// header field-wise.
pub struct TraceStream<W: Write> {
    w: W,
    events: u64,
}

impl<W: Write> TraceStream<W> {
    /// Start a stream: writes the meta header. `meta` carries whatever
    /// context is known up front (scheduler, governor); pass
    /// `RunMeta::default()` and let `finish` supply everything else.
    pub fn new(mut w: W, unit: TsUnit, meta: &RunMeta) -> io::Result<Self> {
        write_trace_header(&mut w, unit, meta)?;
        Ok(TraceStream { w, events: 0 })
    }

    /// Append one merged batch of events.
    pub fn write_batch(&mut self, events: &[Event]) -> io::Result<()> {
        self.events += events.len() as u64;
        write_events_jsonl(&mut self.w, events)
    }

    /// Close the stream: monitor-name table, then the `trace_end` meta
    /// line with the final run counters. Returns the number of events
    /// streamed.
    pub fn finish(
        mut self,
        names: &std::collections::BTreeMap<u64, String>,
        meta: &RunMeta,
    ) -> io::Result<u64> {
        write_monitor_names(&mut self.w, names)?;
        writeln!(self.w, "{{\"meta\":\"trace_end\",\"version\":1{}}}", meta.header_extras())?;
        self.w.flush()?;
        Ok(self.events)
    }
}

/// Write events in Chrome `trace_event` format.
///
/// Monitor-held time and entry-queue blocking render as duration spans
/// (`B`/`E`), rollbacks as complete events (`X`) with their measured
/// duration, and everything else as instants (`i`).
///
/// Ring-buffer overflow can drop events mid-stream, orphaning a `B`
/// with no `E` (dropped `Release`/`Acquire`) or producing an `E` with
/// no matching `B` (dropped `Block`/`Acquire`). Such tears are repaired
/// in place — a stale blocked span is closed when its thread blocks or
/// acquires elsewhere, and a close with no open span is skipped — and
/// the number of repairs is returned so callers can surface damage.
/// Spans still open at the end of the stream are closed at the last
/// timestamp (normal truncation, not counted as repairs) so the file
/// always balances.
pub fn write_chrome_trace<W: Write>(w: &mut W, events: &[Event], unit: TsUnit) -> io::Result<u64> {
    let mut stream = ChromeStream::new(&mut *w, unit)?;
    stream.write_batch(events)?;
    stream.finish()
}

/// Timestamps below this write their microsecond text from integers.
/// Up to here `{:.3}` of [`TsUnit::to_micros`] provably prints the same
/// digits: ticks are exact in an `f64`, and a nanosecond count over
/// 1000.0 (or the difference of two) is within 1e-6 of a multiple of
/// 0.001, nowhere near the 0.0005 that would round differently.
const EXACT_MICROS_BELOW: u64 = 1 << 41;

/// Append the Chrome-trace microsecond text of the interval from
/// `since` to `ts >= since` (a timestamp is the interval from 0): what
/// `{:.3}` of `unit.to_micros(ts) - unit.to_micros(since)` prints.
fn push_micros(out: &mut String, unit: TsUnit, since: u64, ts: u64) {
    if ts >= EXACT_MICROS_BELOW {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{:.3}", unit.to_micros(ts) - unit.to_micros(since));
        return;
    }
    let d = ts - since;
    match unit {
        TsUnit::VirtualTicks => {
            push_u64(out, d);
            out.push_str(".000");
        }
        TsUnit::WallNanos => {
            push_u64(out, d / 1000);
            out.push('.');
            for place in [100, 10, 1] {
                out.push(char::from(b'0' + (d % 1000 / place % 10) as u8));
            }
        }
    }
}

/// The two duration spans the Chrome trace draws per monitor.
#[derive(Clone, Copy)]
enum Span {
    /// `blocked: monitor N`, category `blocking`.
    Blocked,
    /// `monitor N held`, category `monitor`.
    Held,
}

/// The element writer under [`ChromeStream`]: builds one `traceEvents`
/// element at a time in a reused line and writes it, comma-separating
/// after the first.
struct Elements<W: Write> {
    w: W,
    unit: TsUnit,
    first: bool,
    line: String,
}

impl<W: Write> Elements<W> {
    /// Start an element: the separator the array needs before it, `{`,
    /// then `head`.
    fn begin(&mut self, head: &str) {
        self.line.clear();
        self.line.push_str(if std::mem::replace(&mut self.first, false) { "\n{" } else { ",\n{" });
        self.line.push_str(head);
    }

    /// Append `,"pid":P,"tid":T,"ts":µs`: the lane `(core, thread)` the
    /// element is drawn in and its timestamp. Chrome renders one process lane per `pid`; simulated cores map to
    /// `pid = core + 1` so core 0 keeps the legacy single-core `pid:1`.
    fn lane(&mut self, (core, thread): (u32, u64), ts: u64) {
        self.line.push_str(",\"pid\":");
        push_u64(&mut self.line, core as u64 + 1);
        self.line.push_str(",\"tid\":");
        push_u64(&mut self.line, thread);
        self.line.push_str(",\"ts\":");
        push_micros(&mut self.line, self.unit, 0, ts);
    }

    /// Finish the element with `tail` and write it out.
    fn end(&mut self, tail: &str) -> io::Result<()> {
        self.line.push_str(tail);
        self.w.write_all(self.line.as_bytes())
    }

    /// One `B`/`E` element of a span on `monitor`.
    fn span(
        &mut self,
        ph: &str,
        span: Span,
        monitor: u64,
        key: (u32, u64),
        ts: u64,
    ) -> io::Result<()> {
        match span {
            Span::Blocked => {
                self.begin("\"name\":\"blocked: monitor ");
                push_u64(&mut self.line, monitor);
                self.line.push_str("\",\"cat\":\"blocking\",\"ph\":\"");
            }
            Span::Held => {
                self.begin("\"name\":\"monitor ");
                push_u64(&mut self.line, monitor);
                self.line.push_str(" held\",\"cat\":\"monitor\",\"ph\":\"");
            }
        }
        self.line.push_str(ph);
        self.line.push('"');
        self.lane(key, ts);
        self.end("}")
    }
}

/// Incremental [`write_chrome_trace`]: the tear-repair state machine
/// (open held/blocked spans, pending unwinds, repair count) persists
/// across batches, so the background collector can append each merged
/// batch as it is collected and [`ChromeStream::finish`] balances
/// whatever is still open when the run ends.
pub struct ChromeStream<W: Write> {
    out: Elements<W>,
    /// Per-`(core, thread)` stack of monitors with an open "held" span.
    /// Keying by core as well as thread keeps repair honest when events
    /// carry core ids: two producers that reuse a thread id on
    /// different cores are distinct namespaces, and a tear on one core
    /// must never synthesize a close on another.
    held: FxMap<(u32, u64), Vec<u64>>,
    /// Monitor each `(core, thread)` is currently blocked on.
    blocked: FxMap<(u32, u64), u64>,
    /// Monitors whose held span a rollback force-closed; the unwind's
    /// own Release events for them are expected, not orphans.
    unwound: FxMap<(u32, u64), Vec<u64>>,
    repairs: u64,
    last_ts: u64,
}

impl<W: Write> ChromeStream<W> {
    /// Start a Chrome trace: writes the `traceEvents` array opener.
    pub fn new(mut w: W, unit: TsUnit) -> io::Result<Self> {
        write!(w, "{{\"traceEvents\":[")?;
        Ok(ChromeStream {
            out: Elements { w, unit, first: true, line: String::new() },
            held: FxMap::default(),
            blocked: FxMap::default(),
            unwound: FxMap::default(),
            repairs: 0,
            last_ts: 0,
        })
    }

    /// Mid-stream tears repaired so far.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Append one merged batch of events, repairing tears in place.
    pub fn write_batch(&mut self, events: &[Event]) -> io::Result<()> {
        let ChromeStream { out, held, blocked, unwound, repairs, last_ts } = self;
        for ev in events {
            *last_ts = (*last_ts).max(ev.ts);
            let key = (ev.core, ev.thread);
            match ev.kind {
                EventKind::Block => {
                    if let Some(&m) = blocked.get(&key) {
                        if m != ev.monitor {
                            // The Acquire that ended the old blocked span
                            // was dropped: synthesize its E here.
                            out.span("E", Span::Blocked, m, key, ev.ts)?;
                            *repairs += 1;
                            blocked.insert(key, ev.monitor);
                            out.span("B", Span::Blocked, ev.monitor, key, ev.ts)?;
                        }
                        // Re-blocking on the same monitor keeps the span open.
                    } else {
                        blocked.insert(key, ev.monitor);
                        out.span("B", Span::Blocked, ev.monitor, key, ev.ts)?;
                    }
                }
                EventKind::Acquire => {
                    if let Some(m) = blocked.remove(&key) {
                        out.span("E", Span::Blocked, m, key, ev.ts)?;
                        if m != ev.monitor {
                            // Blocked on one monitor, acquired another: the
                            // intervening Acquire/Block pair was dropped.
                            *repairs += 1;
                        }
                    }
                    let stack = held.entry(key).or_default();
                    // Reentrant acquires keep the existing span open.
                    if !stack.contains(&ev.monitor) {
                        stack.push(ev.monitor);
                        out.span("B", Span::Held, ev.monitor, key, ev.ts)?;
                    }
                    // A fresh acquire supersedes any stale unwind debt.
                    if let Some(pend) = unwound.get_mut(&key) {
                        pend.retain(|&m| m != ev.monitor);
                    }
                }
                EventKind::Release | EventKind::Rollback { .. } => {
                    if let EventKind::Rollback { entries, duration } = ev.kind {
                        let start = ev.ts.saturating_sub(duration);
                        out.begin("\"name\":\"rollback\",\"cat\":\"revocation\",\"ph\":\"X\"");
                        out.lane(key, start);
                        out.line.push_str(",\"dur\":");
                        push_micros(&mut out.line, out.unit, start, ev.ts);
                        out.line.push_str(",\"args\":{\"entries\":");
                        push_u64(&mut out.line, entries);
                        out.end("}}")?;
                    }
                    // Close spans down to (and including) this monitor so
                    // B/E stay properly nested even if inner sections were
                    // torn down by an unwind.
                    let mut closed = false;
                    if let Some(stack) = held.get_mut(&key) {
                        if stack.contains(&ev.monitor) {
                            closed = true;
                            let rollback = matches!(ev.kind, EventKind::Rollback { .. });
                            while let Some(m) = stack.pop() {
                                out.span("E", Span::Held, m, key, ev.ts)?;
                                if rollback {
                                    // The unwind will still emit a Release
                                    // for each monitor closed here.
                                    unwound.entry(key).or_default().push(m);
                                }
                                if m == ev.monitor {
                                    break;
                                }
                            }
                        }
                    }
                    if !closed {
                        let expected = unwound
                            .get_mut(&key)
                            .map(|pend| {
                                let before = pend.len();
                                pend.retain(|&m| m != ev.monitor);
                                pend.len() < before
                            })
                            .unwrap_or(false);
                        if !expected {
                            // E with no B: the opening Acquire was dropped.
                            *repairs += 1;
                        }
                    }
                }
                _ => {
                    out.begin("\"name\":\"");
                    out.line.push_str(ev.kind.name());
                    out.line.push_str("\",\"cat\":\"monitor\",\"ph\":\"i\",\"s\":\"t\"");
                    out.lane(key, ev.ts);
                    out.line.push_str(",\"args\":{\"monitor\":");
                    push_monitor(&mut out.line, ev.monitor);
                    push_payload(&mut out.line, &ev.kind);
                    out.end("}}")?;
                }
            }
        }
        Ok(())
    }

    /// Balance anything still open (normal truncation, not counted as
    /// repairs), close the array, flush. Returns the repair count.
    pub fn finish(mut self) -> io::Result<u64> {
        // Sorted drains: HashMap order would make the trailer's span
        // order (and so the whole file) vary run to run.
        let mut blocked: Vec<_> = std::mem::take(&mut self.blocked).into_iter().collect();
        blocked.sort_unstable();
        for (key, monitor) in blocked {
            self.out.span("E", Span::Blocked, monitor, key, self.last_ts)?;
        }
        let mut held: Vec<_> = std::mem::take(&mut self.held).into_iter().collect();
        held.sort_unstable_by_key(|(key, _)| *key);
        for (key, stack) in held {
            for m in stack.into_iter().rev() {
                self.out.span("E", Span::Held, m, key, self.last_ts)?;
            }
        }
        writeln!(self.out.w, "\n]}}")?;
        self.out.w.flush()?;
        Ok(self.repairs)
    }
}

fn hist_json(name: &str, h: &crate::hist::Histogram) -> String {
    format!(
        "    \"{}\": {{\"count\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{},\
         \"min\":{},\"max\":{}}}",
        esc(name),
        h.count(),
        h.mean(),
        h.percentile(50.0),
        h.percentile(90.0),
        h.percentile(99.0),
        h.min(),
        h.max()
    )
}

/// Render counters and histogram percentiles as one JSON document (the
/// CLI's `--metrics-json` payload).
pub fn metrics_json(counters: &[(&str, u64)], hists: &Histograms, unit: TsUnit) -> String {
    metrics_json_with(counters, hists, unit, None)
}

/// [`metrics_json`] with an optional `"revocation_phases_ns"` section
/// from the slow-path [`PhaseTimers`](crate::PhaseTimers) (always in
/// wall nanoseconds regardless of `ts_unit` — see the
/// [`prof`](crate::prof) module docs).
pub fn metrics_json_with(
    counters: &[(&str, u64)],
    hists: &Histograms,
    unit: TsUnit,
    phases: Option<&crate::prof::PhaseTimers>,
) -> String {
    metrics_json_full(counters, hists, unit, phases, None)
}

/// JSON rendering of the pipeline self-telemetry (flat object, no
/// trailing newline): the `"obs_pipeline"` section of the metrics
/// document and the `serve` endpoint's building block.
pub fn pipeline_json(p: &PipelineStats) -> String {
    let drops = RunMeta::encode_drop_breakdown(&p.drops_by_producer).unwrap_or_default();
    let (sc_count, sc_p50, sc_p99, sc_max) = p.self_cost_ns;
    format!(
        "{{\"producers\":{},\"recorded\":{},\"dropped\":{},\"sampled_out\":{},\
         \"sample_n\":{},\"epochs\":{},\"last_batch\":{},\"max_batch\":{},\
         \"last_pass_ns\":{},\"backlog\":{},\"retained\":{},\"trimmed\":{},\
         \"record_self_cost_ns\":{{\"samples\":{},\"p50\":{},\"p99\":{},\"max\":{}}},\
         \"drops_by_producer\":\"{}\"}}",
        p.producers,
        p.recorded,
        p.dropped,
        p.sampled_out,
        p.sample_n,
        p.epochs,
        p.last_batch,
        p.max_batch,
        p.last_pass_ns,
        p.backlog,
        p.retained,
        p.trimmed,
        sc_count,
        sc_p50,
        sc_p99,
        sc_max,
        esc(&drops)
    )
}

/// [`metrics_json_with`] plus an optional `"obs_pipeline"` section from
/// [`EventSink::pipeline_stats`](crate::EventSink::pipeline_stats).
pub fn metrics_json_full(
    counters: &[(&str, u64)],
    hists: &Histograms,
    unit: TsUnit,
    phases: Option<&crate::prof::PhaseTimers>,
    pipeline: Option<&PipelineStats>,
) -> String {
    let mut out = String::from("{\n  \"counters\": {\n");
    for (i, (name, v)) in counters.iter().enumerate() {
        let comma = if i + 1 < counters.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\": {}{}\n", esc(name), v, comma));
    }
    out.push_str("  },\n");
    out.push_str(&format!("  \"ts_unit\": \"{}\",\n", unit.suffix()));
    if let Some(t) = phases {
        out.push_str(&format!("  \"revocation_phases_ns\": {},\n", t.json()));
    }
    if let Some(p) = pipeline {
        out.push_str(&format!("  \"obs_pipeline\": {},\n", pipeline_json(p)));
    }
    out.push_str("  \"histograms\": {\n");
    let mut rows = Vec::new();
    hists.for_each(|name, h| rows.push(hist_json(name, h)));
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// Human-readable pipeline self-telemetry table (the `--stats` block).
pub fn write_pipeline_table<W: Write>(w: &mut W, p: &PipelineStats) -> io::Result<()> {
    writeln!(
        w,
        "pipeline: {} producer(s), {} recorded, {} dropped, {} sampled out (1/{})",
        p.producers,
        p.recorded,
        p.dropped,
        p.sampled_out,
        p.sample_n.max(1)
    )?;
    writeln!(
        w,
        "collector: {} pass(es), last batch {} (max {}), last pass {} ns, backlog {}, \
         retained {} (trimmed {})",
        p.epochs, p.last_batch, p.max_batch, p.last_pass_ns, p.backlog, p.retained, p.trimmed
    )?;
    let (samples, p50, p99, max) = p.self_cost_ns;
    writeln!(
        w,
        "record() self-cost: {samples} sample(s), p50 {p50} ns, p99 {p99} ns, max {max} ns"
    )?;
    let lossy: Vec<String> = p
        .drops_by_producer
        .iter()
        .filter(|(_, d)| *d > 0)
        .map(|(id, d)| format!("producer {id}: {d}"))
        .collect();
    if !lossy.is_empty() {
        writeln!(w, "drops by producer: {}", lossy.join(", "))?;
    }
    Ok(())
}

/// Prometheus exposition of the pipeline gauges, matching the
/// `revmon_` namespace of the other exporters.
pub fn write_pipeline_prometheus<W: Write>(w: &mut W, p: &PipelineStats) -> io::Result<()> {
    let gauge = |name: &str, help: &str, v: u64| {
        format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n")
    };
    write!(
        w,
        "{}",
        gauge("revmon_obs_producers", "Producer threads with a registered event ring", p.producers)
    )?;
    write!(
        w,
        "{}",
        gauge("revmon_obs_recorded_total", "Events accepted into per-thread rings", p.recorded)
    )?;
    write!(
        w,
        "{}",
        gauge("revmon_obs_dropped_total", "Events dropped on ring overflow", p.dropped)
    )?;
    write!(
        w,
        "{}",
        gauge(
            "revmon_obs_sampled_out_total",
            "High-rate events thinned by sampling",
            p.sampled_out
        )
    )?;
    write!(w, "{}", gauge("revmon_obs_sample_n", "Sampling modulus (0 or 1 = off)", p.sample_n))?;
    write!(w, "{}", gauge("revmon_obs_collect_epochs_total", "Collection passes run", p.epochs))?;
    write!(
        w,
        "{}",
        gauge(
            "revmon_obs_collect_last_batch",
            "Events merged by the most recent pass",
            p.last_batch
        )
    )?;
    write!(
        w,
        "{}",
        gauge("revmon_obs_collect_max_batch", "Largest single-pass merged batch", p.max_batch)
    )?;
    write!(
        w,
        "{}",
        gauge(
            "revmon_obs_collect_last_pass_ns",
            "Duration of the most recent pass",
            p.last_pass_ns
        )
    )?;
    write!(
        w,
        "{}",
        gauge("revmon_obs_backlog", "Events waiting in rings, not yet collected", p.backlog)
    )?;
    write!(
        w,
        "{}",
        gauge("revmon_obs_retained", "Events in the bounded snapshot buffer", p.retained)
    )?;
    write!(
        w,
        "{}",
        gauge("revmon_obs_trimmed_total", "Events trimmed from the snapshot buffer", p.trimmed)
    )?;
    let (samples, p50, p99, max) = p.self_cost_ns;
    writeln!(w, "# HELP revmon_obs_record_self_cost_ns Sampled record() path cost")?;
    writeln!(w, "# TYPE revmon_obs_record_self_cost_ns summary")?;
    writeln!(w, "revmon_obs_record_self_cost_ns{{quantile=\"0.5\"}} {p50}")?;
    writeln!(w, "revmon_obs_record_self_cost_ns{{quantile=\"0.99\"}} {p99}")?;
    writeln!(w, "revmon_obs_record_self_cost_ns{{quantile=\"1.0\"}} {max}")?;
    writeln!(w, "revmon_obs_record_self_cost_ns_count {samples}")?;
    writeln!(w, "# HELP revmon_obs_dropped_by_producer Ring-overflow drops per producer thread")?;
    writeln!(w, "# TYPE revmon_obs_dropped_by_producer gauge")?;
    for (id, d) in &p.drops_by_producer {
        writeln!(w, "revmon_obs_dropped_by_producer{{producer=\"{id}\"}} {d}")?;
    }
    Ok(())
}

/// Write the human-readable summary table: per-histogram count, mean,
/// p50/p90/p99, max.
pub fn write_summary<W: Write>(
    w: &mut W,
    hists: &Histograms,
    unit: TsUnit,
    recorded: u64,
    dropped: u64,
) -> io::Result<()> {
    writeln!(w, "events: {recorded} recorded, {dropped} dropped (ring overflow)")?;
    writeln!(
        w,
        "{:<22} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10}  unit",
        "histogram", "count", "mean", "p50", "p90", "p99", "max"
    )?;
    let mut err = None;
    hists.for_each(|name, h| {
        if err.is_some() {
            return;
        }
        if let Err(e) = writeln!(
            w,
            "{:<22} {:>8} {:>12.1} {:>10} {:>10} {:>10} {:>10}  {}",
            name,
            h.count(),
            h.mean(),
            h.percentile(50.0),
            h.percentile(90.0),
            h.percentile(99.0),
            h.max(),
            unit.suffix()
        ) {
            err = Some(e);
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, thread: u64, monitor: u64, kind: EventKind) -> Event {
        Event { ts, thread, monitor, core: 0, kind }
    }

    fn inversion_scenario() -> Vec<Event> {
        vec![
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
            ev(30, 1, 7, EventKind::Rollback { entries: 4, duration: 6 }),
            ev(31, 2, 7, EventKind::Acquire),
            ev(40, 2, 7, EventKind::Commit),
            ev(40, 2, 7, EventKind::Release),
        ]
    }

    #[test]
    fn jsonl_emits_one_parsable_line_per_event() {
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &inversion_scenario()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines[0].starts_with("{\"ts\":10,\"thread\":1,\"monitor\":7,"));
        assert!(lines[2].contains("\"kind\":\"RevokeRequest\""));
        assert!(lines[2].contains("\"by\":2"));
        assert!(lines[3].contains("\"entries\":4,\"duration\":6"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line {line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn chrome_trace_balances_spans() {
        let mut buf = Vec::new();
        let repairs =
            write_chrome_trace(&mut buf, &inversion_scenario(), TsUnit::VirtualTicks).unwrap();
        assert_eq!(repairs, 0, "clean trace needed repairs");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        let b = text.matches("\"ph\":\"B\"").count();
        let e = text.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e, "unbalanced spans in {text}");
        assert!(text.contains("\"ph\":\"X\"")); // rollback
        assert!(text.contains("\"ph\":\"i\"")); // revoke-request instant
                                                // Thread 1's span is closed by the rollback, not a release.
        assert!(text.contains("monitor 7 held"));
    }

    #[test]
    fn chrome_trace_closes_dangling_spans_at_end() {
        let events = vec![ev(5, 1, 3, EventKind::Acquire), ev(9, 2, 3, EventKind::Block)];
        let mut buf = Vec::new();
        let repairs = write_chrome_trace(&mut buf, &events, TsUnit::WallNanos).unwrap();
        // EOF balancing is normal truncation, not damage.
        assert_eq!(repairs, 0);
        let text = String::from_utf8(buf).unwrap();
        let b = text.matches("\"ph\":\"B\"").count();
        let e = text.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 2);
        assert_eq!(b, e);
    }

    #[test]
    fn chrome_trace_repairs_mid_stream_tears() {
        // Ring overflow dropped events: thread 1's Acquire(3) vanished
        // between its Block(3) and Block(5) (orphan blocked-B), thread
        // 2's Acquire(5) vanished before its Release(5) (E with no B).
        let events = vec![
            ev(10, 1, 3, EventKind::Block),
            ev(20, 1, 5, EventKind::Block),
            ev(25, 1, 5, EventKind::Acquire),
            ev(30, 2, 5, EventKind::Release),
            ev(40, 1, 5, EventKind::Release),
        ];
        let mut buf = Vec::new();
        let repairs = write_chrome_trace(&mut buf, &events, TsUnit::VirtualTicks).unwrap();
        assert_eq!(repairs, 2, "expected one synthesized E and one skipped orphan");
        let text = String::from_utf8(buf).unwrap();
        let b = text.matches("\"ph\":\"B\"").count();
        let e = text.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e, "repaired trace still unbalanced: {text}");
    }

    #[test]
    fn jsonl_core_field_written_only_when_nonzero() {
        let events = vec![
            Event { ts: 1, thread: 1, monitor: 3, core: 0, kind: EventKind::Acquire },
            Event { ts: 2, thread: 2, monitor: 3, core: 2, kind: EventKind::Block },
        ];
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines[0].contains("core"), "core 0 must stay implicit: {}", lines[0]);
        assert_eq!(lines[1], "{\"ts\":2,\"thread\":2,\"monitor\":3,\"core\":2,\"kind\":\"Block\"}");
    }

    #[test]
    fn chrome_trace_tear_repair_respects_core_namespaces() {
        // Two cores reuse thread id 1 (per-core id namespaces). Core 0
        // releases *its* monitor while core 1 still holds another; the
        // single-namespace repair used to pop core 1's span as if it
        // were nested under core 0's, synthesizing a cross-core Release
        // and then miscounting core 1's real Release as an orphan.
        let mk = |ts, core, monitor, kind| Event { ts, thread: 1, monitor, core, kind };
        let events = vec![
            mk(10, 0, 3, EventKind::Acquire),
            mk(15, 1, 5, EventKind::Acquire),
            mk(20, 0, 3, EventKind::Release),
            mk(30, 1, 5, EventKind::Release),
        ];
        let mut buf = Vec::new();
        let repairs = write_chrome_trace(&mut buf, &events, TsUnit::VirtualTicks).unwrap();
        assert_eq!(repairs, 0, "per-core namespaces need no repairs here");
        let text = String::from_utf8(buf).unwrap();
        let b = text.matches("\"ph\":\"B\"").count();
        let e = text.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 2);
        assert_eq!(b, e, "each core's span closes exactly once: {text}");
        assert!(text.contains("\"pid\":1"), "core 0 keeps the legacy pid 1");
        assert!(text.contains("\"pid\":2"), "core 1 renders as its own process lane");
        // Core 1's span must close at its own Release's timestamp (30),
        // not at core 0's Release (20).
        let close_5 = text
            .lines()
            .find(|l| l.contains("monitor 5 held") && l.contains("\"ph\":\"E\""))
            .expect("core 1 span closes");
        assert!(close_5.contains("\"ts\":30.000"), "cross-core synthesized close: {close_5}");
    }

    #[test]
    fn chrome_trace_rollback_unwind_releases_are_not_orphans() {
        // The VM emits Rollback first, then a Release per unwound
        // monitor; those Releases must not count as repairs.
        let events = vec![
            ev(10, 1, 3, EventKind::Acquire),
            ev(12, 1, 5, EventKind::Acquire),
            ev(20, 1, 3, EventKind::Rollback { entries: 2, duration: 4 }),
            ev(21, 1, 5, EventKind::Release),
            ev(22, 1, 3, EventKind::Release),
        ];
        let mut buf = Vec::new();
        let repairs = write_chrome_trace(&mut buf, &events, TsUnit::VirtualTicks).unwrap();
        assert_eq!(repairs, 0, "unwind releases misread as orphans");
        let text = String::from_utf8(buf).unwrap();
        let b = text.matches("\"ph\":\"B\"").count();
        let e = text.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e);
    }

    #[test]
    fn trace_jsonl_has_meta_header_and_names() {
        let mut names = std::collections::BTreeMap::new();
        names.insert(7u64, "queue".to_string());
        let mut buf = Vec::new();
        write_trace_jsonl(&mut buf, &inversion_scenario(), TsUnit::VirtualTicks, &names).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 7);
        assert_eq!(lines[0], "{\"meta\":\"trace\",\"ts_unit\":\"ticks\",\"version\":1}");
        assert_eq!(lines[1], "{\"meta\":\"monitor_name\",\"monitor\":7,\"name\":\"queue\"}");
        assert!(lines[2].starts_with("{\"ts\":10,"));
    }

    #[test]
    fn run_meta_header_carries_context_and_empty_meta_is_identity() {
        let names = std::collections::BTreeMap::new();
        let meta = RunMeta {
            recorded: Some(120),
            dropped: Some(8),
            governor: Some((3, 500, 2000)),
            scheduler: Some("priority".into()),
            ..RunMeta::default()
        };
        let mut buf = Vec::new();
        write_trace_jsonl_with(&mut buf, &[], TsUnit::WallNanos, &names, &meta).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text.lines().next().unwrap(),
            "{\"meta\":\"trace\",\"ts_unit\":\"ns\",\"version\":1,\"recorded\":120,\
             \"dropped\":8,\"governor_k\":3,\"governor_backoff\":500,\"governor_decay\":2000,\
             \"scheduler\":\"priority\"}"
        );

        // Empty meta must keep the legacy header byte-identical.
        let mut legacy = Vec::new();
        write_trace_jsonl(&mut legacy, &inversion_scenario(), TsUnit::VirtualTicks, &names)
            .unwrap();
        let mut with = Vec::new();
        write_trace_jsonl_with(
            &mut with,
            &inversion_scenario(),
            TsUnit::VirtualTicks,
            &names,
            &RunMeta::default(),
        )
        .unwrap();
        assert_eq!(legacy, with);
        assert!(RunMeta::default().is_empty());
        assert!(!meta.is_empty());
    }

    #[test]
    fn metrics_json_with_embeds_phase_timers() {
        let hists = Histograms::default();
        let timers = crate::prof::PhaseTimers::new();
        timers.record(crate::prof::Phase::UndoWalk, 1500);
        let json = metrics_json_with(&[("acquires", 1)], &hists, TsUnit::WallNanos, Some(&timers));
        assert!(json.contains("\"revocation_phases_ns\""));
        assert!(json.contains("\"undo-walk\": {\"count\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // And the phase-less form stays phase-free.
        assert!(!metrics_json(&[], &hists, TsUnit::WallNanos).contains("revocation_phases_ns"));
    }

    #[test]
    fn trace_stream_matches_batch_writer_modulo_trailer() {
        // Streaming the same events in two batches produces the batch
        // writer's output plus the trailing name table + trace_end.
        let mut names = std::collections::BTreeMap::new();
        names.insert(7u64, "queue".to_string());
        let events = inversion_scenario();

        let mut streamed = Vec::new();
        let mut s =
            TraceStream::new(&mut streamed, TsUnit::VirtualTicks, &RunMeta::default()).unwrap();
        s.write_batch(&events[..3]).unwrap();
        s.write_batch(&events[3..]).unwrap();
        let end = RunMeta { recorded: Some(7), dropped: Some(0), ..RunMeta::default() };
        let n = s.finish(&names, &end).unwrap();
        assert_eq!(n, 7);

        let text = String::from_utf8(streamed).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"meta\":\"trace\",\"ts_unit\":\"ticks\",\"version\":1}");
        assert_eq!(lines.len(), 1 + 7 + 1 + 1); // header, events, names, end
        assert_eq!(lines[8], "{\"meta\":\"monitor_name\",\"monitor\":7,\"name\":\"queue\"}");
        assert_eq!(lines[9], "{\"meta\":\"trace_end\",\"version\":1,\"recorded\":7,\"dropped\":0}");
        // Event lines are byte-identical to the one-shot writer's.
        let mut oneshot = Vec::new();
        write_events_jsonl(&mut oneshot, &events).unwrap();
        assert_eq!(lines[1..8].join("\n") + "\n", String::from_utf8(oneshot).unwrap());
    }

    #[test]
    fn chrome_stream_batches_match_one_shot_output() {
        let events = inversion_scenario();
        let mut oneshot = Vec::new();
        let r1 = write_chrome_trace(&mut oneshot, &events, TsUnit::VirtualTicks).unwrap();

        let mut streamed = Vec::new();
        let mut s = ChromeStream::new(&mut streamed, TsUnit::VirtualTicks).unwrap();
        for chunk in events.chunks(2) {
            s.write_batch(chunk).unwrap();
        }
        let r2 = s.finish().unwrap();
        assert_eq!(r1, r2);
        assert_eq!(oneshot, streamed, "batch boundaries changed the trace");
    }

    #[test]
    fn chrome_stream_matches_one_shot_output_when_batches_split_open_spans() {
        // Nested held spans, a blocked span, a rollback that unwinds the
        // inner section, a tear, and spans left open for the trailer:
        // every batch size from 1 up cuts inside some open span.
        let mut events = inversion_scenario();
        events.extend([
            ev(50, 3, 8, EventKind::Acquire),
            ev(52, 3, 9, EventKind::Acquire),
            ev(53, 4, 8, EventKind::Block),
            ev(60, 3, 8, EventKind::Rollback { entries: 2, duration: 70 }),
            ev(61, 3, 9, EventKind::Release),
            ev(62, 3, 8, EventKind::Release),
            ev(63, 4, 9, EventKind::Block),
            ev(64, 4, 9, EventKind::Acquire),
            ev(65, 5, 9, EventKind::Release),
            ev(66, 6, Event::NO_MONITOR, EventKind::DeadlockDetected { cycle_len: 2 }),
        ]);
        for unit in [TsUnit::VirtualTicks, TsUnit::WallNanos] {
            let mut oneshot = Vec::new();
            let repairs = write_chrome_trace(&mut oneshot, &events, unit).unwrap();
            assert_eq!(repairs, 2, "one synthesized close, one orphan release");
            for size in 1..events.len() {
                let mut streamed = Vec::new();
                let mut s = ChromeStream::new(&mut streamed, unit).unwrap();
                for chunk in events.chunks(size) {
                    s.write_batch(chunk).unwrap();
                }
                assert_eq!(s.finish().unwrap(), repairs);
                assert_eq!(oneshot, streamed, "batches of {size} changed the trace");
            }
        }
    }

    #[test]
    fn chrome_instant_without_a_monitor_writes_null() {
        let events = [
            ev(5, 1, Event::NO_MONITOR, EventKind::DeadlockDetected { cycle_len: 2 }),
            ev(6, 1, 3, EventKind::DeadlockBroken),
        ];
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &events, TsUnit::VirtualTicks).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"args\":{\"monitor\":null,\"cycle_len\":2}"), "{text}");
        assert!(text.contains("\"args\":{\"monitor\":3}"), "{text}");
        assert!(!text.contains(&u64::MAX.to_string()), "NO_MONITOR leaked as a number: {text}");
    }

    /// `push_micros` as a string.
    fn micros(unit: TsUnit, since: u64, ts: u64) -> String {
        let mut out = String::new();
        push_micros(&mut out, unit, since, ts);
        out
    }

    const UNITS: [TsUnit; 2] = [TsUnit::VirtualTicks, TsUnit::WallNanos];

    #[test]
    fn timestamp_text_is_exact_at_the_edges() {
        for unit in UNITS {
            for ts in [0, 1, 999, 1000, 1001, (1 << 41) - 1, 1 << 41, 1 << 53, u64::MAX] {
                assert_eq!(micros(unit, 0, ts), format!("{:.3}", unit.to_micros(ts)), "{unit:?}");
            }
        }
        assert_eq!(micros(TsUnit::WallNanos, 0, 1_002_003), "1002.003");
        assert_eq!(micros(TsUnit::WallNanos, 0, 7), "0.007");
        assert_eq!(micros(TsUnit::VirtualTicks, 0, 7), "7.000");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// The integer timestamp text is what the float formatter
        /// printed, on both sides of the 2^41 fork.
        #[test]
        fn timestamp_text_matches_the_float_formatter(
            raw in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
        ) {
            for ts in [raw >> 23, raw >> shift] {
                for unit in UNITS {
                    assert_eq!(micros(unit, 0, ts), format!("{:.3}", unit.to_micros(ts)));
                }
            }
        }

        /// A rollback's `dur` is the text of the float subtraction the
        /// exporter used to do, `duration > ts` included.
        #[test]
        fn rollback_dur_text_matches_the_float_subtraction(
            raw in proptest::prelude::any::<u64>(),
            ts_shift in 0u32..64,
            duration in proptest::prelude::any::<u64>(),
            dur_shift in 0u32..64,
        ) {
            let (ts, duration) = (raw >> ts_shift, duration >> dur_shift);
            let start = ts.saturating_sub(duration);
            for unit in UNITS {
                let want = format!("{:.3}", unit.to_micros(ts) - unit.to_micros(start));
                assert_eq!(micros(unit, start, ts), want, "{unit:?} ts {ts} duration {duration}");
            }
        }
    }

    #[test]
    fn run_meta_pipeline_fields_render_and_merge() {
        let meta = RunMeta {
            sampled: Some(15),
            sample_n: Some(4),
            drops_by_producer: RunMeta::encode_drop_breakdown(&[(0, 3), (2, 1)]),
            ..RunMeta::default()
        };
        let mut buf = Vec::new();
        write_trace_jsonl_with(
            &mut buf,
            &[],
            TsUnit::WallNanos,
            &std::collections::BTreeMap::new(),
            &meta,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"sampled\":15"));
        assert!(text.contains("\"sample_n\":4"));
        assert!(text.contains("\"drops_by_producer\":\"0:3,2:1\""));
        assert_eq!(meta.drop_breakdown(), vec![(0, 3), (2, 1)]);
        assert_eq!(RunMeta::encode_drop_breakdown(&[]), None);

        // trace_end merge: counters override, header-only context survives.
        let mut header = RunMeta { scheduler: Some("demo".into()), ..RunMeta::default() };
        header.merge_from(RunMeta { recorded: Some(10), dropped: Some(2), ..RunMeta::default() });
        assert_eq!(header.scheduler.as_deref(), Some("demo"));
        assert_eq!(header.recorded, Some(10));
        assert_eq!(header.dropped, Some(2));
    }

    #[test]
    fn pipeline_renderers_cover_every_gauge() {
        let p = PipelineStats {
            producers: 2,
            recorded: 100,
            dropped: 4,
            sampled_out: 20,
            sample_n: 4,
            drops_by_producer: vec![(0, 4), (1, 0)],
            epochs: 9,
            last_batch: 12,
            max_batch: 40,
            last_pass_ns: 1500,
            backlog: 3,
            retained: 50,
            trimmed: 7,
            self_cost_ns: (10, 30, 90, 200),
        };
        let json = pipeline_json(&p);
        for key in [
            "\"producers\":2",
            "\"dropped\":4",
            "\"sampled_out\":20",
            "\"backlog\":3",
            "\"trimmed\":7",
            "\"record_self_cost_ns\"",
            "\"drops_by_producer\":\"0:4,1:0\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let mut table = Vec::new();
        write_pipeline_table(&mut table, &p).unwrap();
        let table = String::from_utf8(table).unwrap();
        assert!(table.contains("2 producer(s)"));
        assert!(table.contains("drops by producer: producer 0: 4"));
        assert!(!table.contains("producer 1"), "zero-drop producers stay out of the callout");

        let mut prom = Vec::new();
        write_pipeline_prometheus(&mut prom, &p).unwrap();
        let prom = String::from_utf8(prom).unwrap();
        for metric in [
            "revmon_obs_producers 2",
            "revmon_obs_dropped_total 4",
            "revmon_obs_backlog 3",
            "revmon_obs_collect_epochs_total 9",
            "revmon_obs_record_self_cost_ns{quantile=\"0.99\"} 90",
            "revmon_obs_dropped_by_producer{producer=\"0\"} 4",
        ] {
            assert!(prom.contains(metric), "missing {metric} in {prom}");
        }

        let full = metrics_json_full(
            &[("acquires", 1)],
            &Histograms::default(),
            TsUnit::WallNanos,
            None,
            Some(&p),
        );
        assert!(full.contains("\"obs_pipeline\""));
        assert_eq!(full.matches('{').count(), full.matches('}').count());
    }

    #[test]
    fn metrics_json_contains_counters_and_percentiles() {
        let hists = Histograms::default();
        hists.entry_blocking.record(10);
        hists.rollback_duration.record(6);
        let json = metrics_json(&[("acquires", 3), ("rollbacks", 1)], &hists, TsUnit::VirtualTicks);
        assert!(json.contains("\"acquires\": 3"));
        assert!(json.contains("\"rollbacks\": 1"));
        assert!(json.contains("\"entry_blocking\""));
        assert!(json.contains("\"rollback_duration\""));
        assert!(json.contains("\"p50\""));
        assert!(json.contains("\"p99\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn summary_lists_all_histograms() {
        let hists = Histograms::default();
        hists.section_length.record(100);
        let mut buf = Vec::new();
        write_summary(&mut buf, &hists, TsUnit::WallNanos, 12, 0).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for name in
            ["entry_blocking", "section_length", "rollback_duration", "inversion_resolution"]
        {
            assert!(text.contains(name), "missing {name} in {text}");
        }
        assert!(text.contains("12 recorded"));
    }
}
