//! The two per-event writers against a reference model.
//!
//! [`reference_jsonl`] and [`ReferenceChrome`] are the JSONL and Chrome
//! writers as they were before the exporters wrote into byte chunks:
//! each line or element built in its own `String`, integers and
//! microseconds through the formatter. `write_events_jsonl`,
//! `TraceStream` and `ChromeStream` must write exactly their bytes, and
//! the Chrome writer their repair count, on arbitrary streams long
//! enough to span several chunks, fed in one batch and in random splits.
//! Two test writers check the chunking itself: [`Recorder`] keeps the
//! end of every `write` call, which must fall on a line or element
//! boundary, with at most one call per [`CHUNK`] bytes plus one per call
//! or batch; [`Failing`] refuses to take more than k bytes, and both
//! writers must hand its error back.

use proptest::prelude::*;
use revmon_obs::{ChromeStream, Event, EventKind, RunMeta, TraceStream, TsUnit};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{self, Write};

/// The exporters' chunk: a writer sees at most one call per this many
/// bytes, plus one per call or batch.
const CHUNK: usize = 64 * 1024;

/// Where the exporter switches from integer to float microsecond text.
const EXACT_MICROS_BELOW: u64 = 1 << 41;

/// `(JSON field, value)` pairs of a kind's payload in wire order; the
/// one nullable field (`DelegateSubmit`'s `holder`) is `None` at
/// `NO_THREAD`.
fn payload(kind: &EventKind) -> Vec<(&'static str, Option<u64>)> {
    match *kind {
        EventKind::RevokeRequest { by }
        | EventKind::InversionUnresolved { by }
        | EventKind::GovernorThrottle { by }
        | EventKind::IpiPosted { by } => vec![("by", Some(by))],
        EventKind::Rollback { entries, duration } => {
            vec![("entries", Some(entries)), ("duration", Some(duration))]
        }
        EventKind::DeadlockDetected { cycle_len } => vec![("cycle_len", Some(cycle_len))],
        EventKind::DelegateSubmit { holder, token } => {
            vec![("holder", (holder != Event::NO_THREAD).then_some(holder)), ("token", Some(token))]
        }
        EventKind::DelegateExecute { submitter, token }
        | EventKind::DelegateComplete { submitter, token } => {
            vec![("submitter", Some(submitter)), ("token", Some(token))]
        }
        EventKind::IpiAck { by, stale } => vec![("by", Some(by)), ("stale", Some(stale as u64))],
        EventKind::Acquire
        | EventKind::Block
        | EventKind::Commit
        | EventKind::Release
        | EventKind::NonRevocable
        | EventKind::DeadlockBroken
        | EventKind::PolicyFallback => vec![],
    }
}

fn push_payload(out: &mut String, kind: &EventKind) {
    for (field, value) in payload(kind) {
        match value {
            Some(v) => write!(out, ",\"{field}\":{v}").unwrap(),
            None => write!(out, ",\"{field}\":null").unwrap(),
        }
    }
}

fn push_monitor(out: &mut String, monitor: u64) {
    match monitor {
        Event::NO_MONITOR => out.push_str("null"),
        m => write!(out, "{m}").unwrap(),
    }
}

/// The JSONL writer: one line per event, built whole.
fn reference_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    let mut line = String::new();
    for ev in events {
        line.clear();
        write!(line, "{{\"ts\":{},\"thread\":{},\"monitor\":", ev.ts, ev.thread).unwrap();
        push_monitor(&mut line, ev.monitor);
        if ev.core != 0 {
            write!(line, ",\"core\":{}", ev.core).unwrap();
        }
        write!(line, ",\"kind\":\"{}\"", ev.kind.name()).unwrap();
        push_payload(&mut line, &ev.kind);
        line.push_str("}\n");
        out.push_str(&line);
    }
    out
}

/// The microsecond text of the interval from `since` to `ts`, as the
/// float formatter prints it (a virtual tick draws as one microsecond).
fn micros(unit: TsUnit, since: u64, ts: u64) -> String {
    let us = |t: u64| match unit {
        TsUnit::VirtualTicks => t as f64,
        TsUnit::WallNanos => t as f64 / 1000.0,
    };
    format!("{:.3}", us(ts) - us(since))
}

#[derive(Clone, Copy)]
enum Span {
    Blocked,
    Held,
}

/// The Chrome writer: the tear-repair state machine, each element built
/// in its own line.
struct ReferenceChrome {
    unit: TsUnit,
    out: String,
    line: String,
    first: bool,
    held: HashMap<(u32, u64), Vec<u64>>,
    blocked: HashMap<(u32, u64), u64>,
    unwound: HashMap<(u32, u64), Vec<u64>>,
    repairs: u64,
    last_ts: u64,
}

impl ReferenceChrome {
    fn new(unit: TsUnit) -> Self {
        ReferenceChrome {
            unit,
            out: "{\"traceEvents\":[".to_string(),
            line: String::new(),
            first: true,
            held: HashMap::new(),
            blocked: HashMap::new(),
            unwound: HashMap::new(),
            repairs: 0,
            last_ts: 0,
        }
    }

    /// The whole trace of `events` and its repair count.
    fn run(events: &[Event], unit: TsUnit) -> (String, u64) {
        let mut c = ReferenceChrome::new(unit);
        events.iter().for_each(|ev| c.observe(ev));
        c.finish()
    }

    fn begin(&mut self, head: &str) {
        self.line.clear();
        self.line.push_str(if std::mem::replace(&mut self.first, false) { "\n{" } else { ",\n{" });
        self.line.push_str(head);
    }

    fn lane(&mut self, (core, thread): (u32, u64), ts: u64) {
        let ts = micros(self.unit, 0, ts);
        write!(self.line, ",\"pid\":{},\"tid\":{thread},\"ts\":{ts}", core as u64 + 1).unwrap();
    }

    fn end(&mut self, tail: &str) {
        self.line.push_str(tail);
        self.out.push_str(&self.line);
    }

    fn span(&mut self, ph: &str, span: Span, monitor: u64, key: (u32, u64), ts: u64) {
        match span {
            Span::Blocked => self.begin(&format!(
                "\"name\":\"blocked: monitor {monitor}\",\"cat\":\"blocking\",\"ph\":\"{ph}\""
            )),
            Span::Held => self.begin(&format!(
                "\"name\":\"monitor {monitor} held\",\"cat\":\"monitor\",\"ph\":\"{ph}\""
            )),
        }
        self.lane(key, ts);
        self.end("}");
    }

    fn observe(&mut self, ev: &Event) {
        self.last_ts = self.last_ts.max(ev.ts);
        let key = (ev.core, ev.thread);
        match ev.kind {
            EventKind::Block => match self.blocked.get(&key) {
                Some(&m) if m != ev.monitor => {
                    self.span("E", Span::Blocked, m, key, ev.ts);
                    self.repairs += 1;
                    self.blocked.insert(key, ev.monitor);
                    self.span("B", Span::Blocked, ev.monitor, key, ev.ts);
                }
                Some(_) => {}
                None => {
                    self.blocked.insert(key, ev.monitor);
                    self.span("B", Span::Blocked, ev.monitor, key, ev.ts);
                }
            },
            EventKind::Acquire => {
                if let Some(m) = self.blocked.remove(&key) {
                    self.span("E", Span::Blocked, m, key, ev.ts);
                    if m != ev.monitor {
                        self.repairs += 1;
                    }
                }
                if !self.held.entry(key).or_default().contains(&ev.monitor) {
                    self.held.get_mut(&key).unwrap().push(ev.monitor);
                    self.span("B", Span::Held, ev.monitor, key, ev.ts);
                }
                if let Some(pend) = self.unwound.get_mut(&key) {
                    pend.retain(|&m| m != ev.monitor);
                }
            }
            EventKind::Release | EventKind::Rollback { .. } => {
                let rollback = matches!(ev.kind, EventKind::Rollback { .. });
                if let EventKind::Rollback { entries, duration } = ev.kind {
                    let start = ev.ts.saturating_sub(duration);
                    self.begin("\"name\":\"rollback\",\"cat\":\"revocation\",\"ph\":\"X\"");
                    self.lane(key, start);
                    let dur = micros(self.unit, start, ev.ts);
                    write!(self.line, ",\"dur\":{dur},\"args\":{{\"entries\":{entries}").unwrap();
                    self.end("}}");
                }
                let open = self.held.get(&key).is_some_and(|s| s.contains(&ev.monitor));
                if open {
                    while let Some(m) = self.held.get_mut(&key).unwrap().pop() {
                        self.span("E", Span::Held, m, key, ev.ts);
                        if rollback {
                            self.unwound.entry(key).or_default().push(m);
                        }
                        if m == ev.monitor {
                            break;
                        }
                    }
                } else {
                    let expected = self.unwound.get_mut(&key).is_some_and(|pend| {
                        let before = pend.len();
                        pend.retain(|&m| m != ev.monitor);
                        pend.len() < before
                    });
                    if !expected {
                        self.repairs += 1;
                    }
                }
            }
            _ => {
                self.begin(&format!(
                    "\"name\":\"{}\",\"cat\":\"monitor\",\"ph\":\"i\",\"s\":\"t\"",
                    ev.kind.name()
                ));
                self.lane(key, ev.ts);
                self.line.push_str(",\"args\":{\"monitor\":");
                push_monitor(&mut self.line, ev.monitor);
                push_payload(&mut self.line, &ev.kind);
                self.end("}}");
            }
        }
    }

    fn finish(mut self) -> (String, u64) {
        let mut blocked: Vec<_> = std::mem::take(&mut self.blocked).into_iter().collect();
        blocked.sort_unstable();
        for (key, monitor) in blocked {
            self.span("E", Span::Blocked, monitor, key, self.last_ts);
        }
        let mut held: Vec<_> = std::mem::take(&mut self.held).into_iter().collect();
        held.sort_unstable_by_key(|(key, _)| *key);
        for (key, stack) in held {
            for m in stack.into_iter().rev() {
                self.span("E", Span::Held, m, key, self.last_ts);
            }
        }
        self.out.push_str("\n]}\n");
        (self.out, self.repairs)
    }
}

/// A writer that keeps what it is given and where each `write` call
/// ended.
#[derive(Default)]
struct Recorder {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        self.ends.push(self.bytes.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A writer that takes `left` more bytes, then fails.
struct Failing {
    left: usize,
}

impl Write for Failing {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other("disk full"));
        }
        let n = buf.len().min(self.left);
        self.left -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The `write` calls of `rec` that end inside `region` of its bytes
/// (header and trailer lines excluded): each must end on a boundary,
/// and there may be at most one per [`CHUNK`] bytes of the region plus
/// `calls`.
fn check_calls(
    rec: &Recorder,
    region: std::ops::Range<usize>,
    boundary: impl Fn(usize) -> bool,
    calls: usize,
) {
    let ends: Vec<usize> =
        rec.ends.iter().copied().filter(|e| region.start < *e && *e <= region.end).collect();
    for &end in &ends {
        assert!(boundary(end), "a write ended mid-element at byte {end}");
    }
    let allowed = region.len() / CHUNK + calls;
    assert!(
        ends.len() <= allowed,
        "{} writes for {} bytes in {calls} calls",
        ends.len(),
        region.len()
    );
}

/// `events` cut at the positions `cuts` name (taken modulo its length).
fn split<'a>(events: &'a [Event], cuts: &[u32]) -> Vec<&'a [Event]> {
    let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (events.len() + 1)).collect();
    at.push(events.len());
    at.sort_unstable();
    let mut pieces = Vec::new();
    let mut from = 0;
    for to in at {
        pieces.push(&events[from..to]);
        from = to;
    }
    pieces
}

/// The JSONL writers against the reference, in one batch and in the
/// pieces `cuts` makes; `k` bytes into the output, a failing writer.
fn check_jsonl(events: &[Event], cuts: &[u32], k: usize) {
    let want = reference_jsonl(events);
    assert!(want.len() >= 3 * CHUNK, "a stream of {} bytes spans too few chunks", want.len());

    let mut rec = Recorder::default();
    revmon_obs::write_events_jsonl(&mut rec, events).unwrap();
    assert!(rec.bytes == want.as_bytes(), "one batch differs from the reference");
    let newline = |end: usize| rec.bytes[end - 1] == b'\n';
    check_calls(&rec, 0..rec.bytes.len(), newline, 1);

    // Each batch is written out before `write_batch` returns: some
    // write ends where the reference's lines of the batches so far end.
    let pieces = split(events, cuts);
    let mut rec = Recorder::default();
    let mut stream = TraceStream::new(&mut rec, TsUnit::VirtualTicks, &RunMeta::default()).unwrap();
    let mut marks = Vec::new();
    let mut done = 0;
    for piece in &pieces {
        stream.write_batch(piece).unwrap();
        done += piece.len();
        marks.push(reference_jsonl(&events[..done]).len());
    }
    assert_eq!(stream.finish(&BTreeMap::new(), &RunMeta::default()).unwrap(), events.len() as u64);
    let text = std::str::from_utf8(&rec.bytes).unwrap();
    let header = text.find('\n').unwrap() + 1;
    let body = header..header + want.len();
    assert!(text[body.clone()] == want, "batches of {} pieces differ", pieces.len());
    for mark in marks {
        assert!(rec.ends.contains(&(header + mark)), "a batch ending at {mark} was held back");
    }
    let newline = |end: usize| rec.bytes[end - 1] == b'\n';
    check_calls(&rec, body, newline, pieces.len());

    let err = revmon_obs::write_events_jsonl(&mut Failing { left: k }, events).unwrap_err();
    assert_eq!(err.to_string(), "disk full");
}

/// The Chrome writers against the reference under `unit`, in one batch
/// and in the pieces `cuts` makes; `k` bytes into the output, a failing
/// writer.
fn check_chrome(events: &[Event], unit: TsUnit, cuts: &[u32], k: usize) {
    let (want, repairs) = ReferenceChrome::run(events, unit);
    assert!(want.len() >= 3 * CHUNK, "a trace of {} bytes spans too few chunks", want.len());
    // An element begins with `\n{` or `,\n{`; the array opener ends
    // before the first, the trailer `\n]}\n` after the last.
    let boundary = |bytes: &[u8], end: usize| {
        end == bytes.len()
            || bytes[end..].starts_with(b",\n")
            || (bytes[end] == b'\n' && bytes[end - 1] != b',')
    };

    let mut rec = Recorder::default();
    assert_eq!(revmon_obs::write_chrome_trace(&mut rec, events, unit).unwrap(), repairs);
    assert!(rec.bytes == want.as_bytes(), "one batch differs from the reference ({unit:?})");
    check_calls(&rec, 0..rec.bytes.len(), |end| boundary(&rec.bytes, end), 3);

    // Each batch is written out before `write_batch` returns: some
    // write ends where the reference's elements of the batches so far
    // end (the opener's own write, if there are none yet).
    let pieces = split(events, cuts);
    let mut rec = Recorder::default();
    let mut stream = ChromeStream::new(&mut rec, unit).unwrap();
    let mut reference = ReferenceChrome::new(unit);
    let mut marks = Vec::new();
    for piece in &pieces {
        stream.write_batch(piece).unwrap();
        piece.iter().for_each(|ev| reference.observe(ev));
        marks.push(reference.out.len());
    }
    assert_eq!(stream.finish().unwrap(), repairs);
    assert!(rec.bytes == want.as_bytes(), "batches of {} pieces differ ({unit:?})", pieces.len());
    for mark in marks {
        assert!(rec.ends.contains(&mark), "a batch ending at {mark} was held back ({unit:?})");
    }
    check_calls(&rec, 0..rec.bytes.len(), |end| boundary(&rec.bytes, end), pieces.len() + 2);

    let err = revmon_obs::write_chrome_trace(&mut Failing { left: k }, events, unit).unwrap_err();
    assert_eq!(err.to_string(), "disk full");
}

/// One event of any kind; `special` makes a `DelegateSubmit` holder
/// `NO_THREAD` and a `Rollback` longer than its own timestamp.
fn kind(tag: u32, a: u64, b: u64, ts: u64, special: bool) -> EventKind {
    match tag % 17 {
        0 => EventKind::Acquire,
        1 => EventKind::Block,
        2 => EventKind::Release,
        3 => EventKind::Rollback {
            entries: a,
            duration: if special { ts.saturating_add(1 + b % 1_000) } else { b },
        },
        4 => EventKind::RevokeRequest { by: a },
        5 => EventKind::Commit,
        6 => EventKind::NonRevocable,
        7 => EventKind::DeadlockDetected { cycle_len: a },
        8 => EventKind::DeadlockBroken,
        9 => EventKind::InversionUnresolved { by: a },
        10 => EventKind::GovernorThrottle { by: a },
        11 => EventKind::PolicyFallback,
        12 => EventKind::DelegateSubmit {
            holder: if special { Event::NO_THREAD } else { a },
            token: b,
        },
        13 => EventKind::DelegateExecute { submitter: a, token: b },
        14 => EventKind::DelegateComplete { submitter: a, token: b },
        15 => EventKind::IpiPosted { by: a },
        _ => EventKind::IpiAck { by: a, stale: b % 2 == 1 },
    }
}

/// A stream of 3 500–4 500 events over four threads, three cores, four
/// monitors and none. Timestamps come from three regions: small,
/// around [`EXACT_MICROS_BELOW`], and just under `u64::MAX`. Kinds lean
/// to the span kinds, so spans nest, re-enter, unwind and tear (a
/// `Release` or `Block` with no matching `Acquire`) as they come.
fn stream() -> impl Strategy<Value = Vec<Event>> {
    let event = (
        (0u32..3, 0u32..5_000),
        0u32..4,
        0u32..5,
        0u32..3,
        prop_oneof![5 => 0u32..4, 1 => 0u32..17],
        (any::<u64>(), 0u32..64, 0u32..8),
    )
        .prop_map(|((region, off), thread, pick, core, tag, (raw, shift, special))| {
            let off = u64::from(off);
            let ts = match region {
                0 => 1_000 + off,
                1 => EXACT_MICROS_BELOW - 2_500 + off,
                _ => u64::MAX - off,
            };
            let monitor = if pick == 4 { Event::NO_MONITOR } else { pick.into() };
            let a = if special == 1 { u64::from(thread) } else { raw >> shift };
            Event {
                ts,
                thread: thread.into(),
                monitor,
                core,
                kind: kind(tag, a, raw.rotate_left(shift), ts, special == 0),
            }
        });
    proptest::collection::vec(event, 3_500..4_500)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exporters_write_the_reference_bytes_in_chunks(
        events in stream(),
        cuts in proptest::collection::vec(any::<u32>(), 0..12),
        fail_at in any::<u32>(),
    ) {
        let k = fail_at as usize % (3 * CHUNK);
        check_jsonl(&events, &cuts, k);
        for unit in [TsUnit::VirtualTicks, TsUnit::WallNanos] {
            check_chrome(&events, unit, &cuts, k);
        }
    }
}

/// The generator reaches every kind and the edges the property names;
/// a failing writer is refused at its very first byte too.
#[test]
fn streams_cover_every_kind_and_edge() {
    let mut runner = proptest::test_runner::TestRunner::new(
        &ProptestConfig::default(),
        "streams_cover_every_kind_and_edge",
    );
    let events = stream().generate(runner.rng());
    let names: std::collections::BTreeSet<&str> = events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(names.len(), 17, "kinds drawn: {names:?}");
    let has = |f: &dyn Fn(&Event) -> bool| events.iter().any(f);
    assert!(has(&|e| e.monitor == Event::NO_MONITOR));
    assert!(has(&|e| e.core != 0));
    assert!(has(&|e| e.ts < EXACT_MICROS_BELOW && e.ts > EXACT_MICROS_BELOW - 3_000));
    assert!(has(&|e| e.ts >= EXACT_MICROS_BELOW && e.ts < EXACT_MICROS_BELOW + 3_000));
    assert!(has(&|e| e.ts > u64::MAX - 5_000));
    assert!(has(&|e| matches!(e.kind, EventKind::DelegateSubmit { holder: Event::NO_THREAD, .. })));
    assert!(has(&|e| matches!(e.kind, EventKind::Rollback { duration, .. } if duration > e.ts)));
    for unit in [TsUnit::VirtualTicks, TsUnit::WallNanos] {
        assert!(ReferenceChrome::run(&events, unit).1 > 0, "no torn span to repair");
        check_chrome(&events, unit, &[], 0);
    }
    check_jsonl(&events, &[], 0);
}
