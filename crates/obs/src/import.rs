//! JSONL trace importer — the inverse of [`crate::export::write_trace_jsonl`].
//!
//! Traces come back from disk, from other machines, or from pipelines
//! that truncated or interleaved them, so the parser is deliberately
//! *lossy-stream tolerant*: a malformed line, an unknown event kind, or
//! a timestamp that runs backwards is skipped and **counted**, never a
//! panic and never a hard error. A clean export re-imports losslessly;
//! a damaged one imports whatever survives plus an honest damage report.
//!
//! The importer understands two line shapes:
//!
//! * **meta lines** — `{"meta":"trace","ts_unit":"ticks","version":1}`
//!   (stream header) and `{"meta":"monitor_name","monitor":3,"name":"queue"}`
//!   (monitor-naming table entries);
//! * **event lines** — the flat objects [`crate::write_events_jsonl`]
//!   emits, one [`Event`] each.
//!
//! A line goes through up to two stages. The **canonical decoder**
//! ([`canonical`]) recognises an event line spelled exactly the way
//! [`crate::write_events_jsonl`] spells it — the envelope literals of
//! `event.rs` in their order, the kind's schema payload in wire order,
//! no whitespace, no escapes, nothing after the `}` but the line ending
//! — and decodes it straight from the bytes: that is every event line
//! of every trace this crate wrote, at a quarter of the general
//! reader's cost. It is a recogniser, not a judge: on *any* deviation it returns
//! `None` and counts nothing. The **general reader** then tokenises the
//! line with the shared [`crate::json::Reader`] (flat objects,
//! numeric/string/null values only) and classifies it; it alone accepts
//! meta lines and hand-edited or foreign spellings, and it alone decides
//! what kind of damage a bad line is. Which kind carries which fields
//! comes from the event schema in `event.rs` in both. The timestamp
//! order check sits behind the two, so it does not matter which stage
//! read a line.
//!
//! The importer works a line at a time ([`TraceImport::line`]), so a
//! trace never has to be in memory: [`TraceImport::read`] pulls lines
//! from any [`BufRead`] and hands each surviving event on, and
//! [`import_trace_jsonl`] is the wrapper that keeps them all.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, BufRead};

use crate::event::{envelope, Event, EventKind, SCHEMA};
use crate::export::RunMeta;
use crate::json::{self, Reader, Value};
use crate::sink::TsUnit;

/// Damage counters accumulated while importing a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImportWarnings {
    /// Lines that were not parsable flat JSON objects or were missing
    /// required fields (includes truncated trailing lines).
    pub malformed_lines: u64,
    /// Event lines whose `kind` this version does not know.
    pub unknown_kinds: u64,
    /// Event lines whose timestamp ran backwards relative to the last
    /// accepted event (ring-buffer shear or interleaved writers).
    pub out_of_order: u64,
}

impl ImportWarnings {
    /// Total skipped lines.
    pub fn total(&self) -> u64 {
        self.malformed_lines + self.unknown_kinds + self.out_of_order
    }
}

/// A parsed trace: the surviving events in order, the monitor-name
/// table, the declared clock domain, and the damage report.
#[derive(Debug, Default)]
pub struct TraceImport {
    /// Events that parsed cleanly, in stream order. Filled by
    /// [`import_trace_jsonl`]; the line-at-a-time methods hand events to
    /// their caller instead.
    pub events: Vec<Event>,
    /// Monitor id → human name, from `monitor_name` meta lines.
    pub names: BTreeMap<u64, String>,
    /// Clock domain from the stream header, if one was present.
    pub ts_unit: Option<TsUnit>,
    /// Run context from the stream header (drop accounting, governor
    /// config, scheduler). All fields `None` for traces written before
    /// the header carried them.
    pub run_meta: RunMeta,
    /// What was skipped.
    pub warnings: ImportWarnings,
    /// `(thread, monitor)` pairs whose events landed on skipped
    /// (torn/out-of-order) lines. Episodes touching these pairs cannot
    /// be classified honestly — their Acquire/Release may be among the
    /// drops — so analysis reclassifies them as *truncated* rather than
    /// letting them bias the `unresolved` count.
    pub damaged: std::collections::BTreeSet<(u64, u64)>,
    /// Timestamp of the last accepted event.
    last_ts: u64,
    /// The emptied field list of the previous line, kept for its
    /// allocation.
    scratch: Obj<'static>,
}

impl TraceImport {
    /// The clock domain, defaulting to virtual ticks for headerless
    /// streams (the deterministic-VM format predates the header).
    pub fn unit(&self) -> TsUnit {
        self.ts_unit.unwrap_or(TsUnit::VirtualTicks)
    }
}

/// What is left of a line the canonical decoder is stepping through.
struct Canon<'a>(&'a [u8]);

impl Canon<'_> {
    /// Step over `lit` if it comes next.
    fn lit(&mut self, lit: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(lit.as_bytes())?;
        Some(())
    }

    /// A run of one or more digits as a `u64`; `None` if it does not
    /// fit.
    fn num(&mut self) -> Option<u64> {
        let mut n = 0u64;
        let mut len = 0;
        while let Some(digit) = self.0.get(len).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
            n = n.checked_mul(10)?.checked_add(digit as u64)?;
            len += 1;
        }
        self.0 = &self.0[len..];
        (len > 0).then_some(n)
    }

    /// A number, or `null` standing for `sentinel`.
    fn num_or_null(&mut self, sentinel: u64) -> Option<u64> {
        match self.lit("null") {
            Some(()) => Some(sentinel),
            None => self.num(),
        }
    }
}

/// Decode an event line spelled exactly as [`crate::write_events_jsonl`]
/// spells it (module docs), line ending included or not. `None` for
/// anything else — whitespace, another key order, a duplicate, unknown
/// or escaped key, a number that does not fit its field, an unknown
/// kind, a payload that is not the schema's, bytes after the object —
/// with nothing counted: the general reader gives such a line its
/// verdict. Whatever this returns, the general reader would have
/// returned too (`canonical_agrees_with_the_general_path`).
fn canonical(line: &[u8]) -> Option<Event> {
    let mut c = Canon(line);
    c.lit(envelope::TS)?;
    let ts = c.num()?;
    c.lit(envelope::THREAD)?;
    let thread = c.num()?;
    c.lit(envelope::MONITOR)?;
    let monitor = c.num_or_null(Event::NO_MONITOR)?;
    let core = match c.lit(envelope::CORE) {
        // The general reader clamps a core past `u32`; leave it to it.
        Some(()) => u32::try_from(c.num()?).ok()?,
        None => 0,
    };
    c.lit(envelope::KIND)?;
    let name = &c.0[..c.0.iter().position(|&b| b == b'"')?];
    let tag = SCHEMA.iter().position(|row| row.0.as_bytes() == name)?;
    c.0 = &c.0[name.len() + 1..];
    let (_, fields, nullable) = SCHEMA[tag];
    let mut words = [0u64; 2];
    for (i, (word, field)) in words.iter_mut().zip(fields).enumerate() {
        c.lit(",\"")?;
        c.lit(field)?;
        c.lit("\":")?;
        *word = if nullable == Some(i) { c.num_or_null(Event::NO_THREAD)? } else { c.num()? };
    }
    c.lit("}")?;
    if !matches!(c.0, b"" | b"\n" | b"\r\n") {
        return None;
    }
    let kind = EventKind::decode(tag as u64, words[0], words[1])?;
    Some(Event { ts, thread, monitor, core, kind })
}

/// One line's `key: value` pairs, in the order written.
type Obj<'a> = Vec<(Cow<'a, str>, Value<'a>)>;

/// Read one `{"key":value,...}` line of flat JSON (numbers, strings,
/// `null`) into `out`. Any syntax error, including truncation and
/// trailing junk, is an `Err`.
fn read_flat_object<'a>(line: &'a str, out: &mut Obj<'a>) -> Result<(), json::Error> {
    let mut r = Reader::new(line);
    r.begin(b'{')?;
    while r.more(b'}')? {
        out.push((r.key()?, r.value()?));
    }
    r.end()
}

fn field<'a>(obj: &'a [(Cow<'_, str>, Value<'a>)], key: &str) -> Option<&'a Value<'a>> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// What one parsed line meant.
enum Line {
    Event(Event),
    TraceMeta(Option<TsUnit>, RunMeta),
    NameMeta(u64, String),
    UnknownMeta,
    UnknownKind,
}

/// Parse the [`RunMeta`] fields shared by `trace` headers and trailing
/// `trace_end` lines.
fn parse_run_meta(obj: &Obj<'_>) -> RunMeta {
    let num = |key: &str| field(obj, key).and_then(Value::as_num);
    RunMeta {
        recorded: num("recorded"),
        dropped: num("dropped"),
        governor: match (num("governor_k"), num("governor_backoff"), num("governor_decay")) {
            (Some(k), Some(b), Some(d)) => Some((k.min(u32::MAX as u64) as u32, b, d)),
            _ => None,
        },
        scheduler: field(obj, "scheduler").and_then(Value::as_str).map(str::to_string),
        sampled: num("sampled"),
        sample_n: num("sample_n"),
        drops_by_producer: field(obj, "drops_by_producer")
            .and_then(Value::as_str)
            .map(str::to_string),
    }
}

fn classify(obj: &Obj<'_>) -> Option<Line> {
    if let Some(meta) = field(obj, "meta") {
        return Some(match meta.as_str()? {
            "trace" => Line::TraceMeta(
                match field(obj, "ts_unit").and_then(Value::as_str) {
                    Some("ticks") => Some(TsUnit::VirtualTicks),
                    Some("ns") => Some(TsUnit::WallNanos),
                    _ => None,
                },
                parse_run_meta(obj),
            ),
            // A streamed trace's trailing line: final counters for the
            // run, merged over the header's initial context.
            "trace_end" => Line::TraceMeta(None, parse_run_meta(obj)),
            "monitor_name" => Line::NameMeta(
                field(obj, "monitor")?.as_num()?,
                field(obj, "name")?.as_str()?.to_string(),
            ),
            // Future meta kinds pass through harmlessly.
            _ => Line::UnknownMeta,
        });
    }
    let ts = field(obj, "ts")?.as_num()?;
    let thread = field(obj, "thread")?.as_num()?;
    let monitor = match field(obj, "monitor")? {
        Value::Null => Event::NO_MONITOR,
        v => v.as_num()?,
    };
    let Some(kind) = EventKind::from_wire(field(obj, "kind")?.as_str()?, |f| field(obj, f)) else {
        return Some(Line::UnknownKind);
    };
    let kind = kind?;
    // `core` is absent in single-core traces (exporters omit core 0).
    let core = field(obj, "core").and_then(Value::as_num).unwrap_or(0).min(u32::MAX as u64) as u32;
    Some(Line::Event(Event { ts, thread, monitor, core, kind }))
}

/// Re-type an emptied field list so that it can outlive the line it
/// borrowed from. Nothing is left to convert, and `Vec` collects a
/// mapped `into_iter` of same-sized items in place, so this hands back
/// the same allocation.
fn recycle(mut obj: Obj<'_>) -> Obj<'static> {
    obj.clear();
    obj.into_iter().map(|_| unreachable!("cleared above")).collect()
}

impl TraceImport {
    /// Import one line. Meta lines update the name table, clock domain
    /// and run context; damage is skipped and counted; blank lines are
    /// nothing. An event line that survives is returned, not stored.
    pub fn line(&mut self, line: &str) -> Option<Event> {
        match canonical(line.as_bytes()) {
            Some(ev) => self.in_order(ev),
            None => self.general(line),
        }
    }

    /// The second stage: any line the canonical decoder declined.
    fn general(&mut self, line: &str) -> Option<Event> {
        if line.trim().is_empty() {
            return None;
        }
        let mut obj: Obj<'_> = std::mem::take(&mut self.scratch);
        let parsed = read_flat_object(line, &mut obj).ok().and_then(|()| classify(&obj));
        self.scratch = recycle(obj);
        match parsed {
            None => self.warnings.malformed_lines += 1,
            Some(Line::Event(ev)) => return self.in_order(ev),
            Some(Line::TraceMeta(unit, meta)) => {
                self.ts_unit = unit.or(self.ts_unit);
                // Field-wise: a trailing `trace_end` overrides the
                // counters it carries without erasing header-only
                // context (scheduler, governor), and vice versa.
                self.run_meta.merge_from(meta);
            }
            Some(Line::NameMeta(monitor, name)) => {
                self.names.insert(monitor, name);
            }
            Some(Line::UnknownMeta) => {}
            Some(Line::UnknownKind) => self.warnings.unknown_kinds += 1,
        }
        None
    }

    /// An event either stage read: accepted unless its timestamp runs
    /// backwards.
    fn in_order(&mut self, ev: Event) -> Option<Event> {
        if ev.ts < self.last_ts {
            self.warnings.out_of_order += 1;
            // The parsed-but-skipped event still tells us *which*
            // episodes lost data: remember the pair so analysis
            // can classify them as truncated, not unresolved.
            self.damaged.insert((ev.thread, ev.monitor));
            return None;
        }
        self.last_ts = ev.ts;
        Some(ev)
    }

    /// Import every line `r` yields, handing each surviving event to
    /// `on_event` in stream order. A line that is not UTF-8 (a torn
    /// multi-byte name, binary garbage) is one more malformed line; only
    /// an I/O error stops the read.
    pub fn read(
        &mut self,
        mut r: impl BufRead,
        mut on_event: impl FnMut(&Event),
    ) -> io::Result<()> {
        let mut buf = Vec::new();
        while r.read_until(b'\n', &mut buf)? > 0 {
            // A canonical line is ASCII by construction, so the decoder
            // takes the raw bytes and only the rest pay for a UTF-8 pass.
            let ev = match canonical(&buf) {
                Some(ev) => self.in_order(ev),
                None => match std::str::from_utf8(&buf) {
                    Ok(line) => self.general(line),
                    Err(_) => {
                        self.warnings.malformed_lines += 1;
                        None
                    }
                },
            };
            if let Some(ev) = ev {
                on_event(&ev);
            }
            buf.clear();
        }
        Ok(())
    }
}

/// Import a JSONL trace from text, keeping every surviving event. Never
/// fails: damage is skipped and counted in [`TraceImport::warnings`].
pub fn import_trace_jsonl(text: &str) -> TraceImport {
    let mut imp = TraceImport::default();
    for line in text.lines() {
        if let Some(ev) = imp.line(line) {
            imp.events.push(ev);
        }
    }
    imp
}

/// The import pin's corpus of re-spellings (`tests/import_pin.rs`),
/// included by path: the pin sees only what the importer returns, the
/// tests below also which stage returned it.
#[cfg(test)]
#[path = "../tests/spellings/mod.rs"]
mod spellings;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NKINDS;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::OnceLock;

    fn parse_flat_object(line: &str) -> Option<Obj<'_>> {
        let mut obj = Obj::new();
        read_flat_object(line, &mut obj).ok().map(|()| obj)
    }

    /// Every kind — from `decode` over the schema's tag range, so a new
    /// variant is covered without touching this — with ordinary and
    /// all-ones payloads, on cores 0, 3 and `u32::MAX`, with and
    /// without a monitor, at rising timestamps; and the line
    /// `write_events_jsonl` writes for each.
    fn exported() -> (Vec<Event>, Vec<String>) {
        let mut events = Vec::new();
        for (a, b) in [(3, 1), (u64::MAX, u64::MAX)] {
            for tag in 0..NKINDS as u64 {
                let kind = EventKind::decode(tag, a, b).expect("a schema row without a kind");
                for core in [0, 3, u32::MAX] {
                    for monitor in [7, Event::NO_MONITOR] {
                        let n = events.len() as u64;
                        events.push(Event { ts: 10 + n, thread: 1 + n % 2, monitor, core, kind });
                    }
                }
            }
        }
        let mut buf = Vec::new();
        crate::write_events_jsonl(&mut buf, &events).expect("write to memory");
        let text = String::from_utf8(buf).expect("the exporter writes UTF-8");
        (events, text.lines().map(str::to_string).collect())
    }

    /// If the canonical decoder takes `line`, the general reader alone
    /// must read exactly the same event from it. Returns whether it did.
    fn agrees(line: &[u8]) -> bool {
        let Some(ev) = canonical(line) else {
            return false;
        };
        let text = std::str::from_utf8(line).expect("a canonical line is ASCII");
        let general = parse_flat_object(text).and_then(|obj| classify(&obj));
        assert!(
            matches!(general, Some(Line::Event(g)) if g == ev),
            "{text:?}: the canonical decoder read {ev:?}, the general reader did not"
        );
        true
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        // Not a test of its own: `canonical_agrees_with_the_general_path`
        // calls it. Built like `roundtrip.rs`'s mutated-valid-lines
        // test: overwrite, insert or delete one to three bytes of an
        // exported line, drawing mostly from JSON's own alphabet.
        fn canonical_agrees_on_mutated_lines(
            line in 0usize..4096,
            edits in proptest::collection::vec((0usize..4096, proptest::prelude::any::<u8>()), 1..4),
        ) {
            const ALPHABET: &[u8] = b"{}[]\",:\\u0n9e-. \t\x00\xc3\xa9\xf0";
            let lines = MUTATED_LINES.get_or_init(|| exported().1);
            let mut bytes = lines[line % lines.len()].clone().into_bytes();
            for (at, raw) in edits {
                let at = at % bytes.len().max(1);
                let byte = ALPHABET[raw as usize % ALPHABET.len()];
                match raw / 85 {
                    0 if !bytes.is_empty() => bytes[at] = byte,
                    1 => bytes.insert(at.min(bytes.len()), byte),
                    _ if !bytes.is_empty() => drop(bytes.remove(at)),
                    _ => {}
                }
            }
            MUTATED_TAKEN.fetch_add(agrees(&bytes) as u32, Ordering::Relaxed);
        }
    }

    /// The lines `canonical_agrees_on_mutated_lines` mutates, and how
    /// many of its cases the canonical decoder took.
    static MUTATED_LINES: OnceLock<Vec<String>> = OnceLock::new();
    static MUTATED_TAKEN: AtomicU32 = AtomicU32::new(0);

    #[test]
    fn canonical_agrees_with_the_general_path() {
        let (_, lines) = exported();
        let mut took = 0;
        for (_, respell) in spellings::RESPELLINGS {
            for line in lines.iter().flat_map(|line| respell(line)) {
                for ending in ["", "\n", "\r\n"] {
                    took += agrees(format!("{line}{ending}").as_bytes()) as u32;
                }
            }
        }
        for (_, text) in spellings::lone(&lines[0]) {
            took += agrees(text.as_bytes()) as u32;
        }
        for line in spellings::STREAM.split_inclusive('\n') {
            took += agrees(line.as_bytes()) as u32;
        }
        // Not vacuous: the decoder took every exported line and some
        // re-spellings (an explicit `"core":0`, leading zeros, …).
        assert!(took > 3 * lines.len() as u32, "only {took} corpus lines took the fast path");

        canonical_agrees_on_mutated_lines();
        let took = MUTATED_TAKEN.load(Ordering::Relaxed);
        // Most edits break the spelling, which is the point — near
        // misses are what the decoder must decline or read the same —
        // but some must survive for the comparison to have happened.
        assert!(took >= 25, "only {took} of 2000 mutated lines took the fast path");
    }

    #[test]
    fn every_exported_line_is_canonical() {
        // With the line ending `TraceImport::read` leaves on, too: a
        // decoder that wanted the `}` to be the last byte would hand
        // every streamed line to the general reader, and only a
        // stopwatch would notice.
        let (events, lines) = exported();
        for (ev, line) in events.iter().zip(&lines) {
            for ending in ["", "\n", "\r\n"] {
                assert_eq!(canonical(format!("{line}{ending}").as_bytes()), Some(*ev), "{line}");
            }
        }
    }

    #[test]
    fn meta_blank_and_non_utf8_lines_take_the_general_path() {
        let names = BTreeMap::from([(7u64, "queue".to_string())]);
        let meta =
            RunMeta { recorded: Some(2), scheduler: Some("priority".into()), ..RunMeta::default() };
        let mut buf = Vec::new();
        crate::write_trace_jsonl_with(&mut buf, &[], TsUnit::WallNanos, &names, &meta)
            .expect("write to memory");
        let header = String::from_utf8(buf).expect("the exporter writes UTF-8");
        assert_eq!(header.lines().count(), 2, "a trace header and one name:\n{header}");
        let trace_end = "{\"meta\":\"trace_end\",\"version\":1,\"dropped\":0}";
        for line in header.lines().chain(["", " ", "\t", "\u{a0}", "{}", trace_end]) {
            for ending in ["", "\n", "\r\n"] {
                assert_eq!(canonical(format!("{line}{ending}").as_bytes()), None, "{line:?}");
            }
        }

        // Through `read`: the meta lines land, the blank line is
        // nothing, the line that is not UTF-8 is one malformed line, and
        // the events around them arrive in order.
        let (events, lines) = exported();
        let mut bytes = header.into_bytes();
        bytes.extend_from_slice(format!("{}\n \r\n", lines[0]).as_bytes());
        bytes.extend_from_slice(b"{\"name\":\"\xff\xfe\n");
        bytes.extend_from_slice(format!("{}\r\n{trace_end}", lines[1]).as_bytes());
        let mut imp = TraceImport::default();
        let mut seen = Vec::new();
        imp.read(&bytes[..], |ev| seen.push(*ev)).expect("reading from memory");
        assert_eq!(seen, events[..2]);
        assert_eq!(imp.warnings, ImportWarnings { malformed_lines: 1, ..Default::default() });
        assert_eq!(imp.ts_unit, Some(TsUnit::WallNanos));
        assert_eq!(imp.names, names);
        assert_eq!(imp.run_meta, RunMeta { dropped: Some(0), ..meta });
    }

    #[test]
    fn flat_parser_handles_the_trace_vocabulary() {
        let obj = parse_flat_object(
            r#"{"ts":10,"thread":1,"monitor":null,"kind":"Rollback","entries":4,"duration":6}"#,
        )
        .expect("parses");
        assert_eq!(field(&obj, "ts"), Some(&Value::Num(10)));
        assert_eq!(field(&obj, "monitor"), Some(&Value::Null));
        assert_eq!(field(&obj, "kind"), Some(&Value::Str("Rollback".into())));
    }

    #[test]
    fn flat_parser_rejects_truncation_and_trailing_junk() {
        assert!(parse_flat_object(r#"{"ts":10,"thread""#).is_none());
        assert!(parse_flat_object(r#"{"ts":10} extra"#).is_none());
        assert!(parse_flat_object("").is_none());
        assert!(parse_flat_object("not json at all").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let obj = parse_flat_object(r#"{"name":"a\"b\\c\nA"}"#).expect("parses");
        assert_eq!(field(&obj, "name"), Some(&Value::Str("a\"b\\c\nA".into())));
    }

    #[test]
    fn import_reads_events_meta_and_names() {
        let text = concat!(
            "{\"meta\":\"trace\",\"ts_unit\":\"ticks\",\"version\":1}\n",
            "{\"meta\":\"monitor_name\",\"monitor\":7,\"name\":\"queue\"}\n",
            "{\"ts\":10,\"thread\":1,\"monitor\":7,\"kind\":\"Acquire\"}\n",
            "{\"ts\":22,\"thread\":1,\"monitor\":7,\"kind\":\"RevokeRequest\",\"by\":2}\n",
        );
        let imp = import_trace_jsonl(text);
        assert_eq!(imp.events.len(), 2);
        assert_eq!(imp.ts_unit, Some(TsUnit::VirtualTicks));
        assert_eq!(imp.names.get(&7).map(String::as_str), Some("queue"));
        assert_eq!(imp.events[1].kind, EventKind::RevokeRequest { by: 2 });
        assert_eq!(imp.warnings.total(), 0);
    }

    #[test]
    fn run_meta_round_trips_through_the_header() {
        let text = concat!(
            "{\"meta\":\"trace\",\"ts_unit\":\"ns\",\"version\":1,\"recorded\":120,",
            "\"dropped\":8,\"governor_k\":3,\"governor_backoff\":500,\"governor_decay\":2000,",
            "\"scheduler\":\"priority\"}\n",
            "{\"ts\":10,\"thread\":1,\"monitor\":3,\"kind\":\"Acquire\"}\n",
        );
        let imp = import_trace_jsonl(text);
        assert_eq!(imp.ts_unit, Some(TsUnit::WallNanos));
        assert_eq!(imp.run_meta.recorded, Some(120));
        assert_eq!(imp.run_meta.dropped, Some(8));
        assert_eq!(imp.run_meta.governor, Some((3, 500, 2000)));
        assert_eq!(imp.run_meta.scheduler.as_deref(), Some("priority"));
        assert_eq!(imp.events.len(), 1);
        assert_eq!(imp.warnings.total(), 0);

        // Headers without the extras leave the meta empty (legacy traces).
        let imp = import_trace_jsonl("{\"meta\":\"trace\",\"ts_unit\":\"ticks\",\"version\":1}\n");
        assert!(imp.run_meta.is_empty());
        // A partial governor triple is not a governor config.
        let imp = import_trace_jsonl(
            "{\"meta\":\"trace\",\"ts_unit\":\"ticks\",\"version\":1,\"governor_k\":3}\n",
        );
        assert_eq!(imp.run_meta.governor, None);
    }

    #[test]
    fn trace_end_merges_final_counters_over_header_context() {
        // A streamed trace: header knows the scheduler, the trailing
        // trace_end knows the final counters; names arrive at the end.
        let text = concat!(
            "{\"meta\":\"trace\",\"ts_unit\":\"ns\",\"version\":1,\"scheduler\":\"demo\"}\n",
            "{\"ts\":10,\"thread\":1,\"monitor\":7,\"kind\":\"Acquire\"}\n",
            "{\"ts\":20,\"thread\":1,\"monitor\":7,\"kind\":\"Release\"}\n",
            "{\"meta\":\"monitor_name\",\"monitor\":7,\"name\":\"queue\"}\n",
            "{\"meta\":\"trace_end\",\"version\":1,\"recorded\":2,\"dropped\":1,",
            "\"sampled\":15,\"sample_n\":4,\"drops_by_producer\":\"0:1\"}\n",
        );
        let imp = import_trace_jsonl(text);
        assert_eq!(imp.events.len(), 2);
        assert_eq!(imp.warnings.total(), 0);
        assert_eq!(imp.names.get(&7).map(String::as_str), Some("queue"));
        // Merged meta: header context + trailing counters.
        assert_eq!(imp.run_meta.scheduler.as_deref(), Some("demo"));
        assert_eq!(imp.run_meta.recorded, Some(2));
        assert_eq!(imp.run_meta.dropped, Some(1));
        assert_eq!(imp.run_meta.sampled, Some(15));
        assert_eq!(imp.run_meta.sample_n, Some(4));
        assert_eq!(imp.run_meta.drop_breakdown(), vec![(0, 1)]);
    }

    #[test]
    fn damage_is_counted_not_fatal() {
        let text = concat!(
            "{\"ts\":10,\"thread\":1,\"monitor\":3,\"kind\":\"Acquire\"}\n",
            "{\"ts\":12,\"thread\":1,\"moni", // truncated
            "\n",
            "{\"ts\":14,\"thread\":1,\"monitor\":3,\"kind\":\"Teleport\"}\n", // unknown kind
            "{\"ts\":5,\"thread\":2,\"monitor\":3,\"kind\":\"Block\"}\n",     // backwards
            "{\"ts\":20,\"thread\":1,\"monitor\":3,\"kind\":\"Release\"}\n",
        );
        let imp = import_trace_jsonl(text);
        assert_eq!(imp.events.len(), 2);
        assert_eq!(imp.warnings.malformed_lines, 1);
        assert_eq!(imp.warnings.unknown_kinds, 1);
        assert_eq!(imp.warnings.out_of_order, 1);
        assert_eq!(imp.warnings.total(), 3);
        // The out-of-order Block was parsed before being skipped, so its
        // (thread, monitor) pair is flagged as damaged; purely malformed
        // lines carry no identity and cannot be.
        assert_eq!(imp.damaged.iter().copied().collect::<Vec<_>>(), vec![(2, 3)]);
    }

    #[test]
    fn clean_import_reports_no_damaged_pairs() {
        let text = concat!(
            "{\"ts\":10,\"thread\":1,\"monitor\":3,\"kind\":\"Acquire\"}\n",
            "{\"ts\":20,\"thread\":1,\"monitor\":3,\"kind\":\"Release\"}\n",
        );
        let imp = import_trace_jsonl(text);
        assert!(imp.damaged.is_empty());
        assert_eq!(imp.warnings.total(), 0);
    }

    #[test]
    fn governor_kinds_round_trip() {
        let text = concat!(
            "{\"ts\":10,\"thread\":1,\"monitor\":3,\"kind\":\"GovernorThrottle\",\"by\":2}\n",
            "{\"ts\":11,\"thread\":1,\"monitor\":3,\"kind\":\"PolicyFallback\"}\n",
        );
        let imp = import_trace_jsonl(text);
        assert_eq!(imp.events.len(), 2);
        assert_eq!(imp.events[0].kind, EventKind::GovernorThrottle { by: 2 });
        assert_eq!(imp.events[1].kind, EventKind::PolicyFallback);
        // Without its `by` payload a throttle line is malformed.
        let imp = import_trace_jsonl(
            "{\"ts\":1,\"thread\":1,\"monitor\":2,\"kind\":\"GovernorThrottle\"}\n",
        );
        assert_eq!(imp.warnings.malformed_lines, 1);
    }

    #[test]
    fn core_ids_and_ipi_kinds_round_trip() {
        let text = concat!(
            "{\"ts\":10,\"thread\":1,\"monitor\":3,\"kind\":\"Acquire\"}\n",
            "{\"ts\":12,\"thread\":2,\"monitor\":3,\"core\":1,\"kind\":\"IpiPosted\",\"by\":4}\n",
            "{\"ts\":14,\"thread\":2,\"monitor\":3,\"core\":1,\"kind\":\"IpiAck\",\"by\":4,",
            "\"stale\":0}\n",
        );
        let imp = import_trace_jsonl(text);
        assert_eq!(imp.events.len(), 3);
        assert_eq!(imp.events[0].core, 0, "absent core defaults to 0");
        assert_eq!(imp.events[1].core, 1);
        assert_eq!(imp.events[1].kind, EventKind::IpiPosted { by: 4 });
        assert_eq!(imp.events[2].kind, EventKind::IpiAck { by: 4, stale: false });
        assert_eq!(imp.warnings.total(), 0);
    }

    #[test]
    fn missing_required_fields_are_malformed() {
        let imp = import_trace_jsonl("{\"ts\":10,\"thread\":1,\"kind\":\"Acquire\"}\n");
        assert!(imp.events.is_empty());
        assert_eq!(imp.warnings.malformed_lines, 1);
        // RevokeRequest without its `by` payload is malformed too.
        let imp = import_trace_jsonl(
            "{\"ts\":1,\"thread\":1,\"monitor\":2,\"kind\":\"RevokeRequest\"}\n",
        );
        assert_eq!(imp.warnings.malformed_lines, 1);
    }
}
