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
//! Lines are tokenised by the shared [`crate::json::Reader`] (flat
//! objects, numeric/string/null values only); which kind carries which
//! fields comes from the event schema in `event.rs`.
//!
//! The importer works a line at a time ([`TraceImport::line`]), so a
//! trace never has to be in memory: [`TraceImport::read`] pulls lines
//! from any [`BufRead`] and hands each surviving event on, and
//! [`import_trace_jsonl`] is the wrapper that keeps them all.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, BufRead};

use crate::event::{Event, EventKind};
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
        if line.trim().is_empty() {
            return None;
        }
        let mut obj: Obj<'_> = std::mem::take(&mut self.scratch);
        let parsed = read_flat_object(line, &mut obj).ok().and_then(|()| classify(&obj));
        self.scratch = recycle(obj);
        match parsed {
            None => self.warnings.malformed_lines += 1,
            Some(Line::Event(ev)) if ev.ts < self.last_ts => {
                self.warnings.out_of_order += 1;
                // The parsed-but-skipped event still tells us *which*
                // episodes lost data: remember the pair so analysis
                // can classify them as truncated, not unresolved.
                self.damaged.insert((ev.thread, ev.monitor));
            }
            Some(Line::Event(ev)) => {
                self.last_ts = ev.ts;
                return Some(ev);
            }
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
            match std::str::from_utf8(&buf) {
                Ok(line) => {
                    if let Some(ev) = self.line(line) {
                        on_event(&ev);
                    }
                }
                Err(_) => self.warnings.malformed_lines += 1,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_flat_object(line: &str) -> Option<Obj<'_>> {
        let mut obj = Obj::new();
        read_flat_object(line, &mut obj).ok().map(|()| obj)
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
