//! Integration tests for the analyze layer: JSONL export → import
//! round-trips losslessly on clean traces, and damaged traces degrade
//! to counted warnings plus a usable analysis — never a panic.

use revmon_obs::{
    import_trace_jsonl, reconstruct_episodes, write_trace_jsonl, write_trace_jsonl_with, Analysis,
    Event, EventKind, EventSink, Resolution, RunMeta, TraceImport, TsUnit,
};
use std::collections::BTreeMap;
use std::io::BufReader;

fn ev(ts: u64, thread: u64, monitor: u64, kind: EventKind) -> Event {
    Event { ts, thread, monitor, core: 0, kind }
}

/// Every event-kind variant, exercising all payload shapes.
fn full_vocabulary_trace() -> Vec<Event> {
    vec![
        ev(10, 1, 7, EventKind::Acquire),
        ev(14, 3, 9, EventKind::Acquire),
        ev(16, 3, 9, EventKind::NonRevocable),
        ev(20, 2, 7, EventKind::Block),
        ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
        ev(24, 4, 9, EventKind::Block),
        ev(26, 9, 9, EventKind::InversionUnresolved { by: 4 }),
        ev(28, 5, Event::NO_MONITOR, EventKind::DeadlockDetected { cycle_len: 2 }),
        ev(28, 5, Event::NO_MONITOR, EventKind::DeadlockBroken),
        ev(30, 1, 7, EventKind::Rollback { entries: 4, duration: 6 }),
        ev(31, 2, 7, EventKind::Acquire),
        ev(40, 2, 7, EventKind::Commit),
        ev(40, 2, 7, EventKind::Release),
    ]
}

/// Import `text` all at once and again a line at a time, through a
/// reader whose buffer is shorter than any line; the two must agree on
/// everything. Returns the import.
fn import_both_ways(text: &str) -> TraceImport {
    let whole = import_trace_jsonl(text);
    let mut streamed = TraceImport::default();
    let mut events = Vec::new();
    streamed
        .read(BufReader::with_capacity(7, text.as_bytes()), |ev| events.push(*ev))
        .expect("reading from memory");
    assert_eq!(events, whole.events, "events of {text:?}");
    assert!(streamed.events.is_empty(), "the streaming form hands events on, it keeps none");
    assert_eq!(streamed.names, whole.names, "names of {text:?}");
    assert_eq!(streamed.ts_unit, whole.ts_unit, "unit of {text:?}");
    assert_eq!(streamed.run_meta, whole.run_meta, "run meta of {text:?}");
    assert_eq!(streamed.warnings, whole.warnings, "warnings of {text:?}");
    assert_eq!(streamed.damaged, whole.damaged, "damaged pairs of {text:?}");
    whole
}

#[test]
fn jsonl_round_trip_is_lossless_on_clean_traces() {
    let events = full_vocabulary_trace();
    let mut names = BTreeMap::new();
    names.insert(7u64, "queue".to_string());
    names.insert(9u64, "log \"quoted\"".to_string());

    let mut buf = Vec::new();
    write_trace_jsonl(&mut buf, &events, TsUnit::VirtualTicks, &names).unwrap();
    let text = String::from_utf8(buf).unwrap();

    let imp = import_trace_jsonl(&text);
    assert_eq!(imp.warnings.total(), 0, "clean export produced warnings: {:?}", imp.warnings);
    assert_eq!(imp.events, events, "events did not round-trip");
    assert_eq!(imp.names, names, "name table did not round-trip");
    assert_eq!(imp.ts_unit, Some(TsUnit::VirtualTicks));

    // Round-trip again: export of the import is byte-identical.
    let mut buf2 = Vec::new();
    write_trace_jsonl(&mut buf2, &imp.events, imp.unit(), &imp.names).unwrap();
    assert_eq!(text, String::from_utf8(buf2).unwrap());
}

#[test]
fn run_meta_survives_export_import_and_reexport() {
    let events = full_vocabulary_trace();
    let mut names = BTreeMap::new();
    names.insert(7u64, "queue".to_string());
    let meta = RunMeta {
        recorded: Some(events.len() as u64),
        dropped: Some(0),
        governor: Some((3, 500, 2000)),
        scheduler: Some("priority".into()),
        sampled: Some(0),
        sample_n: Some(4),
        drops_by_producer: RunMeta::encode_drop_breakdown(&[(0, 0), (1, 0)]),
    };

    let mut buf = Vec::new();
    write_trace_jsonl_with(&mut buf, &events, TsUnit::VirtualTicks, &names, &meta).unwrap();
    let text = String::from_utf8(buf).unwrap();

    let imp = import_trace_jsonl(&text);
    assert_eq!(imp.warnings.total(), 0, "meta header broke the importer: {:?}", imp.warnings);
    assert_eq!(imp.events, events);
    assert_eq!(imp.run_meta, meta, "run meta did not round-trip");

    // Re-export with the imported meta: byte-identical.
    let mut buf2 = Vec::new();
    write_trace_jsonl_with(&mut buf2, &imp.events, imp.unit(), &imp.names, &imp.run_meta).unwrap();
    assert_eq!(text, String::from_utf8(buf2).unwrap());
}

#[test]
fn ring_overflow_shows_up_in_the_trace_meta_header() {
    // A sink too small for its stream must not masquerade as a quiet
    // run: the export's meta header carries the drop counter.
    let sink = EventSink::with_capacity(TsUnit::WallNanos, 2);
    for i in 0..10u64 {
        sink.record(ev(i, 0, 1, EventKind::Acquire)); // one producer thread
    }
    // Drop-newest rings: 2 accepted, 8 refused — and the counters agree
    // with the per-producer breakdown.
    assert_eq!(sink.recorded(), 2);
    assert_eq!(sink.dropped(), 8);
    assert_eq!(sink.drop_breakdown(), vec![(0, 8)]);

    let events = sink.drain();
    assert_eq!(events.len(), 2);
    let meta = RunMeta {
        recorded: Some(sink.recorded()),
        dropped: Some(sink.dropped()),
        ..RunMeta::default()
    };
    let mut buf = Vec::new();
    write_trace_jsonl_with(&mut buf, &events, TsUnit::WallNanos, &BTreeMap::new(), &meta).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.lines().next().unwrap().contains("\"dropped\":8"), "header: {text}");

    let imp = import_trace_jsonl(&text);
    assert_eq!(imp.run_meta.dropped, Some(8), "drop counter lost on import");
    assert_eq!(imp.run_meta.recorded, Some(2));
    assert_eq!(imp.events.len(), 2);
}

#[test]
fn corrupt_fixture_degrades_to_counted_warnings() {
    // The fixture ends in a truncated line without a newline; CRLF line
    // endings and blank lines between the lines change nothing.
    let text = include_str!("fixtures/corrupt_trace.jsonl");
    let imp = import_both_ways(text);
    for respaced in [text.replace('\n', "\r\n"), text.replace('\n', "\n\n \t\r\n")] {
        let again = import_both_ways(&respaced);
        assert_eq!(again.events, imp.events);
        assert_eq!((again.warnings, &again.damaged), (imp.warnings, &imp.damaged));
    }

    // Damage census: one truncated line + one non-JSON line, one
    // unknown kind, one backwards timestamp. The unknown meta kind
    // (shard_map) passes through without a warning.
    assert_eq!(imp.warnings.malformed_lines, 2, "warnings: {:?}", imp.warnings);
    assert_eq!(imp.warnings.unknown_kinds, 1);
    assert_eq!(imp.warnings.out_of_order, 1);
    assert_eq!(imp.events.len(), 7);
    assert_eq!(imp.ts_unit, Some(TsUnit::VirtualTicks));
    assert_eq!(imp.names.get(&3).map(String::as_str), Some("queue"));
    assert_eq!(imp.damaged.iter().copied().collect::<Vec<_>>(), [(9, 3)]);

    // The surviving events still analyze into the expected episode.
    let episodes = reconstruct_episodes(&imp.events);
    assert_eq!(episodes.len(), 1);
    assert_eq!(episodes[0].resolution, Resolution::Revocation);
    assert_eq!(episodes[0].wasted_entries, 4);

    let a = Analysis::from_events(&imp.events);
    assert_eq!(a.revocation_episodes(), 1);
    assert_eq!(a.profiles[0].monitor, 3);
}

#[test]
fn import_never_panics_on_fuzzed_prefixes() {
    // Chop a clean export at every byte boundary: every prefix must
    // import without panicking, with at most one malformed-line count
    // (the torn final line) — whole or a line at a time, with either
    // line ending.
    let events = full_vocabulary_trace();
    let mut buf = Vec::new();
    write_trace_jsonl(&mut buf, &events, TsUnit::VirtualTicks, &BTreeMap::new()).unwrap();
    let text = String::from_utf8(buf).unwrap();
    for text in [text.replace('\n', "\r\n"), text] {
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            let imp = import_both_ways(&text[..cut]);
            assert!(
                imp.warnings.malformed_lines <= 1,
                "prefix of len {cut} produced {:?}",
                imp.warnings
            );
        }
    }
}

/// Drive the shared reader over `text` the way the importer does (a
/// flat object of scalars, plus integer arrays as `.schedule.json` has)
/// and return where it stopped.
fn walk(text: &str) -> Result<(), revmon_obs::json::Error> {
    let mut r = revmon_obs::json::Reader::new(text);
    r.begin(b'{')?;
    while r.more(b'}')? {
        r.key()?;
        if r.begin(b'[').is_ok() {
            while r.more(b']')? {
                r.num::<u32>()?;
            }
        } else {
            r.value()?;
        }
    }
    r.end()
}

/// The reader either accepts or stops at an in-bounds char boundary;
/// the importer turns the same text into events plus counted damage,
/// and the raw bytes — UTF-8 or not — into no more than that.
fn check_hostile(bytes: &[u8]) {
    let text = &*String::from_utf8_lossy(bytes);
    if let Err(e) = walk(text) {
        assert!(text.is_char_boundary(e.at), "error at {} inside a char of {text:?}", e.at);
    }
    let lines = text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
    let imp = import_both_ways(text);
    assert!(imp.events.len() as u64 + imp.warnings.total() <= lines, "{text:?}: {imp:?}");

    let (mut raw, mut events) = (TraceImport::default(), 0);
    raw.read(bytes, |_| events += 1).expect("reading from memory");
    assert!(events + raw.warnings.total() <= lines, "{bytes:?}: {events} events, {raw:?}");
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

    #[test]
    fn reader_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
    ) {
        check_hostile(&bytes);
    }

    #[test]
    fn reader_never_panics_on_mutated_valid_lines(
        line in 0usize..64,
        edits in proptest::collection::vec((0usize..4096, proptest::prelude::any::<u8>()), 1..4),
    ) {
        // Overwrite, insert or delete a few bytes of one exported line,
        // drawing replacements mostly from JSON's own alphabet.
        const ALPHABET: &[u8] = b"{}[]\",:\\u0n9e-. \t\x00\xc3\xa9\xf0";
        let mut names = BTreeMap::new();
        names.insert(7u64, "queue \"α\"\t".to_string());
        let mut buf = Vec::new();
        write_trace_jsonl(&mut buf, &full_vocabulary_trace(), TsUnit::VirtualTicks, &names).unwrap();
        let lines: Vec<&[u8]> = buf.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
        let mut bytes = lines[line % lines.len()].to_vec();
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
        check_hostile(&bytes);
    }
}
