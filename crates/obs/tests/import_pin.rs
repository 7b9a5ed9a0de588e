//! Byte pin for the trace importer.
//!
//! What a line of a trace *means* — an event, a counted kind of damage,
//! a meta line, nothing — must not move when the importer is made
//! faster. This records it for a hand-written corpus of spellings:
//! every event kind with ordinary and all-ones payloads, on cores 0, 3
//! and `u32::MAX`, with and without a monitor, exactly as
//! `write_events_jsonl` writes it; then each of those lines re-spelled
//! (`spellings/mod.rs`) the ways a foreign tool, a hand edit or a torn
//! write would: keys reordered, duplicated, escaped, spaced out;
//! numbers with leading zeros, at and past `u64::MAX`, of the wrong
//! type; payload fields swapped, missing, extra, `null`; unknown kinds;
//! junk after the object; single bytes lost. Every text is imported
//! whole (`import_trace_jsonl`) and a line at a time
//! (`TraceImport::read` through a 7-byte `BufReader`), with `\n` and
//! with `\r\n`; the four must agree, and the golden holds what they
//! said: per re-spelling a tally and an FNV-1a digest of every
//! `line => outcome` pair, and the pairs themselves for a sample of
//! kinds. A short mixed stream (meta lines, names, timestamps that run
//! backwards on both spellings) is kept in full. The golden file was
//! generated *before* the importer had a fast path.
//!
//! To re-capture after an *intentional* change to what the importer
//! accepts:
//!
//! ```text
//! cargo test -p revmon-obs --test import_pin -- --ignored bless
//! ```

mod spellings;

use revmon_core::fnv1a;
use revmon_obs::{import_trace_jsonl, write_events_jsonl, Event, EventKind, TraceImport};
use std::fmt::Write as _;
use std::io::BufReader;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/import_pin.txt")
}

/// Every kind with the given payload words. The `match` has no wildcard
/// arm on purpose: a new variant fails to compile here until it is
/// added to the list below (`EventKind::decode` and the schema are
/// private to the crate, and this pin reads it from outside).
fn every_kind(a: u64, b: u64) -> Vec<EventKind> {
    fn listed(k: &EventKind) {
        match k {
            EventKind::Acquire
            | EventKind::Block
            | EventKind::RevokeRequest { .. }
            | EventKind::Rollback { .. }
            | EventKind::Commit
            | EventKind::Release
            | EventKind::NonRevocable
            | EventKind::DeadlockDetected { .. }
            | EventKind::DeadlockBroken
            | EventKind::InversionUnresolved { .. }
            | EventKind::GovernorThrottle { .. }
            | EventKind::PolicyFallback
            | EventKind::DelegateSubmit { .. }
            | EventKind::DelegateExecute { .. }
            | EventKind::DelegateComplete { .. }
            | EventKind::IpiPosted { .. }
            | EventKind::IpiAck { .. } => {}
        }
    }
    let kinds = vec![
        EventKind::Acquire,
        EventKind::Block,
        EventKind::RevokeRequest { by: a },
        EventKind::Rollback { entries: a, duration: b },
        EventKind::Commit,
        EventKind::Release,
        EventKind::NonRevocable,
        EventKind::DeadlockDetected { cycle_len: a },
        EventKind::DeadlockBroken,
        EventKind::InversionUnresolved { by: a },
        EventKind::GovernorThrottle { by: a },
        EventKind::PolicyFallback,
        EventKind::DelegateSubmit { holder: a, token: b },
        EventKind::DelegateExecute { submitter: a, token: b },
        EventKind::DelegateComplete { submitter: a, token: b },
        EventKind::IpiPosted { by: a },
        EventKind::IpiAck { by: a, stale: b != 0 },
    ];
    kinds.iter().for_each(listed);
    kinds
}

/// One exported line and whether the golden shows its re-spellings in
/// full (the digests cover every line either way).
struct Base {
    line: String,
    shown: bool,
}

/// Every kind × {ordinary, all-ones payload} × core {0, 3, `u32::MAX`} ×
/// monitor {7, none}, as `write_events_jsonl` writes them.
fn exported() -> Vec<Base> {
    let mut events = Vec::new();
    let mut shown = Vec::new();
    for (a, b) in [(3, 1), (u64::MAX, u64::MAX)] {
        for kind in every_kind(a, b) {
            for core in [0, 3, u32::MAX] {
                for monitor in [7, Event::NO_MONITOR] {
                    let n = events.len() as u64;
                    events.push(Event { ts: 10 + n, thread: 1 + n % 2, monitor, core, kind });
                    // One line per payload shape: none, one word, two,
                    // the nullable one, the 0/1 one — ordinary on core 3
                    // with a monitor, all-ones on core 0 without.
                    let sample = matches!(
                        kind,
                        EventKind::Acquire
                            | EventKind::RevokeRequest { .. }
                            | EventKind::Rollback { .. }
                            | EventKind::DelegateSubmit { .. }
                            | EventKind::IpiAck { .. }
                    );
                    let corner = if a == 3 { (3, 7) } else { (0, Event::NO_MONITOR) };
                    shown.push(sample && (core, monitor) == corner);
                }
            }
        }
    }
    let mut buf = Vec::new();
    write_events_jsonl(&mut buf, &events).expect("write to memory");
    let text = String::from_utf8(buf).expect("the exporter writes UTF-8");
    text.lines().zip(shown).map(|(line, shown)| Base { line: line.to_string(), shown }).collect()
}

/// What was imported, as text. Empty tables and zero counts are left
/// out; an import of nothing at all says so.
fn render(events: &[Event], imp: &TraceImport) -> String {
    let mut out: Vec<String> = events.iter().map(|ev| format!("{ev:?}")).collect();
    let w = imp.warnings;
    if w.total() > 0 {
        out.push(format!(
            "warnings: malformed={} unknown_kinds={} out_of_order={}",
            w.malformed_lines, w.unknown_kinds, w.out_of_order
        ));
    }
    if !imp.damaged.is_empty() {
        out.push(format!("damaged: {:?}", imp.damaged));
    }
    if !imp.names.is_empty() {
        out.push(format!("names: {:?}", imp.names));
    }
    if let Some(unit) = imp.ts_unit {
        out.push(format!("ts_unit: {unit:?}"));
    }
    if !imp.run_meta.is_empty() {
        out.push(format!("run_meta: {:?}", imp.run_meta));
    }
    if out.is_empty() {
        out.push("nothing".to_string());
    }
    out.join("\n")
}

/// Import `text` whole and a line at a time, with `\n` and with `\r\n`;
/// the four must say the same thing, which is returned.
fn import_every_way(text: &str) -> (TraceImport, String) {
    let whole = import_trace_jsonl(text);
    let said = render(&whole.events, &whole);
    let crlf = text.replace('\n', "\r\n");
    let again = import_trace_jsonl(&crlf);
    assert_eq!(render(&again.events, &again), said, "whole, CRLF: {text:?}");
    for text in [text, &crlf] {
        let mut streamed = TraceImport::default();
        let mut events = Vec::new();
        streamed
            .read(BufReader::with_capacity(7, text.as_bytes()), |ev| events.push(*ev))
            .expect("reading from memory");
        assert!(streamed.events.is_empty(), "the streaming form hands events on");
        assert_eq!(render(&events, &streamed), said, "a line at a time: {text:?}");
    }
    (whole, said)
}

/// The whole pin, in a fixed order.
fn capture() -> String {
    let mut out = String::new();
    let corpus = exported();
    for (name, respell) in spellings::RESPELLINGS {
        let (mut lines, mut events, mut warnings) = (0u64, 0u64, [0u64; 3]);
        let (mut all, mut shown) = (String::new(), String::new());
        for base in &corpus {
            for line in respell(&base.line) {
                // Each line on its own, newline-terminated: a timestamp
                // pushed to `u64::MAX` must not put its neighbours out
                // of order.
                let (imp, said) = import_every_way(&format!("{line}\n"));
                lines += 1;
                events += imp.events.len() as u64;
                let w = imp.warnings;
                for (sum, n) in
                    warnings.iter_mut().zip([w.malformed_lines, w.unknown_kinds, w.out_of_order])
                {
                    *sum += n;
                }
                let pair = format!("{line} => {}\n", said.replace('\n', " | "));
                all.push_str(&pair);
                if base.shown {
                    shown.push_str(&pair);
                }
            }
        }
        let [malformed, unknown, out_of_order] = warnings;
        let _ = writeln!(
            out,
            "== {name}: lines={lines} events={events} malformed={malformed} \
             unknown_kinds={unknown} out_of_order={out_of_order} fnv={:016x}",
            fnv1a(all.as_bytes())
        );
        out.push_str(&shown);
    }

    // Texts that are not one re-spelled line.
    for (what, text) in &spellings::lone(&corpus[0].line) {
        let (_, said) = import_every_way(text);
        let _ = writeln!(out, "== {what}: {text:?} => {}", said.replace('\n', " | "));
    }

    // One stream through one importer: meta lines, names, and timestamps
    // that run backwards on an exported line and on a re-spelled one, so
    // `last_ts` and the damaged pairs are seen to be shared by whatever
    // paths the importer has.
    let stream = spellings::STREAM;
    let (_, said) = import_every_way(stream);
    let _ = writeln!(out, "== stream ==\n{stream}== imports as ==\n{said}\n== end stream ==");
    out
}

#[test]
fn what_each_spelling_imports_as_matches_the_pinned_golden() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden/import_pin.txt");
    let actual = capture();
    // Compare line by line so a failure names the spelling that moved.
    for (n, (got, want)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "the importer drifted from the pinned golden at line {}", n + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "pinned line count changed");
}

/// Rewrites the golden file. Run with `--ignored`.
#[test]
#[ignore]
fn bless() {
    std::fs::write(golden_path(), capture()).expect("write golden/import_pin.txt");
}
