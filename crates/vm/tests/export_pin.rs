//! Byte pin for the trace exporters.
//!
//! `write_chrome_trace` and `write_trace_jsonl` are rewritten for speed
//! from time to time; nothing they emit may move when that happens. For
//! every corpus program × {1, 4} cores this records the length and the
//! FNV-1a hash of both exporters' bytes (the full text for
//! `priority_inversion.rvm`, which is small enough to read), the same
//! for one dense Figure-5 cell (≈ 2.3 k events),
//! and the full text of one synthetic wall-clock stream built to reach
//! what the corpus does not: every event kind with ordinary and all-ones
//! payloads, non-zero cores, events without a monitor, sub-microsecond
//! and beyond-2^53 timestamps, a rollback longer than its own timestamp,
//! and mid-stream tears. The golden file was generated *before* the
//! integer event writers existed.
//!
//! To re-capture after an *intentional* format change:
//!
//! ```text
//! cargo test -p revmon-vm --test export_pin -- --ignored bless
//! ```

mod common;

use revmon_bench::{run_cell_sink, BenchParams};
use revmon_core::Priority;
use revmon_obs::{write_chrome_trace, write_trace_jsonl, Event, EventKind, EventSink, TsUnit};
use revmon_vm::{assemble, Vm, VmConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/export_pin.txt")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Both exporters over `events`: a digest line each, and the text itself
/// when `full`.
fn pin(
    out: &mut String,
    label: &str,
    events: &[Event],
    unit: TsUnit,
    names: &BTreeMap<u64, String>,
    full: bool,
) {
    let mut chrome = Vec::new();
    let repairs = write_chrome_trace(&mut chrome, events, unit).expect("write to memory");
    let mut jsonl = Vec::new();
    write_trace_jsonl(&mut jsonl, events, unit, names).expect("write to memory");
    let _ = writeln!(
        out,
        "{label} events={} chrome len={} fnv={:016x} repairs={repairs}",
        events.len(),
        chrome.len(),
        fnv1a(&chrome)
    );
    let _ = writeln!(out, "{label} jsonl len={} fnv={:016x}", jsonl.len(), fnv1a(&jsonl));
    if full {
        for (what, bytes) in [("chrome", &chrome), ("jsonl", &jsonl)] {
            let _ = writeln!(out, "--- {label} {what} ---");
            out.push_str(std::str::from_utf8(bytes).expect("the exporters write UTF-8"));
        }
        let _ = writeln!(out, "--- end {label} ---");
    }
}

/// The events and monitor names of one corpus run (runs that end in a
/// `VmError`, like the unbroken deadlock, still export what they saw).
fn corpus_events(src: &str, file: &str, cores: usize) -> (Vec<Event>, BTreeMap<u64, String>) {
    let program = assemble(src).unwrap_or_else(|e| panic!("{file}: {e}"));
    let entry = program.method_by_name("main").expect("corpus program has a main");
    let sink = Arc::new(EventSink::new(TsUnit::VirtualTicks));
    let mut vm = Vm::new(program, VmConfig::modified().with_cores(cores));
    vm.attach_sink(Arc::clone(&sink));
    vm.spawn("main", entry, vec![], Priority::NORM);
    let _ = vm.run();
    assert_eq!(sink.dropped(), 0, "{file}: the pin needs the whole trace");
    (sink.drain(), vm.monitor_names())
}

/// Every kind with the given payload words. The `match` has no wildcard
/// arm on purpose: a new variant fails to compile here until it is
/// added to the list below.
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

/// The synthetic wall-clock stream (see the module docs).
fn synthetic() -> Vec<Event> {
    let mut events = Vec::new();
    let mut ts = 0u64;
    // Every kind twice — ordinary payloads, then all-ones — on rotating
    // cores, every third without a monitor, at timestamps that are not
    // whole microseconds.
    for (a, b) in [(3, 1), (u64::MAX, u64::MAX)] {
        for (i, kind) in every_kind(a, b).into_iter().enumerate() {
            ts += 1_234_567 + i as u64;
            events.push(Event {
                ts,
                thread: 1 + (i % 2) as u64,
                monitor: if i % 3 == 2 { Event::NO_MONITOR } else { 7 + (i % 2) as u64 },
                core: (i % 3) as u32,
                kind,
            });
        }
    }
    let mk = |ts, thread, monitor, core, kind| Event { ts, thread, monitor, core, kind };
    let t0 = ts + 1_000;
    events.extend([
        // Nested sections, a rollback of the outer one that unwinds the
        // inner, then the unwind's own releases.
        mk(t0, 5, 20, 1, EventKind::Acquire),
        mk(t0 + 999, 5, 21, 1, EventKind::Acquire),
        mk(t0 + 1_000, 5, 21, 1, EventKind::Acquire),
        mk(t0 + 1_001, 6, 20, 1, EventKind::Block),
        mk(t0 + 2_500, 5, 20, 1, EventKind::RevokeRequest { by: 6 }),
        mk(t0 + 3_000, 5, 20, 1, EventKind::Rollback { entries: 9, duration: 400 }),
        mk(t0 + 3_010, 5, 21, 1, EventKind::Release),
        mk(t0 + 3_020, 5, 20, 1, EventKind::Release),
        mk(t0 + 3_030, 6, 20, 1, EventKind::Acquire),
        // Tears: thread 8's Acquire(30) vanished between Block(30) and
        // Block(31); it then acquires 32 while blocked on 31; thread 9
        // releases a monitor it never acquired; thread 8 re-blocks on
        // the monitor it is already blocked on.
        mk(t0 + 4_000, 8, 30, 0, EventKind::Block),
        mk(t0 + 4_100, 8, 31, 0, EventKind::Block),
        mk(t0 + 4_150, 8, 31, 0, EventKind::Block),
        mk(t0 + 4_200, 8, 32, 0, EventKind::Acquire),
        mk(t0 + 4_300, 9, 32, 0, EventKind::Release),
        // The same thread id on another core is another lane.
        mk(t0 + 4_400, 8, 32, 2, EventKind::Acquire),
        mk(t0 + 4_500, 8, 32, 2, EventKind::Release),
        // A rollback that claims to have started before time began.
        mk(250, 11, 40, 0, EventKind::Acquire),
        mk(300, 11, 40, 0, EventKind::Rollback { entries: 1, duration: 5_000 }),
        // Timestamps past 2^41 ns (25 days), past f64's integers, and
        // the saturated clock; spans left open for the trailer.
        mk((1 << 41) - 1, 12, 50, 0, EventKind::Acquire),
        mk(1 << 41, 12, 51, 0, EventKind::Acquire),
        mk((1 << 41) + 1_001, 13, 50, 3, EventKind::Block),
        mk((1 << 53) + 1, 12, 51, 0, EventKind::Rollback { entries: 2, duration: (1 << 53) - 7 }),
        mk(u64::MAX - 1, 14, 52, 0, EventKind::Commit),
        mk(u64::MAX, 14, 52, 0, EventKind::Acquire),
    ]);
    events
}

/// The whole pin, in a fixed order.
fn capture() -> String {
    let mut out = String::new();
    for (file, src) in &common::corpus() {
        for cores in [1, 4] {
            let (events, names) = corpus_events(src, file, cores);
            let full = file == "priority_inversion.rvm";
            pin(
                &mut out,
                &format!("{file} cores={cores}"),
                &events,
                TsUnit::VirtualTicks,
                &names,
                full,
            );
        }
    }

    // One dense cell of the paper's microbenchmark: the shape of trace
    // the repo benchmark's `trace_pipeline` replays, a hundredth its size.
    let sink = Arc::new(EventSink::with_capacity(TsUnit::VirtualTicks, 1 << 14));
    let cell = BenchParams {
        high_threads: 2,
        low_threads: 8,
        high_iters: 20,
        low_iters: 100,
        sections: 50,
        write_pct: 50,
        modified: true,
        seed: 0xC0FFEE,
        quantum: 1_200,
    };
    run_cell_sink(&cell, VmConfig::modified(), Some(Arc::clone(&sink)));
    assert_eq!(sink.dropped(), 0, "the pin needs the whole trace");
    let names = BTreeMap::from([(0u64, "lock".to_string())]);
    pin(&mut out, "fig5-cell 2+8 w50", &sink.drain(), TsUnit::VirtualTicks, &names, false);

    let names = BTreeMap::from([(7u64, "a \"quoted\"\tname".to_string()), (20, "outer".into())]);
    pin(&mut out, "synthetic", &synthetic(), TsUnit::WallNanos, &names, true);
    out
}

#[test]
fn exporter_bytes_match_the_pinned_golden() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden/export_pin.txt");
    let actual = capture();
    // Compare line by line so a failure names the element that moved.
    for (n, (got, want)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "exporter output drifted from the pinned golden at line {}", n + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "pinned line count changed");
}

/// Rewrites the golden file. Run with `--ignored`.
#[test]
#[ignore]
fn bless() {
    std::fs::write(golden_path(), capture()).expect("write golden/export_pin.txt");
}
