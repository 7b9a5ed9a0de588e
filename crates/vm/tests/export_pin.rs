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

use revmon_core::fnv1a;
use revmon_obs::{write_chrome_trace, write_trace_jsonl, Event, TsUnit};
use revmon_vm::VmConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const GOLDEN: &str = "export_pin.txt";

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

/// The whole pin, in a fixed order.
fn capture() -> String {
    let mut out = String::new();
    for (file, src) in &common::corpus() {
        for cores in [1, 4] {
            let cfg = VmConfig::modified().with_cores(cores);
            let (events, names) = common::traced_corpus_run(src, file, cfg);
            let full = file == "priority_inversion.rvm";
            let label = format!("{file} cores={cores}");
            pin(&mut out, &label, &events, TsUnit::VirtualTicks, &names, full);
        }
    }

    let (events, names) = common::traced_fig5_cell();
    pin(&mut out, "fig5-cell 2+8 w50", &events, TsUnit::VirtualTicks, &names, false);

    let names = BTreeMap::from([(7u64, "a \"quoted\"\tname".to_string()), (20, "outer".into())]);
    pin(&mut out, "synthetic", &common::synthetic(), TsUnit::WallNanos, &names, true);
    out
}

#[test]
fn exporter_bytes_match_the_pinned_golden() {
    common::check_golden(GOLDEN, &capture());
}

/// Rewrites the golden file. Run with `--ignored`.
#[test]
#[ignore]
fn bless() {
    common::bless_golden(GOLDEN, &capture());
}
