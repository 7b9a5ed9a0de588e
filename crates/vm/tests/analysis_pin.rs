//! Byte pin for the read side of telemetry.
//!
//! The fold from an event stream to episodes, per-monitor profiles, the
//! census and the latency histograms is restructured from time to
//! time; nothing it reports may move when that happens. For every corpus
//! program × {1, 4} cores (`delegation_storm.rvm` under the delegation
//! policy, which is what gives it episodes, and `repeat_revocation.rvm`
//! once more with the governor on), one dense Figure-5 cell, `export_pin`'s
//! synthetic all-kinds wall-clock stream (events without a monitor, torn
//! spans, timestamps that run backwards) and the importer's corrupt-trace
//! fixture after `mark_truncated`, this records the length and FNV-1a
//! hash of `write_report`, `analysis_json`, `write_prometheus` and the
//! folded flamegraph stacks, and count/min/max/p50/p99 of the four
//! latency histograms of an analysis of the events in merged order: a
//! VM run's trace as recorded (it is in timestamp order already), the
//! two hand-made streams as a sink that has seen them drains them. The
//! small cases carry their reports in full. The golden file was
//! generated *before* the three interval matchers became one, and its
//! histogram lines *before* the sink stopped folding them itself and
//! *before* the VM stopped recording into a sink.
//!
//! To re-capture after an *intentional* change to what analysis reports:
//!
//! ```text
//! cargo test -p revmon-vm --test analysis_pin -- --ignored bless
//! ```

mod common;

use revmon_core::fnv1a;
use revmon_core::GovernorConfig;
use revmon_obs::{
    analysis_json, import_trace_jsonl, write_prometheus, write_report, Analysis, Event, EventKind,
    EventSink, FoldedStacks, Histograms, TsUnit,
};
use revmon_vm::VmConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const GOLDEN: &str = "analysis_pin.txt";

/// The four renderers over `a`, a digest line each (the text itself too
/// when `full`), then `merged`'s histograms: those of the events in
/// merged order.
fn pin(
    out: &mut String,
    label: &str,
    a: &Analysis,
    merged: &Histograms,
    unit: TsUnit,
    names: &BTreeMap<u64, String>,
    full: bool,
) {
    let mut report = Vec::new();
    write_report(&mut report, a, names, unit).expect("write to memory");
    let mut prometheus = Vec::new();
    write_prometheus(&mut prometheus, a, names, unit).expect("write to memory");
    let rendered = [
        ("report", report),
        ("json", analysis_json(a, names, unit).into_bytes()),
        ("prometheus", prometheus),
        ("flame", FoldedStacks::from_episodes(&a.episodes, names).folded().into_bytes()),
    ];
    let _ = writeln!(out, "{label} events={} episodes={}", a.events, a.episodes.len());
    for (what, bytes) in &rendered {
        let _ = writeln!(out, "{label} {what} len={} fnv={:016x}", bytes.len(), fnv1a(bytes));
    }
    merged.for_each(|name, h| {
        let _ = writeln!(
            out,
            "{label} hist {name} count={} min={} max={} p50={} p99={}",
            h.count(),
            h.min(),
            h.max(),
            h.percentile(50.0),
            h.percentile(99.0)
        );
    });
    if full {
        for (what, bytes) in &rendered {
            let _ = writeln!(out, "--- {label} {what} ---");
            out.push_str(std::str::from_utf8(bytes).expect("the renderers write UTF-8"));
        }
        let _ = writeln!(out, "--- end {label} ---");
    }
}

/// The histograms of what a sink that has seen `events` drains, for
/// streams no runtime produced: their merge by timestamp.
fn replayed(events: &[Event], unit: TsUnit) -> Histograms {
    let sink = EventSink::with_capacity(unit, events.len());
    events.iter().for_each(|ev| sink.record(*ev));
    assert_eq!(sink.dropped(), 0, "the pin needs the whole stream");
    Analysis::from_events(&sink.drain()).histograms
}

/// The whole pin, in a fixed order.
fn capture() -> String {
    let mut out = String::new();
    let governed = GovernorConfig { k: 1, backoff: 4096, decay: 0 };
    for (file, src) in &common::corpus() {
        for cores in [1, 4] {
            let base = VmConfig::modified().with_cores(cores);
            let runs = match file.as_str() {
                "repeat_revocation.rvm" => {
                    vec![("", base), (" governed", VmConfig { governor: governed, ..base })]
                }
                _ => vec![("", base)],
            };
            for (variant, cfg) in runs {
                let (events, names) = common::traced_corpus_run(src, file, cfg);
                let a = Analysis::from_events(&events);
                let full = file == "priority_inversion.rvm" && cores == 1;
                let label = format!("{file} cores={cores}{variant}");
                pin(&mut out, &label, &a, &a.histograms, TsUnit::VirtualTicks, &names, full);
            }
        }
    }

    let (events, names) = common::traced_fig5_cell();
    let a = Analysis::from_events(&events);
    pin(&mut out, "fig5-cell 2+8 w50", &a, &a.histograms, TsUnit::VirtualTicks, &names, false);

    // Analysed in the order written (the second timestamp run sits below
    // the first); the histogram lines read the sink's merge by timestamp.
    let mut events = common::synthetic();
    for ev in &mut events {
        // Clipped since before analysis summed with saturation, and kept
        // so that the golden does not move; the stream goes through whole
        // in `the_unclipped_synthetic_stream_saturates_instead_of_overflowing`.
        if let EventKind::Rollback { entries, .. } = &mut ev.kind {
            *entries = (*entries).min(u32::MAX as u64);
        }
    }
    let names = BTreeMap::from([(7u64, "a \"quoted\"\tname".to_string()), (20, "outer".into())]);
    let a = Analysis::from_events(&events);
    let unit = TsUnit::WallNanos;
    pin(&mut out, "synthetic", &a, &replayed(&events, unit), unit, &names, true);

    let imp = import_trace_jsonl(include_str!("../../obs/tests/fixtures/corrupt_trace.jsonl"));
    let mut a = Analysis::from_events(&imp.events);
    a.mark_truncated(&imp.damaged, imp.warnings.total());
    let w = imp.warnings;
    let _ = writeln!(
        out,
        "corrupt-fixture malformed={} unknown_kinds={} out_of_order={} damaged={:?}",
        w.malformed_lines, w.unknown_kinds, w.out_of_order, imp.damaged
    );
    let unit = imp.unit();
    pin(&mut out, "corrupt-fixture", &a, &replayed(&imp.events, unit), unit, &imp.names, true);
    out
}

#[test]
fn analysis_bytes_match_the_pinned_golden() {
    common::check_golden(GOLDEN, &capture());
}

/// The synthetic stream as written — two rollbacks of `u64::MAX` entries,
/// timestamps up to `u64::MAX` — through the fold and all four renderers:
/// sums of numbers a trace line can claim saturate; they neither wrap
/// (release) nor panic (debug, where this test earns its keep).
#[test]
fn the_unclipped_synthetic_stream_saturates_instead_of_overflowing() {
    let events = common::synthetic();
    let a = Analysis::from_events(&events);
    assert_eq!(a.wasted_entries, u64::MAX);
    let mut out = String::new();
    let unit = TsUnit::WallNanos;
    pin(&mut out, "unclipped", &a, &replayed(&events, unit), unit, &BTreeMap::new(), true);
    assert!(out.contains("18446744073709551615 undo entries"), "{out}");
}

/// Rewrites the golden file. Run with `--ignored`.
#[test]
#[ignore]
fn bless() {
    common::bless_golden(GOLDEN, &capture());
}
