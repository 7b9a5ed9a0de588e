//! Behaviour pin for the interpreter.
//!
//! Everything a run can be observed by — final virtual clock, every
//! `Metrics` counter, emitted output, whole-machine and heap
//! fingerprints, and the fault text of runs that end in a `VmError` — is
//! recorded for every corpus program × {unmodified, modified} VM ×
//! {1, 2, 4} cores, plus the elapsed times and counters of all 36
//! Figure-5 cells at `Scale::smoke()`. The golden file was generated
//! *before* the batched frame-local loop (`Vm::run_local`) existed, so
//! this test is the proof that batching is invisible: an interpreter
//! change that moves a single tick or counter anywhere fails here.
//!
//! To re-capture after an *intentional* semantic change:
//!
//! ```text
//! cargo test -p revmon-vm --test interp_pin -- --ignored bless
//! ```

mod common;

use revmon_bench::{run_cell, BenchParams, Scale, MIXES, WRITE_PCTS};
use revmon_core::{Metrics, Priority};
use revmon_vm::{assemble, Vm, VmConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/interp_pin.txt")
}

fn push_metrics(line: &mut String, m: &Metrics) {
    m.for_each_field(|name, v| {
        let _ = write!(line, " {name}={v}");
    });
}

/// One line for one corpus run.
fn corpus_line(file: &str, src: &str, flavour: &str, cfg: VmConfig) -> String {
    let program = assemble(src).unwrap_or_else(|e| panic!("{file}: {e}"));
    let entry = program.method_by_name("main").expect("corpus program has a main");
    let mut vm = Vm::new(program, cfg);
    vm.spawn("main", entry, vec![], Priority::NORM);
    let err = match vm.run() {
        Ok(_) => "-".to_string(),
        Err(e) => e.to_string(),
    };
    let report = vm.report();
    let mut line = format!("{file} {flavour} cores={} clock={}", cfg.cores, report.clock);
    push_metrics(&mut line, &report.global);
    let output: Vec<String> = report.output.iter().map(|v| v.to_string()).collect();
    let _ = write!(
        line,
        " output=[{}] state={:016x} heap={:016x} err={err}",
        output.join(","),
        vm.state_fingerprint(),
        vm.heap_fingerprint()
    );
    line
}

/// The whole pin, one line per run, in a fixed order.
fn capture() -> String {
    let mut out = String::new();
    for (file, src) in &common::corpus() {
        for (flavour, cfg) in
            [("unmodified", VmConfig::unmodified()), ("modified", VmConfig::modified())]
        {
            for cores in [1, 2, 4] {
                out.push_str(&corpus_line(file, src, flavour, cfg.with_cores(cores)));
                out.push('\n');
            }
        }
    }
    let scale = Scale::smoke();
    for (high, low) in MIXES {
        for write_pct in WRITE_PCTS {
            for modified in [false, true] {
                let cell = run_cell(&BenchParams {
                    high_threads: high,
                    low_threads: low,
                    high_iters: scale.high_iters_small,
                    low_iters: scale.low_iters,
                    sections: scale.sections,
                    write_pct,
                    modified,
                    seed: 0xC0FFEE,
                    quantum: scale.quantum,
                });
                let flavour = if modified { "modified" } else { "unmodified" };
                let mut line = format!(
                    "fig5 {high}+{low} w{write_pct} {flavour} high_elapsed={} overall_elapsed={}",
                    cell.high_elapsed, cell.overall_elapsed
                );
                push_metrics(&mut line, &cell.metrics);
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn interpreter_behaviour_matches_the_pinned_golden() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden/interp_pin.txt");
    let actual = capture();
    // Compare line by line so a failure names the run that moved.
    for (got, want) in actual.lines().zip(golden.lines()) {
        assert_eq!(got, want, "interpreter behaviour drifted from the pinned golden");
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "number of pinned runs changed");
}

/// Rewrites the golden file. Run with `--ignored`.
#[test]
#[ignore]
fn bless() {
    std::fs::write(golden_path(), capture()).expect("write golden/interp_pin.txt");
}
