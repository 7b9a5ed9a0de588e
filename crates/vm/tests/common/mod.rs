//! Shared program builders, corpus access, traced runs and the golden
//! comparison for the VM integration tests.
//!
//! Not every test binary uses every helper; silence per-binary dead-code
//! analysis.
#![allow(dead_code)]

use revmon_bench::{run_cell_events, BenchParams};
use revmon_core::Priority;
use revmon_obs::{Event, EventKind};
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::{MethodId, Program};
use revmon_vm::value::Value;
use revmon_vm::{assemble, Vm, VmConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Every `programs/*.rvm` as `(file name, source)`, sorted by name: the
/// fixed order the pin tests record their runs in.
pub fn corpus() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("programs/ directory")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 file name"))
        .filter(|n| n.ends_with(".rvm"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|file| {
            let src = std::fs::read_to_string(dir.join(&file)).expect("read corpus");
            (file, src)
        })
        .collect()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// The pin tests' one comparison: `actual` against `tests/golden/<name>`,
/// line by line, so a failure names the first line that moved. After an
/// *intentional* change, re-capture with the test binary's ignored
/// `bless` test (`cargo test -p revmon-vm --test <pin> -- --ignored
/// bless`) and read the golden's diff.
pub fn check_golden(name: &str, actual: &str) {
    let golden =
        std::fs::read_to_string(golden_path(name)).unwrap_or_else(|e| panic!("golden/{name}: {e}"));
    let (mut got, mut want) = (actual.lines(), golden.lines());
    for n in 1.. {
        match (got.next(), want.next()) {
            (None, None) => return,
            (g, w) if g == w => {}
            (g, w) => panic!(
                "output drifted from golden/{name} at line {n}:\n  got:  {}\n  want: {}",
                g.unwrap_or("<end of output>"),
                w.unwrap_or("<end of golden>")
            ),
        }
    }
}

/// Rewrite `tests/golden/<name>` with `actual`: what each pin's ignored
/// `bless` test runs.
pub fn bless_golden(name: &str, actual: &str) {
    std::fs::write(golden_path(name), actual).unwrap_or_else(|e| panic!("golden/{name}: {e}"));
}

/// One corpus program run to its end under `cfg`, traced: its whole
/// event stream and the monitor names (runs that end in a `VmError`,
/// like the unbroken deadlock, keep what they saw).
pub fn traced_corpus_run(
    src: &str,
    file: &str,
    cfg: VmConfig,
) -> (Vec<Event>, BTreeMap<u64, String>) {
    let program = assemble(src).unwrap_or_else(|e| panic!("{file}: {e}"));
    let entry = program.method_by_name("main").expect("corpus program has a main");
    let mut vm = Vm::new(program, cfg.with_trace());
    vm.spawn("main", entry, vec![], Priority::NORM);
    let _ = vm.run();
    (vm.take_trace(), vm.monitor_names())
}

/// One dense cell of the paper's microbenchmark, traced: the shape of
/// trace the repo benchmark's `trace_pipeline` replays, a hundredth its
/// size (≈ 2.3 k events).
pub fn traced_fig5_cell() -> (Vec<Event>, BTreeMap<u64, String>) {
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
    let (_, events) = run_cell_events(&cell, VmConfig::modified().with_trace());
    (events, BTreeMap::from([(0u64, "lock".to_string())]))
}

/// Every kind with the given payload words. The `match` has no wildcard
/// arm on purpose: a new variant fails to compile here until it is
/// added to the list below.
pub fn every_kind(a: u64, b: u64) -> Vec<EventKind> {
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

/// A synthetic wall-clock stream built to reach what the corpus does
/// not: every event kind with ordinary and all-ones payloads, non-zero
/// cores, events without a monitor, sub-microsecond and beyond-2^53
/// timestamps, a rollback longer than its own timestamp, mid-stream
/// tears and timestamps that run backwards.
pub fn synthetic() -> Vec<Event> {
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

/// Build the canonical contention workload: `run(lock, iters)` executes
/// one synchronized section on `lock` whose body increments `static 0`
/// `iters` times.
///
/// Locals: 0 = lock, 1 = iters, 2 = i.
pub fn counting_section_program() -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let run = pb.declare_method("run", 2);
    let mut b = MethodBuilder::new(2, 3);
    b.sync_on_local(0, |b| {
        b.const_i(0);
        b.store(2);
        let top = b.here();
        b.load(2);
        b.load(1);
        let done = b.new_label();
        b.if_ge(done);
        b.get_static(0);
        b.const_i(1);
        b.add();
        b.put_static(0);
        b.load(2);
        b.const_i(1);
        b.add();
        b.store(2);
        b.goto(top);
        b.place(done);
    });
    b.ret_void();
    pb.implement(run, b);
    (pb.finish(), run)
}

/// Like [`counting_section_program`] but the whole body repeats the
/// section `sections` times: `run(lock, iters, sections)`.
///
/// Locals: 0 = lock, 1 = iters, 2 = sections, 3 = s, 4 = i.
pub fn repeated_sections_program() -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let run = pb.declare_method("run", 3);
    let mut b = MethodBuilder::new(3, 5);
    b.const_i(0);
    b.store(3);
    let outer = b.here();
    b.load(3);
    b.load(2);
    let done = b.new_label();
    b.if_ge(done);
    b.sync_on_local(0, |b| {
        b.const_i(0);
        b.store(4);
        let top = b.here();
        b.load(4);
        b.load(1);
        let sec_done = b.new_label();
        b.if_ge(sec_done);
        b.get_static(0);
        b.const_i(1);
        b.add();
        b.put_static(0);
        b.load(4);
        b.const_i(1);
        b.add();
        b.store(4);
        b.goto(top);
        b.place(sec_done);
    });
    b.load(3);
    b.const_i(1);
    b.add();
    b.store(3);
    b.goto(outer);
    b.place(done);
    b.ret_void();
    pb.implement(run, b);
    (pb.finish(), run)
}

/// Spawn `lows` low-priority and `highs` high-priority threads all
/// running `run(lock, iters_low/iters_high)` and return the finished VM
/// plus its report.
pub fn run_contenders(
    cfg: VmConfig,
    lows: usize,
    iters_low: i64,
    highs: usize,
    iters_high: i64,
) -> (Vm, revmon_vm::RunReport) {
    let (p, run) = counting_section_program();
    let mut vm = Vm::new(p, cfg);
    let lock = vm.heap_mut().alloc(0, 0);
    for i in 0..lows {
        vm.spawn(
            &format!("low{i}"),
            run,
            vec![Value::Ref(lock), Value::Int(iters_low)],
            Priority::LOW,
        );
    }
    for i in 0..highs {
        vm.spawn(
            &format!("high{i}"),
            run,
            vec![Value::Ref(lock), Value::Int(iters_high)],
            Priority::HIGH,
        );
    }
    let report = vm.run().expect("run succeeds");
    (vm, report)
}
