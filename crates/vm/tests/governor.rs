//! End-to-end behaviour of the adaptive revocation governor.
//!
//! The forced repeat-revocation workload (`fault_force_inversion`) makes
//! every contended acquire revoke the holder, so two symmetric threads
//! revoke each other forever: the ungoverned VM livelocks (step-limit),
//! while a governed VM denies the K+1st revocation, falls back to
//! blocking, and completes with an exact counter.
//!
//! The staggered-probe workload (`programs/repeat_revocation.rvm`)
//! terminates either way; there the governor turns the second and third
//! revocations into queue blocking and cuts the re-executed work.

mod common;

use common::counting_section_program;
use revmon_core::{GovernorConfig, Priority};
use revmon_vm::value::Value;
use revmon_vm::{assemble, Vm, VmConfig, VmError};

const LONG: i64 = 2_000;

fn forced_inversion_cfg() -> VmConfig {
    let mut cfg = VmConfig::modified();
    cfg.fault_force_inversion = true;
    cfg
}

/// Two same-priority threads hammering one lock: with forced inversion
/// each contender revokes the current holder.
fn spawn_pair(cfg: VmConfig) -> Vm {
    let (p, run) = counting_section_program();
    let mut vm = Vm::new(p, cfg);
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("a", run, vec![Value::Ref(lock), Value::Int(LONG)], Priority::NORM);
    vm.spawn("b", run, vec![Value::Ref(lock), Value::Int(LONG)], Priority::NORM);
    vm
}

#[test]
fn forced_repeat_revocation_livelocks_without_governor() {
    let mut cfg = forced_inversion_cfg();
    cfg.max_steps = 2_000_000;
    let mut vm = spawn_pair(cfg);
    let err = vm.run().expect_err("mutual revocation must never finish");
    assert!(matches!(err, VmError::StepLimit(_)), "expected livelock, got: {err}");
    // The livelock signal: the step budget was burnt on repeated
    // rollbacks, and neither thread ever committed its section.
    let report = vm.report();
    assert!(
        report.global.rollbacks > 4,
        "expected a revocation storm, saw {} rollbacks",
        report.global.rollbacks
    );
    assert_eq!(report.global.sections_committed, 0, "livelock should commit nothing");
}

#[test]
fn governed_run_completes_with_bounded_streaks() {
    const K: u32 = 2;
    let mut cfg = forced_inversion_cfg();
    cfg.governor = GovernorConfig { k: K, backoff: 64, decay: 0 };
    cfg.max_steps = 2_000_000;
    let mut vm = spawn_pair(cfg);
    let report = vm.run().expect("governed run must complete");
    // Atomicity still holds through rollback + fallback.
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(2 * LONG));
    // The bounded-revocation guarantee: no (monitor, holder) pair was
    // revoked more than K times in a row — and some pair was revoked, so
    // the high-water mark is not vacuously 0.
    let streak = vm.governor().max_streak();
    assert!((1..=K).contains(&streak), "streak high-water {streak} outside 1..={K}");
    assert!(report.global.governor_throttles >= 1, "governor never intervened");
    assert!(report.global.policy_fallbacks >= 1, "no fallback window opened");
    assert!(report.global.rollbacks >= 1, "workload should still revoke before throttling");
}

#[test]
fn governed_runs_are_deterministic() {
    let run_once = || {
        let mut cfg = forced_inversion_cfg();
        cfg.governor = GovernorConfig { k: 1, backoff: 32, decay: 0 };
        cfg.max_steps = 2_000_000;
        let mut vm = spawn_pair(cfg);
        let report = vm.run().expect("governed run completes");
        (report.clock, report.global)
    };
    let (clock_a, global_a) = run_once();
    let (clock_b, global_b) = run_once();
    assert_eq!(clock_a, clock_b);
    assert_eq!(global_a, global_b);
}

#[test]
fn decay_reopens_revocation_after_quiet_period() {
    // With a decay window shorter than the inter-contention gap, the
    // governor forgives history and the workload still completes.
    let mut cfg = forced_inversion_cfg();
    cfg.governor = GovernorConfig { k: 1, backoff: 16, decay: 512 };
    cfg.max_steps = 4_000_000;
    let mut vm = spawn_pair(cfg);
    let report = vm.run().expect("governed run with decay completes");
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(2 * LONG));
    assert!(report.global.governor_throttles >= 1);
}

#[test]
fn governor_emits_throttle_and_fallback_trace_events() {
    use revmon_obs::EventKind;
    let mut cfg = forced_inversion_cfg().with_trace();
    cfg.governor = GovernorConfig { k: 1, backoff: 64, decay: 0 };
    cfg.max_steps = 2_000_000;
    let mut vm = spawn_pair(cfg);
    vm.run().expect("governed run completes");
    let trace = vm.take_trace();
    let throttles =
        trace.iter().filter(|e| matches!(e.kind, EventKind::GovernorThrottle { .. })).count();
    let fallbacks = trace.iter().filter(|e| e.kind == EventKind::PolicyFallback).count();
    assert!(throttles >= 1, "no GovernorThrottle in trace");
    assert!(fallbacks >= 1, "no PolicyFallback in trace");
    assert!(throttles >= fallbacks, "every fresh window implies a throttle");
    // A throttle must precede the throttled contender's next Acquire on
    // the governed monitor: the fallback really did turn into blocking.
    let first_throttle = trace
        .iter()
        .position(|e| matches!(e.kind, EventKind::GovernorThrottle { .. }))
        .expect("throttle position");
    let holder_commit_after = trace[first_throttle..].iter().any(|e| e.kind == EventKind::Commit);
    assert!(holder_commit_after, "the throttled holder never committed after the throttle");
}

/// `programs/repeat_revocation.rvm` — one low-priority aggregator in a
/// long section, a wave of staggered high-priority probes — ungoverned
/// and under `k=1, backoff=4096`: every virtual-clock counter of both
/// runs, exact.
#[test]
fn governor_cuts_the_staggered_probe_wave_to_one_revocation() {
    let run = |governor: GovernorConfig| {
        let program = assemble(include_str!("../../../programs/repeat_revocation.rvm"))
            .expect("corpus program assembles");
        let main = program.method_by_name("main").expect("corpus program has main");
        let mut cfg = VmConfig::modified();
        cfg.governor = governor;
        let mut vm = Vm::new(program, cfg);
        vm.spawn("main", main, vec![], Priority::NORM);
        let report = vm.run().expect("staggered probes terminate");
        let g = report.global;
        (
            report.clock,
            g.rollbacks,
            g.entries_rolled_back,
            g.sections_committed,
            g.governor_throttles,
            g.policy_fallbacks,
            vm.governor().max_streak(),
        )
    };
    // (clock, rollbacks, entries rolled back, commits, throttles,
    // fallback windows, max streak)
    assert_eq!(run(GovernorConfig::disabled()), (854_281, 3, 15_564, 4, 0, 0, 0));
    let governed = GovernorConfig { k: 1, backoff: 4_096, decay: 0 };
    assert_eq!(run(governed), (608_833, 1, 3_334, 4, 2, 2, 1));
}
