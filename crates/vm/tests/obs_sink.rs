//! The VM's trace is what every `revmon-obs` consumer reads (sinks,
//! exporters, analysis): the Figure-1 inversion scenario must produce
//! the same runtime-agnostic event stream the locks runtime emits, with
//! virtual-clock timestamps, and the derived latency histograms must see
//! the episode.

mod common;

use common::counting_section_program;
use revmon_core::Priority;
use revmon_obs::{Event, EventKind};
use revmon_vm::value::Value;
use revmon_vm::{Vm, VmConfig};

const LONG: i64 = 5_000;
const SHORT: i64 = 100;

/// The Figure-1 scenario, traced: its events and the run's report.
fn run_figure1(cfg: VmConfig) -> (Vec<Event>, revmon_vm::RunReport) {
    let (p, run) = counting_section_program();
    let mut vm = Vm::new(p, cfg.with_trace());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("Tl", run, vec![Value::Ref(lock), Value::Int(LONG)], Priority::LOW);
    vm.spawn("Th", run, vec![Value::Ref(lock), Value::Int(SHORT)], Priority::HIGH);
    let report = vm.run().expect("run");
    (vm.take_trace(), report)
}

#[test]
fn figure1_events_reach_the_sink() {
    let (events, report) = run_figure1(VmConfig::modified());
    assert_eq!(report.global.rollbacks, 1);

    let tl = 0u64;
    let th = 1u64;
    let pos = |pred: &dyn Fn(&Event) -> bool| events.iter().position(pred).expect("event present");
    let tl_acquire = pos(&|e| e.thread == tl && e.kind == EventKind::Acquire);
    let th_block = pos(&|e| e.thread == th && e.kind == EventKind::Block);
    let revoke =
        pos(&|e| e.thread == tl && matches!(e.kind, EventKind::RevokeRequest { by } if by == th));
    let rollback = pos(&|e| e.thread == tl && matches!(e.kind, EventKind::Rollback { .. }));
    let th_acquire = pos(&|e| e.thread == th && e.kind == EventKind::Acquire);
    assert!(tl_acquire < th_block);
    assert!(th_block <= revoke);
    assert!(revoke < rollback);
    assert!(rollback < th_acquire);

    // Rollback duration is the virtual-clock charge of restoring the log.
    let EventKind::Rollback { entries, duration } = events[rollback].kind else { unreachable!() };
    assert!(entries > 0);
    assert!(duration > 0, "rollback cost model charges per entry");

    // Timestamps are the virtual clock: monotone over the trace and
    // bounded by the final clock value.
    assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts));
    assert!(events.iter().all(|e| e.ts <= report.clock));

    // Derived latencies: Th's blocking episode and Tl's rollback landed
    // in the histograms, and the inversion round-trip (RevokeRequest →
    // Th's Acquire) was measured.
    let h = revmon_obs::Analysis::from_events(&events).histograms;
    assert!(h.entry_blocking.count() >= 1);
    assert!(h.section_length.count() >= 2, "both sections measured");
    assert_eq!(h.rollback_duration.count(), 1);
    assert!(h.inversion_resolution.count() >= 1);
}

#[test]
fn unmodified_vm_emits_no_revocation_events() {
    let (events, report) = run_figure1(VmConfig::unmodified());
    assert_eq!(report.global.rollbacks, 0);
    assert!(events.iter().any(|e| e.kind == EventKind::Acquire));
    assert!(events
        .iter()
        .all(|e| !matches!(e.kind, EventKind::Rollback { .. } | EventKind::RevokeRequest { .. })));
}
