//! End-to-end revocation behaviour: the Figure-1 scenario and its
//! variations, atomicity under rollback, and the modified-vs-unmodified
//! performance claim at test scale.

mod common;

use common::{counting_section_program, run_contenders};
use revmon_core::Priority;
use revmon_obs::{Event, EventKind};
use revmon_vm::value::Value;
use revmon_vm::{Vm, VmConfig};

/// Section long enough (≫ quantum) that a low-priority holder is always
/// caught inside it.
const LONG: i64 = 5_000;
const SHORT: i64 = 100;

#[test]
fn figure1_low_priority_holder_is_revoked() {
    let (vm, report) = {
        let cfg = VmConfig::modified().with_trace();
        let (p, run) = counting_section_program();
        let mut vm = Vm::new(p, cfg);
        let lock = vm.heap_mut().alloc(0, 0);
        vm.spawn("Tl", run, vec![Value::Ref(lock), Value::Int(LONG)], Priority::LOW);
        vm.spawn("Th", run, vec![Value::Ref(lock), Value::Int(SHORT)], Priority::HIGH);
        let report = vm.run().expect("run");
        (vm, report)
    };
    // Counter is exact: rollback never loses or duplicates increments.
    assert_eq!(report.global.rollbacks, 1, "exactly one revocation expected");
    assert!(report.global.revocations_requested >= 1);
    assert!(report.global.entries_rolled_back > 0);
    let mut vm = vm;
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(LONG + SHORT));
    // Trace tells the Figure-1 story: Tl acquires, Th blocks, revoke
    // request, rollback, Th acquires before Tl's section commits.
    let trace = vm.take_trace();
    let pos = |pred: &dyn Fn(&Event) -> bool| trace.iter().position(pred).expect("event present");
    let (tl, th) = (0u64, 1u64);
    let tl_acquire = pos(&|e| e.thread == tl && e.kind == EventKind::Acquire);
    let th_block = pos(&|e| e.thread == th && e.kind == EventKind::Block);
    // A revoke request is attributed to the flagged holder.
    let revoke = pos(&|e| e.thread == tl && e.kind == EventKind::RevokeRequest { by: th });
    let rollback = pos(&|e| e.thread == tl && matches!(e.kind, EventKind::Rollback { .. }));
    let th_acquire = pos(&|e| e.thread == th && e.kind == EventKind::Acquire);
    let tl_commit = pos(&|e| e.thread == tl && e.kind == EventKind::Commit);
    assert!(tl_acquire < th_block);
    assert!(th_block <= revoke);
    assert!(revoke < rollback);
    assert!(rollback < th_acquire);
    assert!(th_acquire < tl_commit, "Th runs its section before Tl finally commits");
}

#[test]
fn rollback_restores_every_intermediate_value() {
    // After the run the counter must be the exact sum — the revoked
    // thread's partial increments were undone and re-done.
    let (vm, report) = run_contenders(VmConfig::modified(), 3, LONG, 2, SHORT);
    assert_eq!(
        vm.read_static(0).unwrap(),
        Value::Int(3 * LONG + 2 * SHORT),
        "atomicity violated by rollback"
    );
    assert!(report.global.rollbacks >= 1);
}

#[test]
fn unmodified_vm_never_rolls_back() {
    let (vm, report) = run_contenders(VmConfig::unmodified(), 2, LONG, 2, SHORT);
    assert_eq!(report.global.rollbacks, 0);
    assert_eq!(report.global.log_entries, 0);
    assert_eq!(report.global.barrier_fast_paths, 0);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(2 * LONG + 2 * SHORT));
}

#[test]
fn high_priority_threads_finish_faster_on_modified_vm() {
    // The paper's headline: throughput of high-priority threads improves
    // under revocation. 2 high + 4 low contending on one lock.
    let (_, modified) = run_contenders(VmConfig::modified(), 4, LONG, 2, SHORT);
    let (_, unmodified) = run_contenders(VmConfig::unmodified(), 4, LONG, 2, SHORT);
    let m = modified.elapsed_for(Priority::HIGH);
    let u = unmodified.elapsed_for(Priority::HIGH);
    assert!(m < u, "modified VM should help high-priority threads: modified={m} unmodified={u}");
}

#[test]
fn overall_time_is_longer_on_modified_vm() {
    // Re-execution makes the *whole* benchmark slower (Figs. 7–8).
    let (_, modified) = run_contenders(VmConfig::modified(), 4, LONG, 2, SHORT);
    let (_, unmodified) = run_contenders(VmConfig::unmodified(), 4, LONG, 2, SHORT);
    assert!(modified.overall_elapsed() > unmodified.overall_elapsed());
}

#[test]
fn runs_are_deterministic() {
    let (_, a) = run_contenders(VmConfig::modified(), 3, LONG, 2, SHORT);
    let (_, b) = run_contenders(VmConfig::modified(), 3, LONG, 2, SHORT);
    assert_eq!(a.clock, b.clock);
    assert_eq!(a.global, b.global);
    for (x, y) in a.threads.iter().zip(&b.threads) {
        assert_eq!(x.start_time, y.start_time);
        assert_eq!(x.end_time, y.end_time);
        assert_eq!(x.metrics, y.metrics);
    }
}

#[test]
fn high_priority_sections_are_never_revoked_in_two_level_workload() {
    // With only HIGH and LOW priorities, a HIGH holder can never be the
    // victim of an inversion-triggered revocation (footnote 7).
    let (_, report) = run_contenders(VmConfig::modified(), 3, LONG, 3, LONG);
    for t in &report.threads {
        if t.priority == Priority::HIGH {
            assert_eq!(t.metrics.rollbacks, 0, "high-priority thread was revoked");
        }
    }
}

#[test]
fn revoked_thread_reexecutes_and_commits() {
    let (_, report) = run_contenders(VmConfig::modified(), 1, LONG, 1, SHORT);
    let low = &report.threads[0];
    assert_eq!(low.priority, Priority::LOW);
    assert!(low.metrics.rollbacks >= 1);
    assert!(low.metrics.sections_committed >= 1, "revoked section finally committed");
    // Rolled-back work shows up as extra instructions for the low thread.
    assert!(low.metrics.instructions > (LONG as u64) * 8);
}

#[test]
fn livelock_guard_caps_consecutive_revocations() {
    let mut cfg = VmConfig::modified();
    cfg.max_consecutive_revocations = 1;
    let (vm, report) = run_contenders(cfg, 1, LONG, 3, SHORT);
    // Counter must still be exact.
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(LONG + 3 * SHORT));
    // With the guard at 1, the second consecutive request must be denied.
    assert!(report.threads[0].metrics.rollbacks <= 1);
}

#[test]
fn background_detection_also_triggers_revocation() {
    // Threads 0 and 1 are LOW, thread 2 is HIGH. The scan fires on the
    // HIGH waiter, so HIGH is the requester even when a LOW waiter
    // arrived first; at two cores HIGH shares the holder's core 0, so the
    // request takes the same-core path, not an IPI.
    const HIGH: u64 = 2;
    for cores in [1, 2] {
        let mut cfg = VmConfig::modified().with_trace();
        cfg.detection = revmon_core::DetectionStrategy::Background { period: 5_000 };
        cfg.cores = cores;
        let (mut vm, report) = run_contenders(cfg, 2, LONG, 1, SHORT);
        assert_eq!(vm.read_static(0).unwrap(), Value::Int(2 * LONG + SHORT));
        assert!(report.global.rollbacks >= 1, "background scanner should find the inversion");
        let trace = vm.take_trace();
        let requesters: Vec<u64> = trace
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::RevokeRequest { by } => Some(by),
                _ => None,
            })
            .collect();
        assert!(!requesters.is_empty(), "cores={cores}: no RevokeRequest");
        assert!(
            requesters.iter().all(|&by| by == HIGH),
            "cores={cores}: requesters {requesters:?}"
        );
        if cores == 2 {
            assert!(
                !trace.iter().any(|e| matches!(e.kind, EventKind::IpiPosted { .. })),
                "the requester shares the holder's core: no IPI"
            );
        }
    }
}

#[test]
fn fifo_queue_discipline_still_correct() {
    let mut cfg = VmConfig::modified();
    cfg.queue_discipline = revmon_core::QueueDiscipline::Fifo;
    let (vm, _) = run_contenders(cfg, 2, LONG, 2, SHORT);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(2 * LONG + 2 * SHORT));
}

/// A section whose body catches its own user exception and continues is
/// still revocable, and its handler-modified state rolls back too.
#[test]
fn exception_handled_inside_section_still_rolls_back() {
    use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
    use revmon_vm::bytecode::CatchKind;

    let mut pb = ProgramBuilder::new();
    pb.statics(2);
    let low = pb.declare_method("low", 2);
    let mut b = MethodBuilder::new(2, 3);
    b.sync_on_local(0, |b| {
        // throw + catch inside the section, mutating static 1 in the handler
        b.try_catch(
            CatchKind::Class(9),
            |b| {
                b.add_static(0, 1);
                b.throw_new(9);
            },
            |b| {
                b.pop();
                b.add_static(1, 1);
            },
        );
        // long tail so the contender catches us here
        b.repeat(2, 5_000, |b| b.add_static(0, 1));
    });
    b.ret_void();
    pb.implement(low, b);
    let high = pb.declare_method("high", 1);
    let mut h = MethodBuilder::new(1, 1);
    h.const_i(30_000);
    h.sleep();
    h.sync_on_local(0, |b| {
        b.get_static(0);
        b.pop();
    });
    h.ret_void();
    pb.implement(high, h);
    let mut vm = Vm::new(pb.finish(), VmConfig::modified());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("low", low, vec![Value::Ref(lock), Value::Int(0)], Priority::LOW);
    vm.spawn("high", high, vec![Value::Ref(lock)], Priority::HIGH);
    let report = vm.run().expect("run");
    assert!(report.threads[0].metrics.rollbacks >= 1, "section was revoked");
    // After the retry completed: handler ran exactly once in the surviving
    // execution.
    assert_eq!(vm.read_static(1).unwrap(), Value::Int(1));
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(5_001));
}
