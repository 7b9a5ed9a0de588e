//! Deadlock detection and resolution by victim revocation (§1.1).

use revmon_core::Priority;
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::{MethodId, NativeOp, Program};
use revmon_vm::value::Value;
use revmon_vm::{Vm, VmConfig, VmError};

/// `run(a, b, iters)`: `sync(a) { <spin iters> sync(b) { static0++ } }`.
/// Two threads called with swapped (a, b) deadlock with near-certainty
/// once both are inside their outer sections.
fn crossed_locks_program(with_native: bool) -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let run = pb.declare_method("run", 3);
    let mut b = MethodBuilder::new(3, 4);
    b.sync_on_local(0, |b| {
        if with_native {
            b.const_i(0);
            b.native(NativeOp::Emit);
        }
        // spin so both threads take their first lock before trying the second
        b.const_i(0);
        b.store(3);
        let top = b.here();
        b.load(3);
        b.load(2);
        let done = b.new_label();
        b.if_ge(done);
        b.load(3);
        b.const_i(1);
        b.add();
        b.store(3);
        b.goto(top);
        b.place(done);
        b.sync_on_local(1, |b| {
            b.get_static(0);
            b.const_i(1);
            b.add();
            b.put_static(0);
        });
    });
    b.ret_void();
    pb.implement(run, b);
    (pb.finish(), run)
}

#[test]
fn two_thread_deadlock_is_broken_under_revocation() {
    let (p, run) = crossed_locks_program(false);
    let mut vm = Vm::new(p, VmConfig::modified().with_trace());
    let a = vm.heap_mut().alloc(0, 0);
    let b = vm.heap_mut().alloc(0, 0);
    vm.spawn("t1", run, vec![Value::Ref(a), Value::Ref(b), Value::Int(30_000)], Priority::NORM);
    vm.spawn("t2", run, vec![Value::Ref(b), Value::Ref(a), Value::Int(30_000)], Priority::NORM);
    let report = vm.run().expect("deadlock resolved, program completes");
    assert!(report.global.deadlocks_detected >= 1);
    assert!(report.global.deadlocks_broken >= 1);
    assert!(report.global.rollbacks >= 1);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(2), "both inner sections ran");
    let trace = vm.take_trace();
    assert!(trace.iter().any(|e| e.kind == revmon_obs::EventKind::DeadlockBroken));
}

#[test]
fn same_deadlock_stalls_a_blocking_vm() {
    let (p, run) = crossed_locks_program(false);
    let mut vm = Vm::new(p, VmConfig::unmodified());
    let a = vm.heap_mut().alloc(0, 0);
    let b = vm.heap_mut().alloc(0, 0);
    vm.spawn("t1", run, vec![Value::Ref(a), Value::Ref(b), Value::Int(30_000)], Priority::NORM);
    vm.spawn("t2", run, vec![Value::Ref(b), Value::Ref(a), Value::Int(30_000)], Priority::NORM);
    match vm.run() {
        Err(VmError::Stalled(blocked)) => assert_eq!(blocked.len(), 2),
        other => panic!("expected stall, got {other:?}"),
    }
}

#[test]
fn three_thread_cycle_is_broken() {
    // t1: A then B; t2: B then C; t3: C then A.
    let (p, run) = crossed_locks_program(false);
    let mut vm = Vm::new(p, VmConfig::modified());
    let a = vm.heap_mut().alloc(0, 0);
    let b = vm.heap_mut().alloc(0, 0);
    let c = vm.heap_mut().alloc(0, 0);
    let spin = Value::Int(30_000);
    vm.spawn("t1", run, vec![Value::Ref(a), Value::Ref(b), spin], Priority::NORM);
    vm.spawn("t2", run, vec![Value::Ref(b), Value::Ref(c), spin], Priority::NORM);
    vm.spawn("t3", run, vec![Value::Ref(c), Value::Ref(a), spin], Priority::NORM);
    let report = vm.run().expect("3-cycle resolved");
    assert!(report.global.deadlocks_broken >= 1);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(3));
}

#[test]
fn inversion_revocation_preempts_deadlock_formation() {
    // With unequal priorities, the high-priority thread's contended
    // acquisition triggers an inversion revocation of the low-priority
    // holder *before* the waits-for cycle can close: the conflict is
    // resolved without ever reaching the deadlock breaker.
    let (p, run) = crossed_locks_program(false);
    let mut vm = Vm::new(p, VmConfig::modified().with_trace());
    let a = vm.heap_mut().alloc(0, 0);
    let b = vm.heap_mut().alloc(0, 0);
    vm.spawn("hi", run, vec![Value::Ref(a), Value::Ref(b), Value::Int(30_000)], Priority::HIGH);
    vm.spawn("lo", run, vec![Value::Ref(b), Value::Ref(a), Value::Int(30_000)], Priority::LOW);
    let report = vm.run().expect("resolved");
    let lo = report.threads.iter().find(|t| t.name == "lo").unwrap();
    let hi = report.threads.iter().find(|t| t.name == "hi").unwrap();
    assert!(lo.metrics.rollbacks >= 1, "low-priority thread took the rollback");
    assert_eq!(hi.metrics.rollbacks, 0);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(2));
}

#[test]
fn equal_priority_victim_tie_breaks_to_youngest() {
    let (p, run) = crossed_locks_program(false);
    let mut vm = Vm::new(p, VmConfig::modified().with_trace());
    let a = vm.heap_mut().alloc(0, 0);
    let b = vm.heap_mut().alloc(0, 0);
    vm.spawn("t1", run, vec![Value::Ref(a), Value::Ref(b), Value::Int(30_000)], Priority::NORM);
    vm.spawn("t2", run, vec![Value::Ref(b), Value::Ref(a), Value::Int(30_000)], Priority::NORM);
    let report = vm.run().expect("resolved");
    assert!(report.global.deadlocks_broken >= 1);
    let trace = vm.take_trace();
    let victim = trace
        .iter()
        .find(|e| e.kind == revmon_obs::EventKind::DeadlockBroken)
        .expect("victim recorded")
        .thread;
    assert_eq!(victim, 1, "youngest thread revoked on ties");
    assert_eq!(report.threads[0].metrics.rollbacks, 0);
}

#[test]
fn unbreakable_deadlock_when_sections_are_nonrevocable() {
    // A native call inside each outer section makes every member
    // non-revocable: the deadlock cannot be broken even under revocation.
    let (p, run) = crossed_locks_program(true);
    let mut vm = Vm::new(p, VmConfig::modified());
    let a = vm.heap_mut().alloc(0, 0);
    let b = vm.heap_mut().alloc(0, 0);
    vm.spawn("t1", run, vec![Value::Ref(a), Value::Ref(b), Value::Int(30_000)], Priority::NORM);
    vm.spawn("t2", run, vec![Value::Ref(b), Value::Ref(a), Value::Int(30_000)], Priority::NORM);
    match vm.run() {
        Err(VmError::Stalled(blocked)) => assert_eq!(blocked.len(), 2),
        other => panic!("expected stall, got {other:?}"),
    }
}

#[test]
fn no_false_deadlock_on_nested_distinct_locks() {
    // Consistent lock ordering: never a cycle, nothing ever revoked for
    // deadlock reasons.
    let (p, run) = crossed_locks_program(false);
    let mut vm = Vm::new(p, VmConfig::modified());
    let a = vm.heap_mut().alloc(0, 0);
    let b = vm.heap_mut().alloc(0, 0);
    vm.spawn("t1", run, vec![Value::Ref(a), Value::Ref(b), Value::Int(10_000)], Priority::NORM);
    vm.spawn("t2", run, vec![Value::Ref(a), Value::Ref(b), Value::Int(10_000)], Priority::NORM);
    let report = vm.run().expect("no deadlock");
    assert_eq!(report.global.deadlocks_detected, 0);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(2));
}
