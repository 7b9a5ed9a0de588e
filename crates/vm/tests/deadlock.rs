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

/// `dine(first, second, meals, bites)`: `meals` rounds of
/// `sync(first){ <spin bites> sync(second){ static0++ } }`.
fn philosopher_program() -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let dine = pb.declare_method("dine", 4);
    let mut b = MethodBuilder::new(4, 6);
    b.const_i(0);
    b.store(4);
    let outer = b.here();
    b.load(4);
    b.load(2);
    let done = b.new_label();
    b.if_ge(done);
    b.sync_on_local(0, |b| {
        // think while holding the first chopstick (the deadlock window)
        b.const_i(0);
        b.store(5);
        let spin = b.here();
        b.load(5);
        b.load(3);
        let ate = b.new_label();
        b.if_ge(ate);
        b.load(5);
        b.const_i(1);
        b.add();
        b.store(5);
        b.goto(spin);
        b.place(ate);
        b.sync_on_local(1, |b| {
            b.get_static(0);
            b.const_i(1);
            b.add();
            b.put_static(0);
        });
    });
    b.load(4);
    b.const_i(1);
    b.add();
    b.store(4);
    b.goto(outer);
    b.place(done);
    b.ret_void();
    pb.implement(dine, b);
    (pb.finish(), dine)
}

/// A table of `n` philosophers, each eating `meals` times with 2 000
/// bites of thinking inside the first chopstick. Naive order: every
/// philosopher takes the left stick first (a cycle); global order: the
/// lower-numbered stick first (prevention). Returns whether the table
/// finished, the meals eaten and the deadlocks broken.
fn run_table(n: usize, meals: i64, cfg: VmConfig, ordered: bool) -> (bool, Value, u64) {
    let (p, dine) = philosopher_program();
    let mut vm = Vm::new(p, cfg);
    let sticks: Vec<_> = (0..n).map(|_| vm.heap_mut().alloc(0, 0)).collect();
    for i in 0..n {
        let (mut a, mut b) = (i, (i + 1) % n);
        if ordered && a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let args = vec![
            Value::Ref(sticks[a]),
            Value::Ref(sticks[b]),
            Value::Int(meals),
            Value::Int(2_000),
        ];
        vm.spawn(&format!("phil{i}"), dine, args, Priority::NORM);
    }
    let completed = match vm.run() {
        Ok(_) => true,
        Err(VmError::Stalled(_)) => false,
        Err(e) => panic!("unexpected fault: {e}"),
    };
    (completed, vm.read_static(0).unwrap(), vm.report().global.deadlocks_broken)
}

/// §1.1/§6: "such deadlocks can be detected and resolved automatically,
/// permitting the application to make progress". Dining philosophers in
/// the naive order stall a blocking VM and finish under revocation, which
/// breaks at least one deadlock; with a global lock order (prevention)
/// both VMs finish. EXPERIMENTS.md D1-bench has the clock each row takes.
#[test]
fn dining_philosophers_recover_under_revocation_and_stall_under_blocking() {
    let meals = 20;
    for n in [2usize, 3, 5, 8] {
        let all = Value::Int(n as i64 * meals);
        let (done, eaten, _) = run_table(n, meals, VmConfig::unmodified(), false);
        assert!(!done, "{n} seats, blocking, naive order must stall (ate {eaten:?})");
        assert_eq!(run_table(n, meals, VmConfig::unmodified(), true), (true, all, 0));
        let (done, eaten, broken) = run_table(n, meals, VmConfig::modified(), false);
        assert!(done && eaten == all, "{n} seats, revocation, naive order: {eaten:?}");
        assert!(broken >= 1, "{n} seats, revocation, naive order broke no deadlock");
        let (done, eaten, _) = run_table(n, meals, VmConfig::modified(), true);
        assert!(done && eaten == all, "{n} seats, revocation, global order: {eaten:?}");
    }
}
