//! Bytecode-level thread creation: `Spawn` / `Join` make programs fully
//! self-contained (a `main` that forks workers and awaits them).

use revmon_core::Priority;
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::value::Value;
use revmon_vm::{Vm, VmConfig, VmError};

/// main: allocates the lock, spawns `n` workers (each increments static 0
/// `iters` times under the lock), joins them all, then checks the total
/// into static 1.
fn fork_join_program(
    n: i64,
    iters: i64,
) -> (revmon_vm::bytecode::Program, revmon_vm::bytecode::MethodId) {
    let mut pb = ProgramBuilder::new();
    pb.statics(2);
    let worker = pb.declare_method("worker", 1);
    let mut w = MethodBuilder::new(1, 2);
    w.sync_on_local(0, |b| {
        b.repeat(1, iters, |b| b.add_static(0, 1));
    });
    w.ret_void();
    pb.implement(worker, w);

    let main = pb.declare_method("main", 0);
    // locals: 0 lock, 1 i, 2 tids array
    let mut m = MethodBuilder::new(0, 3);
    m.new_object(0, 0);
    m.store(0);
    m.const_i(n);
    m.new_array();
    m.store(2);
    // spawn loop
    m.repeat(1, n, |b| {
        b.load(2);
        b.load(1);
        // worker arg (lock), then priority (alternate low/high)
        b.load(0);
        b.load(1);
        b.const_i(2);
        b.rem();
        b.if_else(
            |b| b.dup(), // cond consumes the dup'd parity... simpler below
            |b| {
                b.pop();
                b.const_i(8);
            },
            |b| {
                b.pop();
                b.const_i(2);
            },
        );
        b.spawn(worker);
        b.astore(); // tids[i] = spawned id
    });
    // join loop
    m.repeat(1, n, |b| {
        b.load(2);
        b.load(1);
        b.aload();
        b.join();
    });
    // record the observed total
    m.get_static(0);
    m.put_static(1);
    m.ret_void();
    pb.implement(main, m);
    (pb.finish(), main)
}

#[test]
fn fork_join_totals_are_exact_on_both_vms() {
    for cfg in [VmConfig::unmodified(), VmConfig::modified()] {
        let (p, main) = fork_join_program(6, 500);
        let mut vm = Vm::new(p, cfg);
        vm.spawn("main", main, vec![], Priority::NORM);
        let report = vm.run().expect("run");
        // main observed the full total *after* joins — joins really waited.
        assert_eq!(vm.read_static(1).unwrap(), Value::Int(3_000));
        assert_eq!(report.threads.len(), 7, "main + 6 spawned workers");
        assert!(report.threads.iter().all(|t| t.uncaught.is_none()));
    }
}

#[test]
fn spawned_thread_priorities_take_effect() {
    // Workers alternate LOW/HIGH; with revocation the HIGH ones must be
    // able to preempt LOW holders (rollbacks > 0 under contention).
    let (p, main) = fork_join_program(6, 3_000);
    let mut vm = Vm::new(p, VmConfig::modified());
    vm.spawn("main", main, vec![], Priority::NORM);
    let report = vm.run().expect("run");
    assert_eq!(vm.read_static(1).unwrap(), Value::Int(18_000));
    assert!(
        report.global.rollbacks >= 1,
        "high-priority spawned workers should revoke low holders"
    );
}

#[test]
fn join_on_finished_or_self_is_noop() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let quick = pb.declare_method("quick", 0);
    let mut q = MethodBuilder::new(0, 0);
    q.add_static(0, 1);
    q.ret_void();
    pb.implement(quick, q);
    let main = pb.declare_method("main", 0);
    let mut m = MethodBuilder::new(0, 1);
    m.const_i(5); // priority
    m.spawn(quick);
    m.store(0);
    // let it finish
    m.const_i(200_000);
    m.sleep();
    m.load(0);
    m.join(); // already terminated
    m.const_i(0); // join self (main is thread 0)
    m.join();
    m.ret_void();
    pb.implement(main, m);
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified());
    vm.spawn("main", main, vec![], Priority::NORM);
    vm.run().expect("no hang");
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(1));
}

#[test]
fn join_out_of_range_throws_catchable_exception() {
    use revmon_vm::bytecode::CatchKind;
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let main = pb.declare_method("main", 0);
    let mut m = MethodBuilder::new(0, 0);
    m.try_catch(
        CatchKind::Class(revmon_vm::OOB_TAG),
        |b| {
            b.const_i(99);
            b.join();
        },
        |b| {
            b.pop();
            b.add_static(0, 1);
        },
    );
    m.ret_void();
    pb.implement(main, m);
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified());
    vm.spawn("main", main, vec![], Priority::NORM);
    vm.run().expect("run");
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(1));
}

#[test]
fn join_cycle_is_reported_as_stall() {
    // Two threads joining each other can never finish.
    let mut pb = ProgramBuilder::new();
    let waiter = pb.declare_method("waiter", 1);
    let mut w = MethodBuilder::new(1, 1);
    w.load(0);
    w.join();
    w.ret_void();
    pb.implement(waiter, w);
    let main = pb.declare_method("main", 0);
    let mut m = MethodBuilder::new(0, 1);
    // spawn a waiter that joins main (thread 0)
    m.const_i(0);
    m.const_i(5);
    m.spawn(waiter);
    m.store(0);
    m.load(0);
    m.join(); // main joins the waiter; waiter joins main
    m.ret_void();
    pb.implement(main, m);
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified());
    vm.spawn("main", main, vec![], Priority::NORM);
    assert!(matches!(vm.run(), Err(VmError::Stalled(_))));
}

#[test]
fn spawn_inside_section_pins_it_nonrevocable() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let noop = pb.declare_method("noop", 0);
    let mut n = MethodBuilder::new(0, 0);
    n.ret_void();
    pb.implement(noop, n);
    let low = pb.declare_method("low", 2);
    let mut b = MethodBuilder::new(2, 3);
    b.sync_on_local(0, |b| {
        b.const_i(5);
        b.spawn(noop); // irrevocable effect
        b.pop();
        b.repeat(2, 40_000, |b| b.add_static(0, 1));
    });
    b.ret_void();
    pb.implement(low, b);
    let high = pb.declare_method("high", 1);
    let mut h = MethodBuilder::new(1, 1);
    h.const_i(60_000);
    h.sleep();
    h.sync_on_local(0, |b| {
        b.get_static(0);
        b.pop();
    });
    h.ret_void();
    pb.implement(high, h);
    let mut vm = Vm::new(pb.finish(), VmConfig::modified().with_trace());
    let lock = vm.heap_mut().alloc(0, 0);
    let low_tid = vm.spawn("low", low, vec![Value::Ref(lock), Value::Int(0)], Priority::LOW);
    vm.spawn("high", high, vec![Value::Ref(lock)], Priority::HIGH);
    let report = vm.run().expect("run");
    assert_eq!(report.threads[0].metrics.rollbacks, 0, "spawn made the section irrevocable");
    assert!(report.global.monitors_marked_nonrevocable >= 1);
    assert!(report.global.inversions_unresolved >= 1);
    // exactly one spawned thread exists (never duplicated by a rollback)
    assert_eq!(report.threads.len(), 3);
    // The pin announces itself, as a native call's does: one
    // `NonRevocable` by the spawner on the section's monitor.
    let pins: Vec<(u64, u64)> = vm
        .take_trace()
        .iter()
        .filter(|e| e.kind == revmon_obs::EventKind::NonRevocable)
        .map(|e| (e.thread, e.monitor))
        .collect();
    assert_eq!(pins, vec![(low_tid.0 as u64, lock.0 as u64)]);
}
