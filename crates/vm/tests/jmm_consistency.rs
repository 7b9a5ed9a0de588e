//! The JMM-consistency guard scenarios of §2.1–2.2: Figures 2, 3 and 4,
//! plus native calls and nested waits forcing non-revocability.

use revmon_core::Priority;
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::{MethodId, NativeOp, Program};
use revmon_vm::value::Value;
use revmon_vm::{Vm, VmConfig};

/// Statics: 0 = v (the leaked variable), 1 = scratch workload counter.
///
/// `writer(outer, inner, iters)`: `sync(outer) { sync(inner) { v = 1 }
/// <long loop on static 1> }`.
/// `reader(inner)`: `sync(inner) { read v }` (Figure 2's T′).
fn figure2_program() -> (Program, MethodId, MethodId, MethodId) {
    let mut pb = ProgramBuilder::new();
    pb.statics(2);

    let writer = pb.declare_method("writer", 3);
    let mut w = MethodBuilder::new(3, 4);
    w.sync_on_local(0, |b| {
        b.sync_on_local(1, |b| {
            b.const_i(1);
            b.put_static(0);
        });
        // long monitored loop so T' can read while outer is active
        b.const_i(0);
        b.store(3);
        let top = b.here();
        b.load(3);
        b.load(2);
        let done = b.new_label();
        b.if_ge(done);
        b.get_static(1);
        b.const_i(1);
        b.add();
        b.put_static(1);
        b.load(3);
        b.const_i(1);
        b.add();
        b.store(3);
        b.goto(top);
        b.place(done);
    });
    w.ret_void();
    pb.implement(writer, w);

    let reader = pb.declare_method("reader", 1);
    let mut r = MethodBuilder::new(1, 1);
    // arrive while the writer sits in `outer` but after `inner` released
    r.const_i(30_000);
    r.sleep();
    r.sync_on_local(0, |b| {
        b.get_static(0);
        b.pop();
    });
    r.ret_void();
    pb.implement(reader, r);

    // A high-priority thread that tries to take `outer` late.
    let contender = pb.declare_method("contender", 1);
    let mut c = MethodBuilder::new(1, 1);
    c.const_i(60_000);
    c.sleep();
    c.sync_on_local(0, |b| {
        b.get_static(1);
        b.pop();
    });
    c.ret_void();
    pb.implement(contender, c);

    (pb.finish(), writer, reader, contender)
}

#[test]
fn figure2_nested_publication_blocks_revocation_of_outer() {
    let (p, writer, reader, contender) = figure2_program();
    let mut vm = Vm::new(p, VmConfig::modified().with_trace());
    let outer = vm.heap_mut().alloc(0, 0);
    let inner = vm.heap_mut().alloc(0, 0);
    vm.spawn(
        "T",
        writer,
        vec![Value::Ref(outer), Value::Ref(inner), Value::Int(50_000)],
        Priority::LOW,
    );
    vm.spawn("T'", reader, vec![Value::Ref(inner)], Priority::LOW);
    vm.spawn("Th", contender, vec![Value::Ref(outer)], Priority::HIGH);
    let report = vm.run().expect("run");
    // T' observed the speculative write → outer became non-revocable.
    assert!(
        report.global.monitors_marked_nonrevocable >= 1,
        "the cross-thread read must flag the outer monitor"
    );
    // The high-priority contender found the inversion unresolvable.
    assert!(report.global.inversions_unresolved >= 1);
    // And the writer was never rolled back.
    assert_eq!(report.threads[0].metrics.rollbacks, 0);
}

#[test]
fn figure2_without_the_leak_revocation_still_works() {
    // Same shape but the reader never runs: outer stays revocable and the
    // high-priority contender evicts the writer.
    let (p, writer, _reader, contender) = figure2_program();
    let mut vm = Vm::new(p, VmConfig::modified());
    let outer = vm.heap_mut().alloc(0, 0);
    let inner = vm.heap_mut().alloc(0, 0);
    vm.spawn(
        "T",
        writer,
        vec![Value::Ref(outer), Value::Ref(inner), Value::Int(50_000)],
        Priority::LOW,
    );
    vm.spawn("Th", contender, vec![Value::Ref(outer)], Priority::HIGH);
    let report = vm.run().expect("run");
    assert_eq!(report.global.monitors_marked_nonrevocable, 0);
    assert!(report.threads[0].metrics.rollbacks >= 1, "writer revoked normally");
}

/// Figure 3: a volatile write inside a monitor read by an unmonitored
/// thread.
#[test]
fn figure3_volatile_read_blocks_revocation() {
    let mut pb = ProgramBuilder::new();
    pb.statics(3);
    pb.volatile_static(0); // vol
    let writer = pb.declare_method("writer", 2);
    let mut w = MethodBuilder::new(2, 3);
    w.sync_on_local(0, |b| {
        b.const_i(1);
        b.put_static(0); // vol = 1 (volatile write inside M)
        b.const_i(0);
        b.store(2);
        let top = b.here();
        b.load(2);
        b.load(1);
        let done = b.new_label();
        b.if_ge(done);
        b.get_static(1);
        b.const_i(1);
        b.add();
        b.put_static(1);
        b.load(2);
        b.const_i(1);
        b.add();
        b.store(2);
        b.goto(top);
        b.place(done);
    });
    w.ret_void();
    pb.implement(writer, w);

    // T': spin on the volatile with no monitor at all.
    let reader = pb.declare_method("reader", 0);
    let mut r = MethodBuilder::new(0, 0);
    let spin = r.here();
    r.get_static(0);
    let seen = r.new_label();
    r.if_non_zero(seen);
    r.goto(spin);
    r.place(seen);
    r.const_i(1);
    r.put_static(2);
    r.ret_void();
    pb.implement(reader, r);

    let contender = pb.declare_method("contender", 1);
    let mut c = MethodBuilder::new(1, 1);
    c.const_i(60_000);
    c.sleep();
    c.sync_on_local(0, |b| {
        b.get_static(1);
        b.pop();
    });
    c.ret_void();
    pb.implement(contender, c);

    let mut vm = Vm::new(pb.finish(), VmConfig::modified());
    let m = vm.heap_mut().alloc(0, 0);
    vm.spawn("T", writer, vec![Value::Ref(m), Value::Int(50_000)], Priority::LOW);
    vm.spawn("T'", reader, vec![], Priority::LOW);
    vm.spawn("Th", contender, vec![Value::Ref(m)], Priority::HIGH);
    let report = vm.run().expect("run");
    assert_eq!(vm.read_static(2).unwrap(), Value::Int(1), "reader saw the volatile");
    assert!(report.global.monitors_marked_nonrevocable >= 1);
    assert_eq!(report.threads[0].metrics.rollbacks, 0, "M must not be revoked");
    assert!(report.global.inversions_unresolved >= 1);
}

/// Figure 4: T′ loops on `sync(inner){ if (v) break }` while T publishes
/// `v` from `sync(outer){ sync(inner){ v = true } … }`. Re-scheduling T′
/// fully before T is semantically impossible; our guard instead lets T′
/// observe the value and pins `outer` non-revocable. Both terminate.
#[test]
fn figure4_semantic_dependency_terminates() {
    let mut pb = ProgramBuilder::new();
    pb.statics(2);
    let t = pb.declare_method("T", 3);
    let mut w = MethodBuilder::new(3, 4);
    w.sync_on_local(0, |b| {
        b.sync_on_local(1, |b| {
            b.const_i(1);
            b.put_static(0); // v = true
        });
        // keep outer busy for a while
        b.const_i(0);
        b.store(3);
        let top = b.here();
        b.load(3);
        b.load(2);
        let done = b.new_label();
        b.if_ge(done);
        b.get_static(1);
        b.const_i(1);
        b.add();
        b.put_static(1);
        b.load(3);
        b.const_i(1);
        b.add();
        b.store(3);
        b.goto(top);
        b.place(done);
    });
    w.ret_void();
    pb.implement(t, w);

    let tprime = pb.declare_method("Tprime", 1);
    let mut r = MethodBuilder::new(1, 2);
    let top = r.here();
    r.const_i(0);
    r.store(1);
    r.sync_on_local(0, |b| {
        b.get_static(0);
        b.store(1);
    });
    r.load(1);
    let brk = r.new_label();
    r.if_non_zero(brk);
    r.goto(top);
    r.place(brk);
    r.ret_void();
    pb.implement(tprime, r);

    let mut vm = Vm::new(pb.finish(), VmConfig::modified());
    let outer = vm.heap_mut().alloc(0, 0);
    let inner = vm.heap_mut().alloc(0, 0);
    vm.spawn("T", t, vec![Value::Ref(outer), Value::Ref(inner), Value::Int(30_000)], Priority::LOW);
    vm.spawn("T'", tprime, vec![Value::Ref(inner)], Priority::LOW);
    let report = vm.run().expect("terminates — T' saw v");
    assert!(report.global.monitors_marked_nonrevocable >= 1);
    assert!(report.threads.iter().all(|t| t.uncaught.is_none()));
}

/// §2.2: a native call inside a monitor forces non-revocability of the
/// monitor and all enclosing ones.
#[test]
fn native_call_forces_nonrevocability() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let low = pb.declare_method("low", 2);
    let mut b = MethodBuilder::new(2, 3);
    b.sync_on_local(0, |b| {
        b.const_i(7);
        b.native(NativeOp::Emit); // irrevocable effect
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
    pb.implement(low, b);
    let high = pb.declare_method("high", 1);
    let mut h = MethodBuilder::new(1, 1);
    h.const_i(40_000);
    h.sleep();
    h.sync_on_local(0, |b| {
        b.get_static(0);
        b.pop();
    });
    h.ret_void();
    pb.implement(high, h);
    let mut vm = Vm::new(pb.finish(), VmConfig::modified());
    let m = vm.heap_mut().alloc(0, 0);
    vm.spawn("low", low, vec![Value::Ref(m), Value::Int(50_000)], Priority::LOW);
    vm.spawn("high", high, vec![Value::Ref(m)], Priority::HIGH);
    let report = vm.run().expect("run");
    assert!(report.global.monitors_marked_nonrevocable >= 1);
    assert_eq!(report.threads[0].metrics.rollbacks, 0);
    assert!(report.global.inversions_unresolved >= 1);
    assert_eq!(report.output, vec![Value::Int(7)], "native effect happened once");
}

/// §2.2: `wait` inside a *nested* monitor forces non-revocability of the
/// enclosing monitors (a revoked wait would un-deliver a notify).
#[test]
fn nested_wait_forces_nonrevocability() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let waiter = pb.declare_method("waiter", 2);
    let mut w = MethodBuilder::new(2, 2);
    w.sync_on_local(0, |b| {
        b.sync_on_local(1, |b| {
            b.wait_on_local(1);
        });
    });
    w.ret_void();
    pb.implement(waiter, w);
    let notifier = pb.declare_method("notifier", 1);
    let mut n = MethodBuilder::new(1, 1);
    n.const_i(50_000);
    n.sleep();
    n.sync_on_local(0, |b| {
        b.notify_all_local(0);
    });
    n.ret_void();
    pb.implement(notifier, n);
    let mut vm = Vm::new(pb.finish(), VmConfig::modified());
    let outer = vm.heap_mut().alloc(0, 0);
    let inner = vm.heap_mut().alloc(0, 0);
    vm.spawn("waiter", waiter, vec![Value::Ref(outer), Value::Ref(inner)], Priority::LOW);
    vm.spawn("notifier", notifier, vec![Value::Ref(inner)], Priority::NORM);
    let report = vm.run().expect("run");
    assert!(report.global.monitors_marked_nonrevocable >= 2, "both enclosing sections flagged");
}

/// Figure 3 variant with *object-field* volatiles (declared via the
/// allocation-time volatile mask) instead of volatile statics.
#[test]
fn volatile_object_field_blocks_revocation() {
    let mut pb = ProgramBuilder::new();
    pb.statics(2);
    // writer(lock, obj, iters): sync(lock){ obj.vol = 1; <loop> }
    let writer = pb.declare_method("writer", 3);
    let mut w = MethodBuilder::new(3, 4);
    w.sync_on_local(0, |b| {
        b.load(1);
        b.const_i(1);
        b.put_field(0); // volatile field write inside the monitor
        b.repeat(3, 50_000, |b| {
            b.get_static(1);
            b.const_i(1);
            b.add();
            b.put_static(1);
        });
    });
    w.ret_void();
    pb.implement(writer, w);
    // reader(obj): spin on the volatile field with no monitor
    let reader = pb.declare_method("reader", 1);
    let mut r = MethodBuilder::new(1, 1);
    let spin = r.here();
    r.load(0);
    r.get_field(0);
    let seen = r.new_label();
    r.if_non_zero(seen);
    r.goto(spin);
    r.place(seen);
    r.ret_void();
    pb.implement(reader, r);
    let contender = pb.declare_method("contender", 1);
    let mut c = MethodBuilder::new(1, 1);
    c.const_i(60_000);
    c.sleep();
    c.sync_on_local(0, |b| {
        b.get_static(1);
        b.pop();
    });
    c.ret_void();
    pb.implement(contender, c);

    let mut vm = Vm::new(pb.finish(), VmConfig::modified());
    let lock = vm.heap_mut().alloc(0, 0);
    let obj = vm.heap_mut().alloc_with_volatile(0, 1, 0b1); // field 0 volatile
    vm.spawn("T", writer, vec![Value::Ref(lock), Value::Ref(obj), Value::Int(0)], Priority::LOW);
    vm.spawn("T'", reader, vec![Value::Ref(obj)], Priority::LOW);
    vm.spawn("Th", contender, vec![Value::Ref(lock)], Priority::HIGH);
    let report = vm.run().expect("run terminates");
    assert!(report.global.monitors_marked_nonrevocable >= 1);
    assert_eq!(report.threads[0].metrics.rollbacks, 0, "pinned by the volatile read");
    assert!(report.global.inversions_unresolved >= 1);
}
