//! The post-`wait` restart point (§2.2, footnote 2): for a *non-nested*
//! monitor, `wait` releases the monitor and commits the pre-wait updates
//! (they became visible at the release); a later revocation of the
//! section therefore "does not reach beyond the point when wait was
//! called" — the section restarts just after the `wait`, re-acquiring the
//! monitor through the queue.

use revmon_core::Priority;
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::value::Value;
use revmon_vm::{Vm, VmConfig};

/// waiter(lock):
/// ```text
/// synchronized (lock) {
///     static0 = 11;            // pre-wait update
///     while (static1 == 0) wait();
///     static2 = 22;            // post-wait update
///     <long loop on static3>   // window for revocation
/// }
/// ```
/// notifier(lock): sleep; synchronized { static1 = 1; notifyAll; }
/// contender(lock): sleep longer; synchronized { read }  (HIGH priority)
fn build() -> (
    revmon_vm::bytecode::Program,
    revmon_vm::bytecode::MethodId,
    revmon_vm::bytecode::MethodId,
    revmon_vm::bytecode::MethodId,
) {
    let mut pb = ProgramBuilder::new();
    pb.statics(4);

    let waiter = pb.declare_method("waiter", 2);
    let mut w = MethodBuilder::new(2, 3);
    w.sync_on_local(0, |b| {
        b.const_i(11);
        b.put_static(0);
        let check = b.here();
        b.get_static(1);
        let go = b.new_label();
        b.if_non_zero(go);
        b.wait_on_local(0);
        b.goto(check);
        b.place(go);
        b.const_i(22);
        b.put_static(2);
        // long loop: revocation window
        b.const_i(0);
        b.store(2);
        let top = b.here();
        b.load(2);
        b.load(1);
        let done = b.new_label();
        b.if_ge(done);
        b.get_static(3);
        b.const_i(1);
        b.add();
        b.put_static(3);
        b.load(2);
        b.const_i(1);
        b.add();
        b.store(2);
        b.goto(top);
        b.place(done);
    });
    w.ret_void();
    pb.implement(waiter, w);

    let notifier = pb.declare_method("notifier", 1);
    let mut n = MethodBuilder::new(1, 1);
    n.const_i(30_000);
    n.sleep();
    n.sync_on_local(0, |b| {
        b.const_i(1);
        b.put_static(1);
        b.notify_all_local(0);
    });
    n.ret_void();
    pb.implement(notifier, n);

    let contender = pb.declare_method("contender", 1);
    let mut c = MethodBuilder::new(1, 1);
    c.const_i(120_000);
    c.sleep();
    c.sync_on_local(0, |b| {
        b.get_static(0);
        b.pop();
    });
    c.ret_void();
    pb.implement(contender, c);

    (pb.finish(), waiter, notifier, contender)
}

#[test]
fn post_wait_section_is_still_revocable() {
    let (p, waiter, notifier, contender) = build();
    let mut vm = Vm::new(p, VmConfig::modified());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("waiter", waiter, vec![Value::Ref(lock), Value::Int(60_000)], Priority::LOW);
    vm.spawn("notifier", notifier, vec![Value::Ref(lock)], Priority::NORM);
    vm.spawn("contender", contender, vec![Value::Ref(lock)], Priority::HIGH);
    let report = vm.run().expect("run completes");
    // The waiter's post-wait work was revoked and re-executed.
    let wt = &report.threads[0];
    assert!(wt.metrics.rollbacks >= 1, "post-wait section must be revocable");
    // Pre-wait update survived the rollback (committed at the wait).
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(11));
    // Post-wait updates were re-executed to completion.
    assert_eq!(vm.read_static(2).unwrap(), Value::Int(22));
    assert_eq!(vm.read_static(3).unwrap(), Value::Int(60_000));
}

#[test]
fn rollback_does_not_reach_beyond_the_wait() {
    // Trace-level check: the number of entries rolled back must only
    // cover post-wait writes (static2 + the loop), never the pre-wait
    // write to static0.
    let (p, waiter, notifier, contender) = build();
    let mut vm = Vm::new(p, VmConfig::modified().with_trace());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("waiter", waiter, vec![Value::Ref(lock), Value::Int(60_000)], Priority::LOW);
    vm.spawn("notifier", notifier, vec![Value::Ref(lock)], Priority::NORM);
    vm.spawn("contender", contender, vec![Value::Ref(lock)], Priority::HIGH);
    vm.run().expect("run");
    let trace = vm.take_trace();
    let rolled: u64 = trace
        .iter()
        .filter_map(|e| match e.kind {
            revmon_obs::EventKind::Rollback { entries, .. } => Some(entries),
            _ => None,
        })
        .sum();
    // post-wait log: 1 (static2) + up to 60_000 loop writes; pre-wait
    // write would add exactly one more if (wrongly) still logged, but the
    // stronger signal is static0 surviving:
    assert!(rolled >= 1);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(11));
}

#[test]
fn without_contender_wait_handshake_just_completes() {
    let (p, waiter, notifier, _contender) = build();
    let mut vm = Vm::new(p, VmConfig::modified());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("waiter", waiter, vec![Value::Ref(lock), Value::Int(1_000)], Priority::LOW);
    vm.spawn("notifier", notifier, vec![Value::Ref(lock)], Priority::NORM);
    let report = vm.run().expect("run");
    assert_eq!(report.global.rollbacks, 0);
    assert_eq!(vm.read_static(3).unwrap(), Value::Int(1_000));
}

#[test]
fn unmodified_vm_wait_handshake_same_result() {
    let (p, waiter, notifier, contender) = build();
    let mut vm = Vm::new(p, VmConfig::unmodified());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("waiter", waiter, vec![Value::Ref(lock), Value::Int(60_000)], Priority::LOW);
    vm.spawn("notifier", notifier, vec![Value::Ref(lock)], Priority::NORM);
    vm.spawn("contender", contender, vec![Value::Ref(lock)], Priority::HIGH);
    let report = vm.run().expect("run");
    assert_eq!(report.global.rollbacks, 0);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(11));
    assert_eq!(vm.read_static(2).unwrap(), Value::Int(22));
    assert_eq!(vm.read_static(3).unwrap(), Value::Int(60_000));
}

/// A `wait` executed in a *callee* frame of the section cannot use the
/// precise restart point (the callee's frame may be gone by revocation
/// time); it must take the conservative non-revocable path.
#[test]
fn callee_frame_wait_is_conservative() {
    let mut pb = ProgramBuilder::new();
    pb.statics(4);
    // helper(lock): the actual wait happens one frame below the section
    let helper = pb.declare_method("helper", 1);
    let mut hm = MethodBuilder::new(1, 1);
    let check = hm.here();
    hm.get_static(1);
    let go = hm.new_label();
    hm.if_non_zero(go);
    hm.wait_on_local(0);
    hm.goto(check);
    hm.place(go);
    hm.ret_void();
    pb.implement(helper, hm);

    let waiter = pb.declare_method("waiter", 2);
    let mut w = MethodBuilder::new(2, 3);
    w.sync_on_local(0, |b| {
        b.load(0);
        b.call(helper); // wait happens inside the call
        b.repeat(2, 40_000, |b| b.add_static(3, 1));
    });
    w.ret_void();
    pb.implement(waiter, w);

    let notifier = pb.declare_method("notifier", 1);
    let mut n = MethodBuilder::new(1, 1);
    n.const_i(30_000);
    n.sleep();
    n.sync_on_local(0, |b| {
        b.const_i(1);
        b.put_static(1);
        b.notify_all_local(0);
    });
    n.ret_void();
    pb.implement(notifier, n);

    let contender = pb.declare_method("contender", 1);
    let mut c = MethodBuilder::new(1, 1);
    c.const_i(120_000);
    c.sleep();
    c.sync_on_local(0, |b| {
        b.get_static(3);
        b.pop();
    });
    c.ret_void();
    pb.implement(contender, c);

    let mut vm = Vm::new(pb.finish(), VmConfig::modified());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("waiter", waiter, vec![Value::Ref(lock), Value::Int(0)], Priority::LOW);
    vm.spawn("notifier", notifier, vec![Value::Ref(lock)], Priority::NORM);
    vm.spawn("contender", contender, vec![Value::Ref(lock)], Priority::HIGH);
    let report = vm.run().expect("run completes without frame corruption");
    // The section was pinned non-revocable at the callee wait: no rollback,
    // the inversion goes unresolved, and the post-wait work completes once.
    assert_eq!(report.threads[0].metrics.rollbacks, 0);
    assert!(report.global.monitors_marked_nonrevocable >= 1);
    assert!(report.global.inversions_unresolved >= 1);
    assert_eq!(vm.read_static(3).unwrap(), Value::Int(40_000));
}
