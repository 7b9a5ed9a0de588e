//! Monitor semantics: mutual exclusion, reentrancy, wait/notify,
//! exceptional exits, and synchronized methods.

mod common;

use common::counting_section_program;
use revmon_core::Priority;
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::CatchKind;
use revmon_vm::value::Value;
use revmon_vm::{Vm, VmConfig};

/// Mutual exclusion: interleaved read-modify-write under one monitor is
/// exact for any thread count, on both VM flavours.
#[test]
fn mutual_exclusion_is_exact() {
    for cfg in [VmConfig::unmodified(), VmConfig::modified()] {
        let (p, run) = counting_section_program();
        let mut vm = Vm::new(p, cfg);
        let lock = vm.heap_mut().alloc(0, 0);
        for i in 0..6 {
            vm.spawn(
                &format!("t{i}"),
                run,
                vec![Value::Ref(lock), Value::Int(2_000)],
                if i % 2 == 0 { Priority::LOW } else { Priority::HIGH },
            );
        }
        vm.run().expect("run");
        assert_eq!(vm.read_static(0).unwrap(), Value::Int(12_000));
    }
}

/// Without synchronization the same workload loses updates when a yield
/// point splits the read-modify-write (threads are pseudo-preemptive, so
/// the race needs a yield point between the read and the write — exactly
/// the Jikes RVM model).
#[test]
fn unsynchronized_counter_races() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let run = pb.declare_method("run", 1);
    let mut b = MethodBuilder::new(1, 2);
    b.const_i(0);
    b.store(1);
    let top = b.here();
    b.load(1);
    b.load(0);
    let done = b.new_label();
    b.if_ge(done);
    b.get_static(0);
    b.yield_point(); // split the read-modify-write across a context switch
    b.const_i(1);
    b.add();
    b.put_static(0);
    b.load(1);
    b.const_i(1);
    b.add();
    b.store(1);
    b.goto(top);
    b.place(done);
    b.ret_void();
    pb.implement(run, b);
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified());
    for i in 0..4 {
        vm.spawn(&format!("t{i}"), run, vec![Value::Int(30_000)], Priority::NORM);
    }
    vm.run().unwrap();
    let total = match vm.read_static(0).unwrap() {
        Value::Int(i) => i,
        v => panic!("{v:?}"),
    };
    assert!(total < 120_000, "expected lost updates, got {total}");
}

fn triple_reentrant_program() -> (revmon_vm::bytecode::Program, revmon_vm::bytecode::MethodId) {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let run = pb.declare_method("run", 1);
    let mut b = MethodBuilder::new(1, 1);
    b.sync_on_local(0, |b| {
        b.sync_on_local(0, |b| {
            b.sync_on_local(0, |b| {
                b.const_i(7);
                b.put_static(0);
            });
        });
    });
    b.ret_void();
    pb.implement(run, b);
    (pb.finish(), run)
}

#[test]
fn reentrant_acquisition_same_monitor() {
    for cfg in [VmConfig::unmodified(), VmConfig::modified()] {
        let (p, run) = triple_reentrant_program();
        let mut vm = Vm::new(p, cfg);
        let lock = vm.heap_mut().alloc(0, 0);
        vm.spawn("t", run, vec![Value::Ref(lock)], Priority::NORM);
        vm.run().expect("reentrancy works");
        assert_eq!(vm.read_static(0).unwrap(), Value::Int(7));
    }
}

#[test]
fn reentrant_acquisition_modified_vm() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let run = pb.declare_method("run", 1);
    let mut b = MethodBuilder::new(1, 1);
    b.sync_on_local(0, |b| {
        b.sync_on_local(0, |b| {
            b.const_i(7);
            b.put_static(0);
        });
    });
    b.ret_void();
    pb.implement(run, b);
    let mut vm = Vm::new(pb.finish(), VmConfig::modified());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("t", run, vec![Value::Ref(lock)], Priority::NORM);
    vm.run().expect("reentrancy works");
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(7));
}

/// A user exception thrown inside a synchronized block releases the
/// monitor (javac's synthetic handler semantics) and keeps the updates.
fn throwing_section_program() -> (revmon_vm::bytecode::Program, revmon_vm::bytecode::MethodId) {
    let mut pb = ProgramBuilder::new();
    pb.statics(2);
    let run = pb.declare_method("run", 1);
    let mut b = MethodBuilder::new(1, 1);
    b.try_catch(
        CatchKind::Class(5),
        |b| {
            b.sync_on_local(0, |b| {
                b.const_i(1);
                b.put_static(0);
                b.throw_new(5);
            });
        },
        |b| {
            b.pop();
        },
    );
    // re-acquire to prove the monitor is free
    b.sync_on_local(0, |b| {
        b.const_i(2);
        b.put_static(1);
    });
    b.ret_void();
    pb.implement(run, b);
    (pb.finish(), run)
}

#[test]
fn exception_inside_section_releases_monitor() {
    for cfg in [VmConfig::unmodified(), VmConfig::modified()] {
        let (p, run) = throwing_section_program();
        let mut vm = Vm::new(p, cfg);
        let lock = vm.heap_mut().alloc(0, 0);
        vm.spawn("t", run, vec![Value::Ref(lock)], Priority::NORM);
        let report = vm.run().expect("no fault");
        assert_eq!(report.threads[0].uncaught, None);
        assert_eq!(vm.read_static(0).unwrap(), Value::Int(1), "updates kept");
        assert_eq!(vm.read_static(1).unwrap(), Value::Int(2), "monitor was released");
    }
}

/// Producer/consumer via wait/notify.
#[test]
fn wait_notify_handshake() {
    let mut pb = ProgramBuilder::new();
    pb.statics(2); // 0: flag, 1: result
    let consumer = pb.declare_method("consumer", 1);
    let mut c = MethodBuilder::new(1, 1);
    c.sync_on_local(0, |b| {
        let check = b.here();
        b.get_static(0);
        let go = b.new_label();
        b.if_non_zero(go);
        b.wait_on_local(0);
        b.goto(check);
        b.place(go);
        b.const_i(42);
        b.put_static(1);
    });
    c.ret_void();
    pb.implement(consumer, c);
    let producer = pb.declare_method("producer", 1);
    let mut p = MethodBuilder::new(1, 1);
    // give the consumer time to park first
    p.const_i(100_000);
    p.sleep();
    p.sync_on_local(0, |b| {
        b.const_i(1);
        b.put_static(0);
        b.notify_all_local(0);
    });
    p.ret_void();
    pb.implement(producer, p);
    let mut vm = Vm::new(pb.finish(), VmConfig::modified());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("consumer", consumer, vec![Value::Ref(lock)], Priority::NORM);
    vm.spawn("producer", producer, vec![Value::Ref(lock)], Priority::NORM);
    vm.run().expect("handshake completes");
    assert_eq!(vm.read_static(1).unwrap(), Value::Int(42));
}

/// `synchronized` methods (wrapped by the rewrite pass) provide mutual
/// exclusion just like synchronized blocks.
#[test]
fn synchronized_methods_are_exclusive() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let inc = pb.declare_method("inc", 2); // this, iters
    let mut b = MethodBuilder::new(2, 3);
    b.set_synchronized();
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
    b.ret_void();
    pb.implement(inc, b);
    let run = pb.declare_method("run", 2);
    let mut r = MethodBuilder::new(2, 2);
    r.load(0);
    r.load(1);
    r.call(inc);
    r.ret_void();
    pb.implement(run, r);
    let mut vm = Vm::new(pb.finish(), VmConfig::modified());
    let this = vm.heap_mut().alloc(0, 0);
    for i in 0..4 {
        vm.spawn(
            &format!("t{i}"),
            run,
            vec![Value::Ref(this), Value::Int(3_000)],
            if i == 0 { Priority::HIGH } else { Priority::LOW },
        );
    }
    let report = vm.run().expect("run");
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(12_000));
    // Synchronized methods go through the same revocation machinery.
    assert!(report.global.monitor_acquires >= 4);
}

/// `synchronized` methods returning values keep their return value across
/// the wrapper.
#[test]
fn synchronized_method_return_value() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let get = pb.declare_method("get", 1);
    let mut g = MethodBuilder::new(1, 1);
    g.set_synchronized();
    g.const_i(123);
    g.ret();
    pb.implement(get, g);
    let run = pb.declare_method("run", 1);
    let mut r = MethodBuilder::new(1, 1);
    r.load(0);
    r.call(get);
    r.put_static(0);
    r.ret_void();
    pb.implement(run, r);
    let mut vm = Vm::new(pb.finish(), VmConfig::modified());
    let this = vm.heap_mut().alloc(0, 0);
    vm.spawn("t", run, vec![Value::Ref(this)], Priority::NORM);
    vm.run().expect("run");
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(123));
}

/// Distinct monitors do not exclude each other: threads on different
/// locks interleave freely and both finish.
#[test]
fn independent_monitors_do_not_contend() {
    let (p, run) = counting_section_program();
    let mut vm = Vm::new(p, VmConfig::modified());
    let lock_a = vm.heap_mut().alloc(0, 0);
    let lock_b = vm.heap_mut().alloc(0, 0);
    vm.spawn("a", run, vec![Value::Ref(lock_a), Value::Int(5_000)], Priority::LOW);
    vm.spawn("b", run, vec![Value::Ref(lock_b), Value::Int(5_000)], Priority::HIGH);
    let report = vm.run().expect("run");
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(10_000));
    assert_eq!(report.global.contended_acquires, 0);
    assert_eq!(report.global.rollbacks, 0);
}

/// Exiting a monitor you do not own is an error.
#[test]
fn unbalanced_monitorexit_is_detected() {
    let mut pb = ProgramBuilder::new();
    let run = pb.declare_method("run", 1);
    let mut b = MethodBuilder::new(1, 1);
    b.load(0);
    b.monitor_exit_raw();
    b.ret_void();
    pb.implement(run, b);
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("t", run, vec![Value::Ref(lock)], Priority::NORM);
    assert!(matches!(vm.run(), Err(revmon_vm::VmError::IllegalMonitorState(_))));
}

/// `wait` without owning the monitor is an error.
#[test]
fn wait_without_ownership_is_detected() {
    let mut pb = ProgramBuilder::new();
    let run = pb.declare_method("run", 1);
    let mut b = MethodBuilder::new(1, 1);
    b.wait_on_local(0);
    b.ret_void();
    pb.implement(run, b);
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("t", run, vec![Value::Ref(lock)], Priority::NORM);
    assert!(matches!(vm.run(), Err(revmon_vm::VmError::IllegalMonitorState(_))));
}

/// A waiting thread with nobody to notify stalls the VM (lost wakeup is
/// reported, not silently hung).
#[test]
fn lost_wakeup_reports_stall() {
    let mut pb = ProgramBuilder::new();
    let run = pb.declare_method("run", 1);
    let mut b = MethodBuilder::new(1, 1);
    b.sync_on_local(0, |b| {
        b.wait_on_local(0);
    });
    b.ret_void();
    pb.implement(run, b);
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("t", run, vec![Value::Ref(lock)], Priority::NORM);
    assert!(matches!(vm.run(), Err(revmon_vm::VmError::Stalled(_))));
}

/// The per-monitor contention profile in the run report.
#[test]
fn monitor_reports_profile_contention() {
    let (p, run) = counting_section_program();
    let mut vm = Vm::new(p, VmConfig::modified());
    let hot = vm.heap_mut().alloc(0, 0);
    for i in 0..4 {
        vm.spawn(
            &format!("t{i}"),
            run,
            vec![Value::Ref(hot), Value::Int(2_000)],
            if i == 0 { Priority::HIGH } else { Priority::LOW },
        );
    }
    let report = vm.run().expect("run");
    assert_eq!(report.monitors.len(), 1);
    let m = &report.monitors[0];
    assert_eq!(m.object, hot);
    assert!(m.acquires >= 4, "each thread acquired at least once");
    assert!(m.contended >= 1);
    assert!(m.peak_queue >= 1 && m.peak_queue <= 3);
    // consistency with the global counters
    assert!(m.acquires >= report.global.monitor_acquires.min(4));
}

/// The combiner's drain budget: a holder releasing a monitor with twelve
/// submissions queued and a thread waiting to enter runs eight of them,
/// then hands the monitor to the waiter, which drains the other four on
/// its own release.
#[test]
fn combiner_hands_over_to_a_waiter_after_eight_drains() {
    use revmon_obs::EventKind;
    let src = "
.statics 1
.class 0 lock
.method bump params=0 locals=0
    getstatic s0
    const 1
    add
    putstatic s0
    getstatic s0
    ret
.end
.method holder params=1 locals=1
    sync l0 {
        const 100000
        sleep
    }
    retvoid
.end
.method submitter params=1 locals=2
    const 0
    store l1
loop:
    load l1
    const 12
    if_ge done
    load l0
    delegate bump
    pop
    load l1
    const 1
    add
    store l1
    goto loop
done:
    retvoid
.end
.method waiter params=1 locals=1
    sync l0 {
        nop
    }
    retvoid
.end
";
    let p = revmon_vm::assemble(src).expect("assembles");
    let [holder, submitter, waiter] =
        ["holder", "submitter", "waiter"].map(|n| p.method_by_name(n).expect("method"));
    let mut vm = Vm::new(p, VmConfig::modified().with_trace());
    let lock = vm.heap_mut().alloc(0, 0);
    let h = vm.spawn("holder", holder, vec![Value::Ref(lock)], Priority::NORM);
    vm.spawn("submitter", submitter, vec![Value::Ref(lock)], Priority::NORM);
    let w = vm.spawn("waiter", waiter, vec![Value::Ref(lock)], Priority::NORM);
    vm.run().expect("run");
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(12));
    let trace = vm.take_trace();
    let executors: Vec<u64> = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DelegateExecute { .. }))
        .map(|e| e.thread)
        .collect();
    let (h, w) = (h.0 as u64, w.0 as u64);
    assert_eq!(executors, [[h; 8].as_slice(), &[w; 4]].concat(), "the holder stops at 8");
}
