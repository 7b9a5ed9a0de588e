//! Configuration-matrix conformance: a battery of small deterministic
//! programs, each with a statically known expected result, executed under
//! *every* supported VM configuration. The §2 compliance requirement says
//! program-observable behaviour must not depend on the mechanism — so the
//! expected values must hold under every policy, scheduler, queue
//! discipline, detection strategy, elision setting, and strictness mode.

use revmon_core::{DetectionStrategy, InversionPolicy, Priority, QueueDiscipline};
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::{CatchKind, MethodId, NativeOp, Program};
use revmon_vm::value::Value;
use revmon_vm::{SchedulerKind, Vm, VmConfig};

/// All configurations worth sweeping.
fn configs() -> Vec<(String, VmConfig)> {
    let mut out = Vec::new();
    for (vm_name, base) in
        [("unmodified", VmConfig::unmodified()), ("modified", VmConfig::modified())]
    {
        for (sched_name, sched) in
            [("rr", SchedulerKind::RoundRobin), ("prio", SchedulerKind::PriorityPreemptive)]
        {
            for (q_name, q) in [("pq", QueueDiscipline::Priority), ("fifo", QueueDiscipline::Fifo)]
            {
                let mut c = base;
                c.scheduler = sched;
                c.queue_discipline = q;
                out.push((format!("{vm_name}/{sched_name}/{q_name}"), c));
            }
        }
    }
    // Extra modified-VM variants.
    let mut bg = VmConfig::modified();
    bg.detection = DetectionStrategy::Background { period: 10_000 };
    out.push(("modified/background-detect".into(), bg));
    out.push(("modified/elision".into(), VmConfig::modified().with_elision()));
    let mut guard = VmConfig::modified();
    guard.max_consecutive_revocations = 2;
    out.push(("modified/livelock-guard".into(), guard));
    let mut pi = VmConfig::unmodified();
    pi.policy = InversionPolicy::PriorityInheritance;
    pi.scheduler = SchedulerKind::PriorityPreemptive;
    out.push(("pi/preemptive".into(), pi));
    let mut ceil = VmConfig::unmodified();
    ceil.policy = InversionPolicy::PriorityCeiling(Priority::MAX);
    out.push(("ceiling/rr".into(), ceil));
    out
}

struct Case {
    name: &'static str,
    program: Program,
    entry: MethodId,
    threads: usize,
    args: fn(usize, &mut Vm) -> Vec<Value>,
    expected_static0: i64,
}

/// Shared monitor counter: N threads × K increments each.
fn case_counter() -> Case {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let run = pb.declare_method("run", 1);
    let mut b = MethodBuilder::new(1, 2);
    b.const_i(0);
    b.store(1);
    let top = b.here();
    b.load(1);
    b.const_i(400);
    let done = b.new_label();
    b.if_ge(done);
    b.sync_on_local(0, |b| {
        b.get_static(0);
        b.const_i(1);
        b.add();
        b.put_static(0);
    });
    b.load(1);
    b.const_i(1);
    b.add();
    b.store(1);
    b.goto(top);
    b.place(done);
    b.ret_void();
    pb.implement(run, b);
    Case {
        name: "counter",
        program: pb.finish(),
        entry: run,
        threads: 4,
        args: |_, vm| {
            // all threads share lock object 0 (allocated by the harness)
            vec![Value::Ref(first_lock(vm))]
        },
        expected_static0: 4 * 400,
    }
}

/// Nested monitors, consistent order.
fn case_nested() -> Case {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let run = pb.declare_method("run", 2);
    let mut b = MethodBuilder::new(2, 3);
    b.const_i(0);
    b.store(2);
    let top = b.here();
    b.load(2);
    b.const_i(100);
    let done = b.new_label();
    b.if_ge(done);
    b.sync_on_local(0, |b| {
        b.sync_on_local(1, |b| {
            b.get_static(0);
            b.const_i(3);
            b.add();
            b.put_static(0);
        });
    });
    b.load(2);
    b.const_i(1);
    b.add();
    b.store(2);
    b.goto(top);
    b.place(done);
    b.ret_void();
    pb.implement(run, b);
    Case {
        name: "nested",
        program: pb.finish(),
        entry: run,
        threads: 3,
        args: |_, vm| vec![Value::Ref(first_lock(vm)), Value::Ref(second_lock(vm))],
        expected_static0: 3 * 100 * 3,
    }
}

/// Exceptions inside sections: each iteration throws, catches outside,
/// keeps the pre-throw update (Java semantics).
fn case_exceptions() -> Case {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let run = pb.declare_method("run", 1);
    let mut b = MethodBuilder::new(1, 2);
    b.const_i(0);
    b.store(1);
    let top = b.here();
    b.load(1);
    b.const_i(50);
    let done = b.new_label();
    b.if_ge(done);
    b.try_catch(
        CatchKind::Class(7),
        |b| {
            b.sync_on_local(0, |b| {
                b.get_static(0);
                b.const_i(1);
                b.add();
                b.put_static(0);
                b.throw_new(7);
            });
        },
        |b| {
            b.pop();
        },
    );
    b.load(1);
    b.const_i(1);
    b.add();
    b.store(1);
    b.goto(top);
    b.place(done);
    b.ret_void();
    pb.implement(run, b);
    Case {
        name: "exceptions",
        program: pb.finish(),
        entry: run,
        threads: 3,
        args: |_, vm| vec![Value::Ref(first_lock(vm))],
        expected_static0: 3 * 50,
    }
}

/// Synchronized method with a native call (irrevocable path).
fn case_native() -> Case {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let bump = pb.declare_method("bump", 1);
    let mut m = MethodBuilder::new(1, 1);
    m.set_synchronized();
    m.get_static(0);
    m.const_i(1);
    m.add();
    m.put_static(0);
    m.const_i(0);
    m.native(NativeOp::Emit);
    m.ret_void();
    pb.implement(bump, m);
    let run = pb.declare_method("run", 1);
    let mut b = MethodBuilder::new(1, 2);
    b.const_i(0);
    b.store(1);
    let top = b.here();
    b.load(1);
    b.const_i(60);
    let done = b.new_label();
    b.if_ge(done);
    b.load(0);
    b.call(bump);
    b.load(1);
    b.const_i(1);
    b.add();
    b.store(1);
    b.goto(top);
    b.place(done);
    b.ret_void();
    pb.implement(run, b);
    Case {
        name: "native-in-sync-method",
        program: pb.finish(),
        entry: run,
        threads: 3,
        args: |_, vm| vec![Value::Ref(first_lock(vm))],
        expected_static0: 3 * 60,
    }
}

// The harness pre-allocates two lock objects before spawning; these
// helpers fetch them (objects 0 and 1).
fn first_lock(_vm: &mut Vm) -> revmon_vm::value::ObjRef {
    revmon_vm::value::ObjRef(0)
}
fn second_lock(_vm: &mut Vm) -> revmon_vm::value::ObjRef {
    revmon_vm::value::ObjRef(1)
}

fn run_case(case: &Case, cfg: VmConfig) -> i64 {
    let mut vm = Vm::new(case.program.clone(), cfg);
    vm.heap_mut().alloc(0, 0); // lock 0
    vm.heap_mut().alloc(0, 0); // lock 1
    for t in 0..case.threads {
        let prio = if t == 0 { Priority::HIGH } else { Priority::LOW };
        let args = (case.args)(t, &mut vm);
        vm.spawn(&format!("t{t}"), case.entry, args, prio);
    }
    let report = vm.run().unwrap_or_else(|e| panic!("case {} faulted: {e}", case.name));
    for t in &report.threads {
        assert_eq!(t.uncaught, None, "case {}: uncaught exception", case.name);
    }
    match vm.read_static(0).unwrap() {
        Value::Int(i) => i,
        v => panic!("{v:?}"),
    }
}

#[test]
fn every_configuration_preserves_program_semantics() {
    let cases = vec![case_counter(), case_nested(), case_exceptions(), case_native()];
    for case in &cases {
        for (cfg_name, cfg) in configs() {
            let got = run_case(case, cfg);
            assert_eq!(
                got, case.expected_static0,
                "case `{}` diverged under config `{}`",
                case.name, cfg_name
            );
        }
    }
}
