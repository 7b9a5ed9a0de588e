//! Interpreter fundamentals: arithmetic, control flow, calls, arrays,
//! exceptions — everything the benchmark programs rely on.

use revmon_core::Priority;
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::CatchKind;
use revmon_vm::value::Value;
use revmon_vm::{Vm, VmConfig, ARITH_TAG, NPE_TAG, OOB_TAG};

fn run_single(pb: ProgramBuilder, entry: revmon_vm::bytecode::MethodId) -> Vm {
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified());
    vm.spawn("main", entry, vec![], Priority::NORM);
    vm.run().expect("run");
    vm
}

#[test]
fn arithmetic_chain() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    // ((7 + 3) * 5 - 2) / 4 % 5 = 12 % 5 ... compute: 10*5=50-2=48/4=12%5=2
    b.const_i(7);
    b.const_i(3);
    b.add();
    b.const_i(5);
    b.mul();
    b.const_i(2);
    b.sub();
    b.const_i(4);
    b.div();
    b.const_i(5);
    b.rem();
    b.put_static(0);
    b.ret_void();
    pb.implement(m, b);
    let vm = run_single(pb, m);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(2));
}

#[test]
fn loop_sums_first_n_integers() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 2);
    b.const_i(0);
    b.store(0); // i
    b.const_i(0);
    b.store(1); // sum
    let top = b.here();
    b.load(0);
    b.const_i(101);
    let done = b.new_label();
    b.if_ge(done);
    b.load(1);
    b.load(0);
    b.add();
    b.store(1);
    b.load(0);
    b.const_i(1);
    b.add();
    b.store(0);
    b.goto(top);
    b.place(done);
    b.load(1);
    b.put_static(0);
    b.ret_void();
    pb.implement(m, b);
    let vm = run_single(pb, m);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(5050));
}

#[test]
fn method_call_and_return_value() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let double = pb.declare_method("double", 1);
    let mut d = MethodBuilder::new(1, 1);
    d.load(0);
    d.const_i(2);
    d.mul();
    d.ret();
    pb.implement(double, d);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    b.const_i(21);
    b.call(double);
    b.put_static(0);
    b.ret_void();
    pb.implement(m, b);
    let vm = run_single(pb, m);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(42));
}

#[test]
fn recursion_factorial() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let fact = pb.declare_method("fact", 1);
    let mut f = MethodBuilder::new(1, 1);
    f.load(0);
    f.const_i(2);
    let recurse = f.new_label();
    f.if_ge(recurse);
    f.const_i(1);
    f.ret();
    f.place(recurse);
    f.load(0);
    f.load(0);
    f.const_i(1);
    f.sub();
    f.call(fact);
    f.mul();
    f.ret();
    pb.implement(fact, f);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    b.const_i(10);
    b.call(fact);
    b.put_static(0);
    b.ret_void();
    pb.implement(m, b);
    let vm = run_single(pb, m);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(3_628_800));
}

#[test]
fn arrays_store_and_sum() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 3);
    b.const_i(10);
    b.new_array();
    b.store(0); // arr
    b.const_i(0);
    b.store(1); // i
    let fill = b.here();
    b.load(1);
    b.const_i(10);
    let filled = b.new_label();
    b.if_ge(filled);
    b.load(0);
    b.load(1);
    b.load(1); // arr[i] = i
    b.astore();
    b.load(1);
    b.const_i(1);
    b.add();
    b.store(1);
    b.goto(fill);
    b.place(filled);
    // sum
    b.const_i(0);
    b.store(2);
    b.const_i(0);
    b.store(1);
    let sum = b.here();
    b.load(1);
    b.load(0);
    b.array_len();
    let done = b.new_label();
    b.if_ge(done);
    b.load(2);
    b.load(0);
    b.load(1);
    b.aload();
    b.add();
    b.store(2);
    b.load(1);
    b.const_i(1);
    b.add();
    b.store(1);
    b.goto(sum);
    b.place(done);
    b.load(2);
    b.put_static(0);
    b.ret_void();
    pb.implement(m, b);
    let vm = run_single(pb, m);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(45));
}

#[test]
fn object_fields_roundtrip() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 1);
    b.new_object(7, 2);
    b.store(0);
    b.load(0);
    b.const_i(11);
    b.put_field(0);
    b.load(0);
    b.const_i(31);
    b.put_field(1);
    b.load(0);
    b.get_field(0);
    b.load(0);
    b.get_field(1);
    b.add();
    b.put_static(0);
    b.ret_void();
    pb.implement(m, b);
    let vm = run_single(pb, m);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(42));
}

#[test]
fn try_catch_catches_matching_class() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    b.try_catch(
        CatchKind::Class(9),
        |b| {
            b.throw_new(9);
        },
        |b| {
            b.pop();
            b.const_i(1);
            b.put_static(0);
        },
    );
    b.ret_void();
    pb.implement(m, b);
    let vm = run_single(pb, m);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(1));
}

#[test]
fn uncaught_exception_terminates_thread() {
    let mut pb = ProgramBuilder::new();
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    b.throw_new(123);
    b.ret_void();
    pb.implement(m, b);
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified());
    vm.spawn("main", m, vec![], Priority::NORM);
    let report = vm.run().expect("vm itself survives");
    assert_eq!(report.threads[0].uncaught, Some(123));
}

#[test]
fn exception_propagates_through_frames() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let thrower = pb.declare_method("thrower", 0);
    let mut t = MethodBuilder::new(0, 0);
    t.throw_new(5);
    t.ret_void();
    pb.implement(thrower, t);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    b.try_catch(
        CatchKind::Class(5),
        |b| {
            b.call(thrower);
        },
        |b| {
            b.pop();
            b.const_i(99);
            b.put_static(0);
        },
    );
    b.ret_void();
    pb.implement(m, b);
    let vm = run_single(pb, m);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(99));
}

#[test]
fn finally_runs_on_both_paths() {
    let mut pb = ProgramBuilder::new();
    pb.statics(2);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 1);
    // normal path
    b.try_finally(
        0,
        |b| {
            b.const_i(1);
            b.put_static(0);
        },
        |b| {
            b.get_static(1);
            b.const_i(1);
            b.add();
            b.put_static(1);
        },
    );
    // exceptional path, caught outside
    b.try_catch(
        CatchKind::Class(3),
        |b| {
            b.try_finally(
                0,
                |b| {
                    b.throw_new(3);
                },
                |b| {
                    b.get_static(1);
                    b.const_i(1);
                    b.add();
                    b.put_static(1);
                },
            );
        },
        |b| {
            b.pop();
        },
    );
    b.ret_void();
    pb.implement(m, b);
    let vm = run_single(pb, m);
    assert_eq!(vm.read_static(1).unwrap(), Value::Int(2), "finally ran twice");
}

#[test]
fn builtin_npe_is_catchable() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    b.try_catch(
        CatchKind::Class(NPE_TAG),
        |b| {
            b.const_null();
            b.get_field(0);
            b.pop();
        },
        |b| {
            b.pop();
            b.const_i(1);
            b.put_static(0);
        },
    );
    b.ret_void();
    pb.implement(m, b);
    let vm = run_single(pb, m);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(1));
}

#[test]
fn builtin_oob_is_catchable() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 1);
    b.const_i(3);
    b.new_array();
    b.store(0);
    b.try_catch(
        CatchKind::Class(OOB_TAG),
        |b| {
            b.load(0);
            b.const_i(7);
            b.aload();
            b.pop();
        },
        |b| {
            b.pop();
            b.const_i(1);
            b.put_static(0);
        },
    );
    b.ret_void();
    pb.implement(m, b);
    let vm = run_single(pb, m);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(1));
}

#[test]
fn division_by_zero_throws_arith() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    b.try_catch(
        CatchKind::Class(ARITH_TAG),
        |b| {
            b.const_i(1);
            b.const_i(0);
            b.div();
            b.pop();
        },
        |b| {
            b.pop();
            b.const_i(1);
            b.put_static(0);
        },
    );
    b.ret_void();
    pb.implement(m, b);
    let vm = run_single(pb, m);
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(1));
}

#[test]
fn native_emit_reaches_output() {
    let mut pb = ProgramBuilder::new();
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    b.const_i(42);
    b.native(revmon_vm::bytecode::NativeOp::Emit);
    b.ret_void();
    pb.implement(m, b);
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified());
    vm.spawn("main", m, vec![], Priority::NORM);
    let report = vm.run().unwrap();
    assert_eq!(report.output, vec![Value::Int(42)]);
}

#[test]
fn sleep_advances_virtual_clock() {
    let mut pb = ProgramBuilder::new();
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    b.const_i(1_000_000);
    b.sleep();
    b.ret_void();
    pb.implement(m, b);
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified());
    vm.spawn("main", m, vec![], Priority::NORM);
    let report = vm.run().unwrap();
    assert!(report.clock >= 1_000_000);
}

/// Hostile operands must peg the virtual clock at `u64::MAX`: it used to
/// wrap in release builds (printing a negative `now`) and panic with
/// "attempt to add with overflow" in debug builds.
#[test]
fn virtual_clock_saturates_instead_of_wrapping() {
    let src = "\
.method main params=0 locals=0
    const 9223372036854775807
    work
    const 9223372036854775807
    work
    const 9223372036854775807
    work
    now
    native emit
    const 9223372036854775807
    sleep
    now
    native emit
    retvoid
.end
";
    for cfg in [VmConfig::unmodified(), VmConfig::modified()] {
        let program = revmon_vm::assemble(src).unwrap();
        let entry = program.method_by_name("main").unwrap();
        let mut vm = Vm::new(program, cfg);
        vm.spawn("main", entry, vec![], Priority::NORM);
        let report = vm.run().unwrap();
        assert_eq!(report.clock, u64::MAX);
        assert_eq!(report.output, vec![Value::Int(i64::MAX); 2]);
        assert_eq!(report.threads[0].end_time, u64::MAX);
    }
}

#[test]
fn rand_int_is_seed_deterministic_and_bounded() {
    let build = || {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let m = pb.declare_method("main", 0);
        let mut b = MethodBuilder::new(0, 0);
        b.const_i(1000);
        b.rand_int();
        b.put_static(0);
        b.ret_void();
        pb.implement(m, b);
        (pb, m)
    };
    let run = |seed: u64| {
        let (pb, m) = build();
        let mut vm = Vm::new(pb.finish(), VmConfig::unmodified().with_seed(seed));
        vm.spawn("main", m, vec![], Priority::NORM);
        vm.run().unwrap();
        match vm.read_static(0).unwrap() {
            Value::Int(i) => i,
            v => panic!("unexpected {v:?}"),
        }
    };
    let a = run(1);
    let b = run(1);
    let c = run(2);
    assert_eq!(a, b);
    assert!((0..1000).contains(&a));
    assert!((0..1000).contains(&c));
}

#[test]
fn step_limit_guards_infinite_loops() {
    let mut pb = ProgramBuilder::new();
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    let top = b.here();
    b.goto(top);
    pb.implement(m, b);
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified().with_max_steps(10_000));
    vm.spawn("main", m, vec![], Priority::NORM);
    assert!(matches!(vm.run(), Err(revmon_vm::VmError::StepLimit(_))));
}

#[test]
fn thread_timestamps_cover_run() {
    let mut pb = ProgramBuilder::new();
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    b.const_i(100);
    b.work();
    b.ret_void();
    pb.implement(m, b);
    let mut vm = Vm::new(pb.finish(), VmConfig::unmodified());
    vm.spawn("main", m, vec![], Priority::NORM);
    let report = vm.run().unwrap();
    let t = &report.threads[0];
    assert!(t.end_time > t.start_time);
    assert!(t.elapsed() >= 100);
}

#[test]
fn heap_object_limit_throws_catchable_oom() {
    use revmon_vm::OOM_TAG;
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 1);
    b.try_catch(
        CatchKind::Class(OOM_TAG),
        |b| {
            // allocate until the budget trips
            let top = b.here();
            b.new_object(0, 1);
            b.store(0);
            b.get_static(0);
            b.const_i(1);
            b.add();
            b.put_static(0);
            b.goto(top);
        },
        |b| {
            b.pop();
        },
    );
    b.ret_void();
    pb.implement(m, b);
    let mut cfg = VmConfig::unmodified();
    cfg.max_heap_objects = 100;
    let mut vm = Vm::new(pb.finish(), cfg);
    vm.spawn("main", m, vec![], Priority::NORM);
    let report = vm.run().expect("OOM is a program exception, not a fault");
    assert_eq!(report.threads[0].uncaught, None, "OOM was caught");
    // 100 successful allocations (the OOM object itself is exempt — it is
    // allocated by the VM for the throw).
    assert_eq!(vm.read_static(0).unwrap(), Value::Int(100));
}

#[test]
fn try_new_surfaces_verification_errors() {
    // A method that falls off the end fails verification at Vm::try_new.
    let p = revmon_vm::bytecode::Program {
        methods: vec![revmon_vm::bytecode::Method {
            name: "bad".into(),
            params: 0,
            locals: 0,
            code: vec![revmon_vm::bytecode::Insn::Nop],
            handlers: vec![],
            sync_regions: vec![],
            synchronized: false,
            rollback_scopes: vec![],
        }],
        n_statics: 0,
        volatile_statics: vec![],
        class_names: Default::default(),
    };
    let errs = Vm::try_new(p, VmConfig::unmodified()).err().expect("must fail");
    assert!(!errs.is_empty());
    assert!(errs[0].to_string().contains("falls off the end"));
}

#[test]
fn run_report_summary_mentions_key_counters() {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let m = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 0);
    b.const_i(1);
    b.put_static(0);
    b.ret_void();
    pb.implement(m, b);
    let mut vm = Vm::new(pb.finish(), VmConfig::modified());
    vm.spawn("main", m, vec![], Priority::NORM);
    let report = vm.run().unwrap();
    let s = report.summary();
    for key in ["virtual clock", "rollbacks", "deadlocks", "barriers", "instructions"] {
        assert!(s.contains(key), "summary missing `{key}`:\n{s}");
    }
}
