//! Parity of the batched loop (`Vm::run_local`) with one-`step`-at-a-time
//! execution.
//!
//! Every program here runs through `Vm::run` as shipped, and with
//! `step_only` set, which makes `run_local` run nothing so that every
//! instruction goes through `step`. Result, `steps`, clock, every
//! counter, output, the event trace and both fingerprints (frames,
//! locals, operand stacks, undo logs and live JMM stamps included) must
//! agree — in particular at each way out of the fast loop in the middle
//! of a run. Each pair runs bare and again under a recording [`Probe`],
//! which must see the same hook calls in the same order from both tiers
//! and change nothing else. Programs are built as raw `Insn`s and loaded
//! with `new_unverified`, because the verifier rejects most of the
//! malformed ones on sight.

use crate::builder::{MethodBuilder, ProgramBuilder};
use crate::bytecode::{CatchKind, Handler, Insn, Method, MethodId, NativeOp, Program, SyncRegion};
use crate::heap::Location;
use crate::interp::{ARITH_TAG, NPE_TAG, OOB_TAG, OOM_TAG};
use crate::value::{ObjRef, Value, ValueError};
use crate::{Probe, Vm, VmConfig, VmError};
use proptest::prelude::*;
use revmon_core::{Metrics, Priority, ThreadId};
use revmon_obs::{Event, EventKind};
use std::any::Any;

/// One probe hook call.
#[derive(Debug, PartialEq)]
enum Seen {
    Enter(ThreadId, ObjRef),
    Read(ThreadId, Location, Value),
    Write(ThreadId, Location, Value, Value, bool),
    Commit(ThreadId, ObjRef),
    Rollback(ThreadId, ObjRef, u64),
}

/// A probe that writes down every hook call in order.
#[derive(Default)]
struct Recorder(Vec<Seen>);

impl Probe for Recorder {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn on_section_enter(&mut self, _: &Vm, tid: ThreadId, m: ObjRef) {
        self.0.push(Seen::Enter(tid, m));
    }
    fn on_heap_write(
        &mut self,
        tid: ThreadId,
        loc: Location,
        old: Value,
        new: Value,
        logged: bool,
    ) {
        self.0.push(Seen::Write(tid, loc, old, new, logged));
    }
    fn on_heap_read(&mut self, tid: ThreadId, loc: Location, v: Value) {
        self.0.push(Seen::Read(tid, loc, v));
    }
    fn on_commit(&mut self, _: &Vm, tid: ThreadId, m: ObjRef) {
        self.0.push(Seen::Commit(tid, m));
    }
    fn on_rollback(&mut self, _: &Vm, tid: ThreadId, m: ObjRef, entries: u64) {
        self.0.push(Seen::Rollback(tid, m, entries));
    }
}

/// Everything a run can be told apart by.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<(), VmError>,
    steps: u64,
    clock: u64,
    metrics: Metrics,
    output: Vec<Value>,
    uncaught: Vec<Option<u32>>,
    trace: Vec<Event>,
    state: u64,
    heap: u64,
    /// What the recording probe saw, when one was attached.
    seen: Option<Vec<Seen>>,
}

/// A thread to start: which method, on what, how urgent.
struct Th {
    method: u32,
    args: Vec<Value>,
    prio: Priority,
}

/// `n` threads of equal priority on method 0.
fn threads(n: usize) -> Vec<Th> {
    (0..n).map(|_| Th { method: 0, args: vec![], prio: Priority::NORM }).collect()
}

/// The object of three fields every run starts with.
const OBJ: Value = Value::Ref(ObjRef(0));
/// The array of [`ARR_LEN`] every run starts with.
const ARR: Value = Value::Ref(ObjRef(1));
const ARR_LEN: i64 = 4;
/// Static slots of every program here.
const STATICS: u32 = 2;

fn program(code: Vec<Insn>, locals: u16, handlers: Vec<Handler>) -> Program {
    Program {
        methods: vec![Method {
            name: "main".into(),
            params: 0,
            locals,
            code,
            handlers,
            sync_regions: vec![],
            synchronized: false,
            rollback_scopes: vec![],
        }],
        n_statics: STATICS,
        ..Program::default()
    }
}

fn observe(program: &Program, cfg: VmConfig, ths: &[Th], step_only: bool, probe: bool) -> Observed {
    // No program here is meant to run long; one that loops by mistake
    // must not fill memory with trace events.
    let cfg = if cfg.max_steps == 0 { cfg.with_max_steps(100_000) } else { cfg };
    let mut vm = Vm::new_unverified(std::sync::Arc::new(program.clone()), cfg.with_trace());
    vm.step_only = step_only;
    assert_eq!(Value::Ref(vm.heap.alloc(7, 3)), OBJ);
    assert_eq!(Value::Ref(vm.heap.alloc_array(ARR_LEN as u32)), ARR);
    if probe {
        vm.attach_probe(Box::<Recorder>::default());
    }
    for (i, t) in ths.iter().enumerate() {
        vm.spawn(&format!("t{i}"), MethodId(t.method), t.args.clone(), t.prio);
    }
    let result = vm.run().map(|_| ());
    let report = vm.report();
    let recorder = vm.detach_probe().map(|p| p.into_any().downcast::<Recorder>().expect("ours"));
    Observed {
        result,
        steps: vm.steps,
        clock: vm.clock,
        metrics: report.global,
        output: report.output,
        uncaught: report.threads.iter().map(|t| t.uncaught).collect(),
        trace: vm.take_trace(),
        state: vm.state_fingerprint(),
        heap: vm.heap_fingerprint(),
        seen: recorder.map(|r| r.0),
    }
}

/// Run batched and step-only, bare and probed, require the tiers to
/// agree and the probe to change nothing, return what the probed runs
/// saw.
fn parity_of(program: &Program, cfg: VmConfig, ths: &[Th]) -> Observed {
    let pair = |probe| {
        let batched = observe(program, cfg, ths, false, probe);
        let stepped = observe(program, cfg, ths, true, probe);
        assert_eq!(
            batched, stepped,
            "batched (left) vs step-only (right), probe {probe}, {cfg:?} on {:?}",
            program.methods
        );
        batched
    };
    let bare = pair(false);
    let mut probed = pair(true);
    let seen = probed.seen.take();
    assert_eq!(probed, bare, "attaching a probe changed the run");
    probed.seen = seen;
    probed
}

/// [`parity_of`] for `n` equal threads on method 0.
fn parity(program: &Program, cfg: VmConfig, n: usize) -> Observed {
    parity_of(program, cfg, &threads(n))
}

fn cfg() -> VmConfig {
    VmConfig::unmodified()
}

/// A few instructions run in the fast loop, then `insn` must fault from
/// a stack of `have` operands.
fn underflow_case(insn: Insn, have: usize) {
    let mut code = vec![Insn::Const(Value::Int(1)), Insn::Pop, Insn::Nop];
    code.extend(std::iter::repeat_n(Insn::Const(Value::Int(3)), have));
    let fault_pc = code.len() as u32;
    code.extend([insn, Insn::RetVoid]);
    let o = parity(&program(code, 1, vec![]), cfg(), 1);
    // `step` advances the pc before executing, so the fault names pc + 1.
    assert_eq!(
        o.result,
        Err(VmError::StackUnderflow { method: "main".into(), pc: fault_pc + 1 }),
        "{insn:?} on {have} operands"
    );
    assert_eq!(o.metrics.instructions, fault_pc as u64 + 1, "the faulting instruction counts");
}

#[test]
fn operand_stack_underflow_on_each_arity() {
    for insn in
        [Insn::Pop, Insn::Dup, Insn::Store(0), Insn::Neg, Insn::IfZero(0), Insn::IfNonZero(0)]
    {
        underflow_case(insn, 0);
    }
    for insn in [
        Insn::Swap,
        Insn::Add,
        Insn::Sub,
        Insn::Mul,
        Insn::Div,
        Insn::Rem,
        Insn::IfLt(0),
        Insn::IfGe(0),
        Insn::IfEq(0),
        Insn::IfNe(0),
    ] {
        underflow_case(insn, 0);
        underflow_case(insn, 1);
    }
}

#[test]
fn store_and_load_past_the_locals() {
    for insn in [Insn::Load(2), Insn::Store(2)] {
        let code = vec![Insn::Const(Value::Int(1)), Insn::Dup, insn, Insn::RetVoid];
        let o = parity(&program(code, 2, vec![]), cfg(), 1);
        assert_eq!(o.result, Err(VmError::Internal("local index out of range")), "{insn:?}");
        assert_eq!(o.steps, 3);
    }
}

#[test]
fn reference_where_an_integer_is_needed() {
    for insn in [Insn::Add, Insn::Mul, Insn::Rem, Insn::Neg, Insn::IfLt(0), Insn::IfGe(0)] {
        for operands in [[Value::Int(1), OBJ], [OBJ, Value::Int(1)]] {
            let code = vec![
                Insn::Nop,
                Insn::Const(operands[0]),
                Insn::Const(operands[1]),
                insn,
                Insn::RetVoid,
            ];
            let o = parity(&program(code, 0, vec![]), cfg(), 1);
            // `Neg` only looks at the top operand.
            if insn == Insn::Neg && operands[1] != OBJ {
                assert_eq!(o.result, Ok(()));
            } else {
                assert_eq!(
                    o.result,
                    Err(VmError::Value(ValueError::ExpectedInt)),
                    "{insn:?} on {operands:?}"
                );
            }
        }
    }
}

#[test]
fn arithmetic_traps_reach_a_handler_in_the_same_method() {
    for (insn, a, b) in
        [(Insn::Div, 7, 0), (Insn::Rem, 7, 0), (Insn::Div, i64::MIN, -1), (Insn::Rem, i64::MIN, -1)]
    {
        let code = vec![
            Insn::Const(Value::Int(5)),
            Insn::Store(0),
            Insn::Const(Value::Int(a)),
            Insn::Const(Value::Int(b)),
            insn, // pc 4: traps
            Insn::Native(NativeOp::Emit),
            Insn::Goto(10),
            // pc 7: the handler — exception object on the stack
            Insn::Pop,
            Insn::Const(Value::Int(99)),
            Insn::Native(NativeOp::Emit),
            // pc 10
            Insn::Load(0),
            Insn::Native(NativeOp::Emit),
            Insn::RetVoid,
        ];
        let handler = Handler { start: 0, end: 7, target: 7, kind: CatchKind::Class(ARITH_TAG) };
        let o = parity(&program(code, 1, vec![handler]), cfg(), 1);
        assert_eq!(o.result, Ok(()), "{insn:?} {a} {b}");
        assert_eq!(o.output, [Value::Int(99), Value::Int(5)], "{insn:?} {a} {b}");
        assert_eq!(o.uncaught, [None]);
    }
    // Uncaught, the same trap kills the thread the same way.
    let code =
        vec![Insn::Const(Value::Int(1)), Insn::Const(Value::Int(0)), Insn::Div, Insn::RetVoid];
    let o = parity(&program(code, 0, vec![]), cfg(), 1);
    assert_eq!(o.uncaught, [Some(ARITH_TAG)]);
}

#[test]
fn falling_off_the_end_of_a_method() {
    let code = vec![Insn::Const(Value::Int(1)), Insn::Pop, Insn::Goto(3)];
    let o = parity(&program(code, 0, vec![]), cfg(), 1);
    assert_eq!(o.result, Err(VmError::BadPc { method: "main".into(), pc: 3 }));
    // The attempt to fetch at pc 3 was counted as a step, not as an
    // instruction.
    assert_eq!((o.steps, o.metrics.instructions), (4, 3));
}

/// A counting loop whose body is one long frame-local stretch.
fn counting_loop(iters: i64) -> Program {
    let code = vec![
        Insn::Const(Value::Int(0)),
        Insn::Store(0),
        // pc 2: loop head
        Insn::Load(0),
        Insn::Const(Value::Int(iters)),
        Insn::IfGe(11),
        Insn::Load(0),
        Insn::Const(Value::Int(1)),
        Insn::Add,
        Insn::Dup,
        Insn::Store(0),
        Insn::IfNonZero(2), // back-edge: a yield point
        // pc 11
        Insn::Load(0),
        Insn::Native(NativeOp::Emit),
        Insn::RetVoid,
    ];
    program(code, 1, vec![])
}

#[test]
fn max_steps_expiring_at_every_position_of_a_local_run() {
    let p = counting_loop(4);
    let full = parity(&p, cfg(), 1);
    assert_eq!(full.result, Ok(()));
    assert_eq!(full.output, [Value::Int(4)]);
    for limit in 1..full.steps {
        let o = parity(&p, cfg().with_max_steps(limit), 1);
        assert_eq!(o.result, Err(VmError::StepLimit(limit)));
        assert_eq!((o.steps, o.metrics.instructions), (limit + 1, limit));
    }
    let o = parity(&p, cfg().with_max_steps(full.steps), 1);
    assert_eq!(o, full, "a budget of exactly the run's length changes nothing");
}

#[test]
fn quantum_expiry_rotates_threads_at_the_same_back_edges() {
    let mut c = cfg();
    c.cost.quantum = 13; // runs out in the middle of an iteration
    let o = parity(&counting_loop(50), c, 3);
    assert_eq!(o.result, Ok(()));
    assert_eq!(o.output, [Value::Int(50); 3]);
    assert!(o.metrics.context_switches > 30, "slices must interleave: {:?}", o.metrics);
}

#[test]
fn batched_clock_charge_saturates_like_the_stepped_one() {
    let mut c = cfg();
    c.cost.instruction = u64::MAX / 3;
    let o = parity(&counting_loop(2), c, 1);
    assert_eq!(o.result, Ok(()));
    assert_eq!(o.clock, u64::MAX);
}

// --- shared accesses ---------------------------------------------------

/// The configurations a shared access behaves differently under: no
/// barriers at all, the modified VM, the modified VM with the elision
/// table consulted on every store, and write barriers without the JMM
/// guard's read barrier.
fn configs() -> [VmConfig; 4] {
    let mut unguarded = VmConfig::modified();
    unguarded.jmm_guard = false;
    [VmConfig::unmodified(), VmConfig::modified(), VmConfig::modified().with_elision(), unguarded]
}

/// `before`, then `body` inside a section on [`OBJ`] — entered with a
/// raw `MonitorEnter`, so there is nothing to roll back to, but declared
/// as a region, so the elision analysis knows its stores need their
/// barrier — then `after`.
fn around_section(before: Vec<Insn>, body: Vec<Insn>, after: Vec<Insn>) -> Program {
    let mut code = before;
    code.extend([Insn::Const(OBJ), Insn::MonitorEnter]);
    let enter = code.len() as u32 - 1;
    code.extend(body);
    code.extend([Insn::Const(OBJ), Insn::MonitorExit]);
    let exit = code.len() as u32;
    code.extend(after);
    code.push(Insn::RetVoid);
    let mut p = program(code, 2, vec![]);
    p.methods[0].sync_regions.push(SyncRegion { enter, exit });
    p
}

/// The tail of a loop that counts `local` down to zero: decrement it and
/// branch back to `head` — a yield point — while it is not there yet.
fn count_down(local: u16, head: u32) -> [Insn; 6] {
    [
        Insn::Load(local),
        Insn::Const(Value::Int(-1)),
        Insn::Add,
        Insn::Dup,
        Insn::Store(local),
        Insn::IfNonZero(head),
    ]
}

/// A short frame-local stretch, `operands` pushed, then `insn`: what the
/// fast loop is in the middle of when the access comes up.
fn access(operands: &[Value], insn: Insn) -> Vec<Insn> {
    let mut code = vec![Insn::Const(Value::Int(1)), Insn::Pop, Insn::Nop];
    code.extend(operands.iter().copied().map(Insn::Const));
    code.push(insn);
    code
}

/// Run `insn` on `operands` inside and outside a section under every
/// configuration, and hand each outcome to `check`.
fn each_way(operands: &[Value], insn: Insn, check: impl Fn(&Observed)) {
    for cfg in configs() {
        for inside in [true, false] {
            let p = if inside {
                around_section(vec![], access(operands, insn), vec![])
            } else {
                around_section(vec![], vec![], access(operands, insn))
            };
            let o = parity(&p, cfg, 1);
            check(&o);
        }
    }
}

const INT: Value = Value::Int(3);

/// Each shared opcode with operands that are all in order: receiver
/// first, then index, then the value to store.
fn well_formed() -> [(Insn, Vec<Value>); 6] {
    [
        (Insn::GetField(1), vec![OBJ]),
        (Insn::PutField(1), vec![OBJ, INT]),
        (Insn::ALoad, vec![ARR, Value::Int(2)]),
        (Insn::AStore, vec![ARR, Value::Int(2), INT]),
        (Insn::GetStatic(1), vec![]),
        (Insn::PutStatic(1), vec![INT]),
    ]
}

#[test]
fn well_formed_accesses_run_and_count_the_same() {
    for (insn, operands) in well_formed() {
        each_way(&operands, insn, |o| {
            assert_eq!(o.result, Ok(()), "{insn:?}");
            assert_eq!(o.uncaught, [None], "{insn:?}");
        });
    }
    // The barrier did what the configuration says, in both tiers.
    let store = around_section(vec![], access(&[ARR, Value::Int(2), INT], Insn::AStore), vec![]);
    let counts = |cfg| {
        let m = parity(&store, cfg, 1).metrics;
        (m.barrier_fast_paths, m.barrier_slow_paths, m.log_entries, m.barriers_elided)
    };
    let [unmodified, modified, eliding, unguarded] = configs();
    assert_eq!(counts(unmodified), (0, 0, 0, 0));
    assert_eq!(counts(modified), (1, 1, 1, 0));
    assert_eq!(counts(eliding), (1, 1, 1, 0));
    assert_eq!(counts(unguarded), (1, 1, 1, 0));
    let outside = around_section(vec![], vec![], access(&[INT], Insn::PutStatic(0)));
    let m = parity(&outside, eliding, 1).metrics;
    assert_eq!((m.barrier_fast_paths, m.barriers_elided), (0, 1));
}

#[test]
fn null_receiver_throws_and_a_number_for_one_faults() {
    for (insn, operands) in well_formed().into_iter().take(4) {
        let with_receiver = |r| [&[r][..], &operands[1..]].concat();
        each_way(&with_receiver(Value::Null), insn, |o| {
            assert_eq!(o.result, Ok(()), "{insn:?}");
            assert_eq!(o.uncaught, [Some(NPE_TAG)], "{insn:?}");
        });
        each_way(&with_receiver(INT), insn, |o| {
            assert_eq!(o.result, Err(VmError::Value(ValueError::ExpectedRef)), "{insn:?}");
        });
        each_way(&with_receiver(Value::Ref(ObjRef(77))), insn, |o| {
            assert!(matches!(o.result, Err(VmError::Heap(_))), "{insn:?}: {:?}", o.result);
        });
    }
}

#[test]
fn array_index_of_the_wrong_kind_or_out_of_range() {
    for (insn, operands) in [(Insn::ALoad, vec![ARR, INT]), (Insn::AStore, vec![ARR, INT, INT])] {
        let with_index = |i| [&operands[..1], &[i][..], &operands[2..]].concat();
        each_way(&with_index(OBJ), insn, |o| {
            assert_eq!(o.result, Err(VmError::Value(ValueError::ExpectedInt)), "{insn:?}");
        });
        // Past either end, by one and by as much as an integer allows —
        // the last two do not fit the heap's 32-bit offsets and used to
        // wrap around into the array.
        for i in [-1, ARR_LEN, i64::MIN, i64::MAX, 1 << 32, (1 << 32) + 1] {
            each_way(&with_index(Value::Int(i)), insn, |o| {
                assert_eq!(o.result, Ok(()), "{insn:?} at {i}");
                assert_eq!(o.uncaught, [Some(OOB_TAG)], "{insn:?} at {i}");
                assert_eq!(o.metrics.log_entries, 0, "{insn:?} at {i} stored nothing");
            });
        }
        // `Null` reads as 0 wherever an integer is wanted.
        each_way(&with_index(Value::Null), insn, |o| assert_eq!(o.uncaught, [None]));
    }
}

#[test]
fn array_length_past_32_bits_is_out_of_memory() {
    // `(1 << 32) + 2` used to allocate an array of 2.
    for n in [(1 << 32) + 2, 1 << 32, i64::MAX] {
        each_way(&[Value::Int(n)], Insn::NewArray, |o| {
            assert_eq!(o.result, Ok(()), "length {n}");
            assert_eq!(o.uncaught, [Some(OOM_TAG)], "length {n}");
        });
    }
    let code = vec![
        Insn::Const(Value::Int(2)),
        Insn::NewArray,
        Insn::ArrayLen,
        Insn::Native(NativeOp::Emit),
        Insn::RetVoid,
    ];
    assert_eq!(parity(&program(code, 0, vec![]), cfg(), 1).output, [Value::Int(2)]);
}

#[test]
fn field_or_static_slot_out_of_range() {
    let cases = [
        (Insn::GetField(3), vec![OBJ]),
        (Insn::PutField(3), vec![OBJ, INT]),
        (Insn::GetStatic(STATICS as u16), vec![]),
        (Insn::PutStatic(STATICS as u16), vec![INT]),
    ];
    for (insn, operands) in cases {
        each_way(&operands, insn, |o| {
            assert_eq!(o.result, Ok(()), "{insn:?}");
            assert_eq!(o.uncaught, [Some(OOB_TAG)], "{insn:?}");
        });
    }
}

#[test]
fn shared_access_on_an_operand_stack_one_short() {
    for (insn, operands) in well_formed() {
        let Some((_, short)) = operands.split_first() else { continue };
        each_way(short, insn, |o| {
            assert!(
                matches!(o.result, Err(VmError::StackUnderflow { .. })),
                "{insn:?} on {short:?}: {:?}",
                o.result
            );
        });
    }
}

/// All six shared opcodes before, inside and after a section, with a
/// loop in the section so that a short quantum rotates threads there.
fn every_access() -> Program {
    let six = |k: i64| {
        let mut code = Vec::new();
        for (insn, operands) in well_formed() {
            code.extend(operands.iter().map(|&v| match v {
                INT => Insn::Const(Value::Int(k)),
                v => Insn::Const(v),
            }));
            code.push(insn);
        }
        code
    };
    let before = six(10);
    let mut body = six(20);
    // local 0 counts 3 → 0, stored to static 0 — logged — and read back
    // once per iteration.
    body.extend([Insn::Const(Value::Int(3)), Insn::Store(0)]);
    let head = (before.len() + 2 + body.len()) as u32;
    body.extend([Insn::Load(0), Insn::PutStatic(0), Insn::GetStatic(0), Insn::Pop]);
    body.extend(count_down(0, head));
    let mut after = six(30);
    after.extend([Insn::GetStatic(1), Insn::Native(NativeOp::Emit)]);
    around_section(before, body, after)
}

#[test]
fn max_steps_expiring_on_each_shared_access() {
    let p = every_access();
    for cfg in configs() {
        let full = parity(&p, cfg, 1);
        assert_eq!(full.result, Ok(()));
        assert_eq!(full.output, [Value::Int(30)]);
        for limit in 1..full.steps {
            let o = parity(&p, cfg.with_max_steps(limit), 1);
            assert_eq!(o.result, Err(VmError::StepLimit(limit)));
            assert_eq!((o.steps, o.metrics.instructions), (limit + 1, limit));
        }
    }
}

#[test]
fn quantum_expiry_inside_a_section_of_shared_accesses() {
    let p = every_access();
    for mut cfg in configs() {
        cfg.cost.quantum = 7;
        let o = parity(&p, cfg, 3);
        assert_eq!(o.result, Ok(()));
        assert_eq!(o.output, [Value::Int(30); 3]);
    }
}

#[test]
fn barrier_charges_saturate_like_the_stepped_ones() {
    let p = every_access();
    let near = u64::MAX - 2;
    let half = u64::MAX / 2 + 1;
    // One charge pegs the clock; only the sum of the two does; only many
    // of them do.
    for (fast, slow) in [(near, 1), (1, near), (half, half), (u64::MAX / 5, u64::MAX / 7)] {
        let mut cfg = VmConfig::modified();
        cfg.cost.barrier_fast = fast;
        cfg.cost.barrier_slow = slow;
        let o = parity(&p, cfg, 1);
        assert_eq!(o.result, Ok(()));
        assert_eq!(o.clock, u64::MAX, "barrier costs {fast} + {slow}");
    }
}

#[test]
fn reading_another_threads_speculative_write_leaves_the_fast_loop() {
    // Thread 0 stores to static 0 inside a section and then spins past
    // its quantum; thread 1, outside any section and in the middle of a
    // frame-local stretch, reads the word. The fast arm must not answer:
    // `step` has to take thread 0's section out of revocation's reach.
    let mut body = vec![
        Insn::Const(Value::Int(5)),
        Insn::PutStatic(0),
        Insn::Const(Value::Int(40)),
        Insn::Store(0),
    ];
    body.extend(count_down(0, 6)); // spin, from pc 6
    let writer = around_section(vec![], body, vec![]);
    let reader = vec![
        Insn::Const(Value::Int(1)),
        Insn::Const(Value::Int(2)),
        Insn::Add,
        Insn::GetStatic(0),
        Insn::Add,
        Insn::Native(NativeOp::Emit),
        Insn::RetVoid,
    ];
    let mut p = writer;
    p.methods.push(program(reader, 0, vec![]).methods.remove(0));
    let ths = [
        Th { method: 0, args: vec![], prio: Priority::NORM },
        Th { method: 1, args: vec![], prio: Priority::NORM },
    ];
    let mut cfg = VmConfig::modified();
    cfg.cost.quantum = 60;
    let o = parity_of(&p, cfg, &ths);
    assert_eq!(o.result, Ok(()));
    assert_eq!(o.output, [Value::Int(8)], "the reader saw the speculative 5");
    assert_eq!(o.metrics.monitors_marked_nonrevocable, 1);
    let marks: Vec<&Event> = o.trace.iter().filter(|e| e.kind == EventKind::NonRevocable).collect();
    assert_eq!(marks.len(), 1, "{:?}", o.trace);
    assert_eq!((marks[0].thread, marks[0].monitor), (0, 0), "thread 0's section on OBJ");
    // `step` told the probe about the read the arm declined.
    let seen = o.seen.expect("probed");
    assert!(seen.contains(&Seen::Read(ThreadId(1), Location::Static(0), Value::Int(5))));
    // Without the guard there is nothing to leave the loop for.
    cfg.jmm_guard = false;
    assert_eq!(parity_of(&p, cfg, &ths).metrics.monitors_marked_nonrevocable, 0);
}

#[test]
fn the_probe_sees_a_revocation_the_same_from_both_tiers() {
    // run(lock, arr, iters, pause): sleep, then one section of `iters`
    // array and static updates. A low-priority thread is in the middle
    // of its section when a high-priority one wakes up and wants in.
    let mut pb = ProgramBuilder::new();
    pb.statics(STATICS);
    let mut b = MethodBuilder::new(4, 5);
    b.load(3);
    b.sleep();
    b.sync_on_local(0, |b| {
        b.for_loop(
            4,
            |b| b.load(2),
            |b| {
                b.load(1);
                b.load(4);
                b.const_i(ARR_LEN);
                b.rem();
                b.load(4);
                b.astore();
                b.add_static(0, 1);
            },
        );
    });
    b.ret_void();
    pb.add_method("run", b);
    let p = crate::rewrite_program(&pb.finish());
    let th = |pause, prio| Th {
        method: 0,
        args: vec![OBJ, ARR, Value::Int(50), Value::Int(pause)],
        prio,
    };
    let ths = [th(600, Priority::HIGH), th(1, Priority::LOW)];
    let mut cfg = VmConfig::modified();
    cfg.cost.quantum = 200;
    let o = parity_of(&p, cfg, &ths);
    assert_eq!(o.result, Ok(()));
    assert_eq!(o.metrics.rollbacks, 1, "{:?}", o.metrics);
    let seen = o.seen.expect("probed");
    let rolled_back = seen
        .iter()
        .position(|s| matches!(s, Seen::Rollback(ThreadId(1), _, n) if *n > 0))
        .expect("the low-priority thread's rollback");
    assert!(seen[..rolled_back].contains(&Seen::Enter(ThreadId(1), ObjRef(0))));
    let logged = |s: &&Seen| matches!(s, Seen::Write(ThreadId(1), _, _, _, true));
    assert!(seen[..rolled_back].iter().filter(logged).count() > 0);
    assert_eq!(seen.iter().filter(|s| matches!(s, Seen::Commit(..))).count(), 2);
}

// --- random programs ---------------------------------------------------

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        8 => (-3i64..6).prop_map(Value::Int),
        1 => Just(Value::Int(i64::MIN)),
        1 => Just(Value::Int(1 << 32)),
        1 => Just(Value::Null),
        3 => Just(OBJ),
        3 => Just(ARR),
        // Allocated by the program, if at all.
        1 => (2u32..5).prop_map(|r| Value::Ref(ObjRef(r))),
    ]
}

/// One instruction of the fast loop's set, or one that makes something
/// for it to access; branch targets and local, field and static indices
/// reach a little past what is valid.
fn fast_insn(len: u32) -> impl Strategy<Value = Insn> {
    let target = 0..len + 2;
    prop_oneof![
        8 => value().prop_map(Insn::Const),
        4 => (0u16..4).prop_map(Insn::Load),
        3 => (0u16..4).prop_map(Insn::Store),
        2 => Just(Insn::Dup),
        1 => Just(Insn::Pop),
        1 => Just(Insn::Swap),
        2 => Just(Insn::Add),
        1 => Just(Insn::Sub),
        1 => Just(Insn::Mul),
        1 => Just(Insn::Div),
        1 => Just(Insn::Rem),
        1 => Just(Insn::Neg),
        1 => Just(Insn::Nop),
        1 => target.clone().prop_map(Insn::Goto),
        1 => target.clone().prop_map(Insn::IfZero),
        1 => target.clone().prop_map(Insn::IfNonZero),
        1 => target.clone().prop_map(Insn::IfLt),
        1 => target.clone().prop_map(Insn::IfGe),
        1 => target.clone().prop_map(Insn::IfEq),
        1 => target.prop_map(Insn::IfNe),
        2 => (0u16..4).prop_map(Insn::GetField),
        2 => (0u16..4).prop_map(Insn::PutField),
        2 => Just(Insn::ALoad),
        2 => Just(Insn::AStore),
        2 => (0u16..STATICS as u16 + 1).prop_map(Insn::GetStatic),
        2 => (0u16..STATICS as u16 + 1).prop_map(Insn::PutStatic),
        1 => Just(Insn::ArrayLen),
        1 => Just(Insn::NewArray),
        1 => (0u16..3).prop_map(|fields| Insn::New { class_tag: 9, fields, volatile_mask: 1 }),
    ]
}

/// Where a branch in a [`snippet`] goes: `BACK` instructions before the
/// snippet's first when it says 0.
const BACK: u32 = 4;

/// An instruction that pushes something to use as a receiver, usually a
/// reference to a live object.
fn receiver() -> impl Strategy<Value = Insn> {
    prop_oneof![
        12 => Just(Insn::Const(OBJ)),
        12 => Just(Insn::Const(ARR)),
        2 => (0u16..3).prop_map(Insn::Load),
        1 => Just(Insn::Const(Value::Null)),
        1 => Just(Insn::Const(INT)),
        1 => (2u32..5).prop_map(|r| Insn::Const(Value::Ref(ObjRef(r)))),
    ]
}

/// An instruction that pushes something to use as an array index or
/// length, usually a small number.
fn index() -> impl Strategy<Value = Insn> {
    prop_oneof![
        15 => Just(Insn::Const(Value::Int(0))),
        15 => (0..ARR_LEN).prop_map(|i| Insn::Const(Value::Int(i))),
        2 => (0u16..3).prop_map(Insn::Load),
        1 => Just(Insn::Const(Value::Int(-1))),
        1 => Just(Insn::Const(Value::Int(ARR_LEN))),
        1 => Just(Insn::Const(Value::Int(1 << 32))),
        1 => Just(Insn::Const(Value::Null)),
        1 => Just(Insn::Const(OBJ)),
    ]
}

/// An instruction that pushes any value.
fn operand() -> impl Strategy<Value = Insn> {
    prop_oneof![3 => value().prop_map(Insn::Const), 1 => (0u16..3).prop_map(Insn::Load)]
}

/// A few instructions that leave the operand stack as deep as they
/// found it — a shared access with its operands pushed and its result
/// stored, mostly on operands that are in order — or, now and then, one
/// instruction of any kind. Locals 0–2 are scratch.
fn snippet() -> impl Strategy<Value = Vec<Insn>> {
    let local = || 0u16..3;
    // Often the first, so that the threads meet on a word; the last of
    // each is one too many.
    let field = || prop_oneof![6 => Just(0u16), 6 => 0u16..3, 1 => Just(3u16)];
    let slot =
        || prop_oneof![6 => Just(0u16), 6 => 0u16..STATICS as u16, 1 => Just(STATICS as u16)];
    let op = prop_oneof![Just(Insn::Add), Just(Insn::Mul), Just(Insn::Rem), Just(Insn::Swap)];
    prop_oneof![
        3 => (receiver(), field(), local()).prop_map(|(r, f, l)| vec![r, Insn::GetField(f), Insn::Store(l)]),
        3 => (receiver(), operand(), field()).prop_map(|(r, v, f)| vec![r, v, Insn::PutField(f)]),
        3 => (receiver(), index(), local()).prop_map(|(r, i, l)| vec![r, i, Insn::ALoad, Insn::Store(l)]),
        3 => (receiver(), index(), operand()).prop_map(|(r, i, v)| vec![r, i, v, Insn::AStore]),
        3 => (slot(), local()).prop_map(|(s, l)| vec![Insn::GetStatic(s), Insn::Store(l)]),
        3 => (operand(), slot()).prop_map(|(v, s)| vec![v, Insn::PutStatic(s)]),
        1 => (receiver(), local()).prop_map(|(r, l)| vec![r, Insn::ArrayLen, Insn::Store(l)]),
        1 => (index(), local()).prop_map(|(n, l)| vec![n, Insn::NewArray, Insn::Store(l)]),
        1 => (0u16..3, local()).prop_map(|(fields, l)| {
            vec![Insn::New { class_tag: 9, fields, volatile_mask: 1 }, Insn::Store(l)]
        }),
        2 => (operand(), operand(), op, local()).prop_map(|(a, b, op, l)| vec![a, b, op, Insn::Store(l)]),
        1 => fast_insn(2 * BACK).prop_map(|insn| vec![insn]),
        // The other thread's turn, wherever this one happens to be.
        3 => Just(vec![Insn::Yield]),
    ]
}

/// A [`snippet`], or one run a few times over by a loop on local 3 whose
/// back-edge is a yield point.
fn snippet_or_loop() -> impl Strategy<Value = Vec<Insn>> {
    prop_oneof![
        4 => snippet(),
        1 => (1i64..4, snippet()).prop_map(|(times, body)| {
            let mut code = vec![Insn::Const(Value::Int(times)), Insn::Store(3)];
            code.extend(body);
            code.extend(count_down(3, BACK + 2)); // to the body's first instruction
            code
        }),
    ]
}

/// The snippets as one stretch of code placed at `base`, every branch
/// made absolute and kept within the stretch (or just past its end).
fn stretch(base: u32, snippets: Vec<Vec<Insn>>) -> Vec<Insn> {
    let end = base + snippets.iter().map(Vec::len).sum::<usize>() as u32;
    let mut code = Vec::new();
    for snippet in snippets {
        let at = base + code.len() as u32;
        let to = |t: u32| (at + t).saturating_sub(BACK).clamp(base, end);
        code.extend(snippet.into_iter().map(|insn| match insn {
            Insn::Goto(t) => Insn::Goto(to(t)),
            Insn::IfZero(t) => Insn::IfZero(to(t)),
            Insn::IfNonZero(t) => Insn::IfNonZero(to(t)),
            Insn::IfLt(t) => Insn::IfLt(to(t)),
            Insn::IfGe(t) => Insn::IfGe(to(t)),
            Insn::IfEq(t) => Insn::IfEq(to(t)),
            Insn::IfNe(t) => Insn::IfNe(to(t)),
            other => other,
        }));
    }
    code
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random programs over the fast loop's opcode set — most of them
    /// malformed one way or another, the rest looping until the step
    /// budget stops them — run by two threads on a short quantum, with
    /// an `ArithmeticException` handler over the whole body.
    #[test]
    fn random_local_programs_run_the_same_batched_and_stepped(
        body in (4u32..24).prop_flat_map(|len| proptest::collection::vec(fast_insn(len), len as usize)),
        quantum in 1u32..40,
        max_steps in 1u32..300,
    ) {
        let end = body.len() as u32;
        let mut code = body;
        code.extend([Insn::RetVoid, Insn::Native(NativeOp::Emit), Insn::RetVoid]);
        let handler =
            Handler { start: 0, end, target: end + 1, kind: CatchKind::Class(ARITH_TAG) };
        let mut c = cfg().with_max_steps(max_steps as u64);
        c.cost.quantum = quantum as u64;
        parity(&program(code, 3, vec![handler]), c, 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// Mostly well-formed shared accesses around a section on the object
    /// both threads share: three random stretches — before, inside and
    /// after a raw `MonitorEnter … MonitorExit` — each branching only
    /// within itself, so that the declared region is the truth the
    /// elision analysis takes it for. Whatever is thrown lands in a
    /// catch-all handler after the region. Two threads on a short
    /// quantum read and overwrite each other's words, stamped ones
    /// included, under each of [`configs`].
    #[test]
    fn random_shared_accesses_run_the_same_batched_and_stepped(
        before in proptest::collection::vec(snippet_or_loop(), 0..5),
        inside in proptest::collection::vec(snippet_or_loop(), 1..8),
        after in proptest::collection::vec(snippet_or_loop(), 0..4),
        config in 0usize..4,
        quantum in 1u32..80,
        max_steps in 20u32..600,
    ) {
        let before = stretch(0, before);
        let inside = stretch(before.len() as u32 + 2, inside);
        let after = stretch((before.len() + 2 + inside.len() + 2) as u32, after);
        let mut p = around_section(before, inside, after);
        let m = &mut p.methods[0];
        let end = m.code.len() as u32;
        m.locals = 4;
        m.code.extend([Insn::Native(NativeOp::Emit), Insn::RetVoid]);
        m.handlers.push(Handler { start: 0, end, target: end, kind: CatchKind::All });
        let mut c = configs()[config].with_max_steps(max_steps as u64);
        c.cost.quantum = quantum as u64;
        parity(&p, c, 2);
    }
}
