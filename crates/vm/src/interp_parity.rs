//! Parity of the batched frame-local loop (`Vm::run_local`) with
//! one-`step`-at-a-time execution.
//!
//! Every program here runs twice: through `Vm::run` as shipped, and with
//! `step_only` set, which makes `run_local` run nothing so that every
//! instruction goes through `step`. Result, `steps`, clock, every
//! counter, output and both fingerprints (frames, locals and operand
//! stacks included) must agree — in particular at each way out of the
//! fast loop in the middle of a run. Programs are built as raw `Insn`s
//! and loaded with `new_unverified`, because the verifier rejects most
//! of the malformed ones on sight.

use crate::bytecode::{CatchKind, Handler, Insn, Method, MethodId, NativeOp, Program};
use crate::interp::ARITH_TAG;
use crate::value::{ObjRef, Value, ValueError};
use crate::{Vm, VmConfig, VmError};
use proptest::prelude::*;
use revmon_core::{Metrics, Priority};

/// Everything a run can be told apart by.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<(), VmError>,
    steps: u64,
    clock: u64,
    metrics: Metrics,
    output: Vec<Value>,
    uncaught: Vec<Option<u32>>,
    state: u64,
    heap: u64,
}

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
        ..Program::default()
    }
}

fn observe(program: &Program, cfg: VmConfig, threads: usize, step_only: bool) -> Observed {
    let mut vm = Vm::new_unverified(std::sync::Arc::new(program.clone()), cfg);
    vm.step_only = step_only;
    for i in 0..threads {
        vm.spawn(&format!("t{i}"), MethodId(0), vec![], Priority::NORM);
    }
    let result = vm.run().map(|_| ());
    let report = vm.report();
    Observed {
        result,
        steps: vm.steps,
        clock: vm.clock,
        metrics: report.global,
        output: report.output,
        uncaught: report.threads.iter().map(|t| t.uncaught).collect(),
        state: vm.state_fingerprint(),
        heap: vm.heap_fingerprint(),
    }
}

/// Run batched and step-only, require them to agree, return what both saw.
fn parity(program: &Program, cfg: VmConfig, threads: usize) -> Observed {
    let batched = observe(program, cfg, threads, false);
    let stepped = observe(program, cfg, threads, true);
    assert_eq!(batched, stepped, "batched (left) vs step-only (right) on {:?}", program.methods[0]);
    batched
}

fn cfg() -> VmConfig {
    VmConfig::unmodified()
}

const REF: Value = Value::Ref(ObjRef(0));

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
        for operands in [[Value::Int(1), REF], [REF, Value::Int(1)]] {
            let code = vec![
                Insn::Nop,
                Insn::Const(operands[0]),
                Insn::Const(operands[1]),
                insn,
                Insn::RetVoid,
            ];
            let o = parity(&program(code, 0, vec![]), cfg(), 1);
            // `Neg` only looks at the top operand.
            if insn == Insn::Neg && operands[1] != REF {
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

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => (-3i64..4).prop_map(Value::Int),
        1 => Just(Value::Int(i64::MIN)),
        1 => Just(Value::Null),
        1 => Just(REF),
    ]
}

/// One instruction of the frame-local set; branch targets and local
/// indices reach a little past what is valid.
fn local_insn(len: u32) -> impl Strategy<Value = Insn> {
    let target = 0..len + 2;
    prop_oneof![
        6 => value().prop_map(Insn::Const),
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
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random programs over the frame-local opcode set — most of them
    /// malformed one way or another, the rest looping until the step
    /// budget stops them — run by two threads on a short quantum, with
    /// an `ArithmeticException` handler over the whole body.
    #[test]
    fn random_local_programs_run_the_same_batched_and_stepped(
        body in (4u32..24).prop_flat_map(|len| proptest::collection::vec(local_insn(len), len as usize)),
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
