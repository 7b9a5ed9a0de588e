//! Static program verification — the analogue of the JVM bytecode
//! verifier ([JVMS §4.10]).
//!
//! The paper's transformation operates at the bytecode level and must
//! preserve well-formedness: in particular the injected operand-stack
//! save/restore depends on a *consistent stack height at every pc*
//! ("The contents of the VM's operand stack before executing a
//! monitorenter operation must be the same at the first invocation and
//! at all subsequent invocations", §3.1.1). The verifier checks, by
//! abstract interpretation over stack heights:
//!
//! * every branch / handler target is in range,
//! * the operand stack never underflows and heights merge consistently
//!   at join points,
//! * every local index is within the method's frame,
//! * every `Call` target exists, and methods return consistently
//!   (all `Ret` or all `RetVoid`),
//! * control cannot fall off the end of a method,
//! * synchronized regions are well-formed (`MonitorEnter` at the entry
//!   pc, `MonitorExit` just before the exit pc).
//!
//! `Vm::new` runs the verifier on the final (post-rewrite) code of every
//! program, so a builder or rewrite-pass bug is caught at construction
//! time instead of as a runtime fault.

use crate::bytecode::{CatchKind, Insn, Method, Operand, Program};
use std::fmt;

/// A verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// Branch or handler target outside the method's code.
    TargetOutOfRange {
        /// Method name.
        method: String,
        /// Offending pc (or handler index for table entries).
        pc: u32,
        /// The bad target.
        target: u32,
    },
    /// Local-variable index ≥ the method's `locals`.
    LocalOutOfRange {
        /// Method name.
        method: String,
        /// Offending pc.
        pc: u32,
        /// The bad index.
        index: u16,
    },
    /// An instruction needs more operands than the stack holds.
    StackUnderflow {
        /// Method name.
        method: String,
        /// Offending pc.
        pc: u32,
        /// Operands required.
        needs: u16,
        /// Height on entry.
        have: u16,
    },
    /// Two control-flow paths reach the same pc with different stack
    /// heights.
    HeightMismatch {
        /// Method name.
        method: String,
        /// Join pc.
        pc: u32,
        /// Previously recorded height.
        expected: u16,
        /// Newly computed height.
        found: u16,
    },
    /// Control can run past the last instruction.
    FallsOffEnd {
        /// Method name.
        method: String,
        /// The pc that falls off.
        pc: u32,
    },
    /// `Call` names a method id outside the program.
    BadCallTarget {
        /// Method name.
        method: String,
        /// Offending pc.
        pc: u32,
        /// The bad method index.
        target: u32,
    },
    /// A method mixes `Ret` and `RetVoid`.
    InconsistentReturns {
        /// Method name.
        method: String,
    },
    /// A declared sync region is not bracketed by enter/exit.
    MalformedRegion {
        /// Method name.
        method: String,
        /// Region enter pc.
        enter: u32,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::TargetOutOfRange { method, pc, target } => {
                write!(f, "{method}@{pc}: target {target} out of range")
            }
            VerifyError::LocalOutOfRange { method, pc, index } => {
                write!(f, "{method}@{pc}: local {index} out of range")
            }
            VerifyError::StackUnderflow { method, pc, needs, have } => {
                write!(f, "{method}@{pc}: needs {needs} operands, stack holds {have}")
            }
            VerifyError::HeightMismatch { method, pc, expected, found } => {
                write!(f, "{method}@{pc}: stack height {found} joins path with height {expected}")
            }
            VerifyError::FallsOffEnd { method, pc } => {
                write!(f, "{method}@{pc}: control falls off the end")
            }
            VerifyError::BadCallTarget { method, pc, target } => {
                write!(f, "{method}@{pc}: call to nonexistent method {target}")
            }
            VerifyError::InconsistentReturns { method } => {
                write!(f, "{method}: mixes value and void returns")
            }
            VerifyError::MalformedRegion { method, enter } => {
                write!(f, "{method}: sync region at {enter} is not enter/exit bracketed")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Whether each method returns a value (scanned from its returns).
fn return_arities(p: &Program, errors: &mut Vec<VerifyError>) -> Vec<u16> {
    p.methods
        .iter()
        .map(|m| {
            let has_ret = m.code.iter().any(|i| matches!(i, Insn::Ret));
            let has_void = m.code.iter().any(|i| matches!(i, Insn::RetVoid));
            if has_ret && has_void {
                errors.push(VerifyError::InconsistentReturns { method: m.name.clone() });
            }
            u16::from(has_ret)
        })
        .collect()
}

fn verify_method(p: &Program, m: &Method, arities: &[u16], errors: &mut Vec<VerifyError>) {
    let n = m.code.len() as u32;
    let name = || m.name.clone();

    // Handler table sanity.
    for h in &m.handlers {
        if h.start > n || h.end > n || h.target >= n {
            errors.push(VerifyError::TargetOutOfRange {
                method: name(),
                pc: h.start,
                target: h.target,
            });
        }
    }
    // Region bracketing (post-rewrite, `enter` points at MonitorEnter and
    // `exit - 1` at the matching MonitorExit).
    for r in &m.sync_regions {
        let ok = r.enter < n
            && r.exit >= 1
            && r.exit <= n
            && matches!(m.code[r.enter as usize], Insn::MonitorEnter)
            && matches!(m.code[(r.exit - 1) as usize], Insn::MonitorExit);
        if !ok {
            errors.push(VerifyError::MalformedRegion { method: name(), enter: r.enter });
        }
    }

    // Abstract interpretation over stack heights.
    let mut height: Vec<Option<u16>> = vec![None; m.code.len()];
    let mut work: Vec<(u32, u16)> = vec![(0, 0)];
    for h in &m.handlers {
        if (h.target as usize) < m.code.len() {
            // JVM convention: handler entry sees only the exception on the
            // stack. Rollback handlers are intrinsic (height unused).
            let entry = if h.kind == CatchKind::Rollback { 0 } else { 1 };
            work.push((h.target, entry));
        }
    }

    let push_succ = |work: &mut Vec<(u32, u16)>, height: &mut Vec<Option<u16>>, pc: u32, h: u16| {
        if pc >= n {
            return Some(VerifyError::FallsOffEnd { method: m.name.clone(), pc });
        }
        match height[pc as usize] {
            None => {
                height[pc as usize] = Some(h);
                work.push((pc, h));
                None
            }
            Some(prev) if prev == h => None,
            Some(prev) => Some(VerifyError::HeightMismatch {
                method: m.name.clone(),
                pc,
                expected: prev,
                found: h,
            }),
        }
    };

    // Seed entry heights.
    let mut seeded = std::mem::take(&mut work);
    for (pc, h) in seeded.drain(..) {
        if let Some(e) = push_succ(&mut work, &mut height, pc, h) {
            errors.push(e);
        }
    }

    while let Some((pc, h)) = work.pop() {
        let insn = m.code[pc as usize];
        let op = insn.op();
        if let Operand::Local(i) = insn.operand() {
            if i >= m.locals {
                errors.push(VerifyError::LocalOutOfRange { method: name(), pc, index: i });
                continue;
            }
        }
        // The row's fixed effect, plus what a callee takes and returns.
        let (mut pops, mut pushes) = (op.pops, op.pushes);
        if let Operand::Method(callee) = insn.operand() {
            let Some(cm) = p.methods.get(callee.index()) else {
                errors.push(VerifyError::BadCallTarget { method: name(), pc, target: callee.0 });
                continue;
            };
            pops = pops.saturating_add(cm.params);
            if matches!(insn, Insn::Call(_)) {
                pushes += arities[callee.index()];
            }
        }
        if h < pops {
            errors.push(VerifyError::StackUnderflow { method: name(), pc, needs: pops, have: h });
            continue;
        }
        let out = h - pops + pushes;
        // Successors: the branch target first, then the next pc.
        let mut add = |target: u32, errors: &mut Vec<VerifyError>| {
            if target >= n {
                // Falling through past the last instruction is a missing
                // return; an explicit branch out of range is a bad target.
                errors.push(if target == pc + 1 {
                    VerifyError::FallsOffEnd { method: name(), pc }
                } else {
                    VerifyError::TargetOutOfRange { method: name(), pc, target }
                });
            } else if let Some(e) = push_succ(&mut work, &mut height, target, out) {
                errors.push(e);
            }
        };
        if let Some(target) = insn.target() {
            add(target, errors);
        }
        if op.flow.falls_through() {
            add(pc + 1, errors);
        }
    }
}

/// Verify a whole program. Returns all failures found (empty = valid).
pub fn verify_program(p: &Program) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    let arities = return_arities(p, &mut errors);
    for m in &p.methods {
        verify_method(p, m, &arities, &mut errors);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{MethodBuilder, ProgramBuilder};
    use crate::bytecode::MethodId;
    use crate::rewrite::rewrite_program;

    fn ok_program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let run = pb.declare_method("run", 1);
        let mut b = MethodBuilder::new(1, 2);
        b.sync_on_local(0, |b| {
            b.const_i(0);
            b.store(1);
            let top = b.here();
            b.load(1);
            b.const_i(10);
            let done = b.new_label();
            b.if_ge(done);
            b.get_static(0);
            b.const_i(1);
            b.add();
            b.put_static(0);
            b.load(1);
            b.const_i(1);
            b.add();
            b.store(1);
            b.goto(top);
            b.place(done);
        });
        b.ret_void();
        pb.implement(run, b);
        pb.finish()
    }

    #[test]
    fn builder_output_verifies() {
        assert_eq!(verify_program(&ok_program()), Ok(()));
    }

    #[test]
    fn rewritten_output_verifies() {
        // The rewrite pass must preserve well-formedness: consistent
        // heights across the injected SaveState and remapped branches.
        let r = rewrite_program(&ok_program());
        assert_eq!(verify_program(&r), Ok(()));
    }

    fn raw_method(code: Vec<Insn>, params: u16, locals: u16) -> Program {
        Program {
            methods: vec![Method {
                name: "m".into(),
                params,
                locals,
                code,
                handlers: vec![],
                sync_regions: vec![],
                synchronized: false,
                rollback_scopes: vec![],
            }],
            n_statics: 4,
            volatile_statics: vec![],
            class_names: Default::default(),
        }
    }

    #[test]
    fn detects_stack_underflow() {
        let p = raw_method(vec![Insn::Pop, Insn::RetVoid], 0, 0);
        let errs = verify_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, VerifyError::StackUnderflow { .. })));
    }

    #[test]
    fn detects_branch_out_of_range() {
        let p = raw_method(vec![Insn::Goto(99)], 0, 0);
        let errs = verify_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, VerifyError::TargetOutOfRange { .. })));
    }

    #[test]
    fn detects_falling_off_the_end() {
        let p = raw_method(vec![Insn::Nop], 0, 0);
        let errs = verify_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, VerifyError::FallsOffEnd { .. })));
    }

    #[test]
    fn detects_local_out_of_range() {
        let p = raw_method(vec![Insn::Load(5), Insn::Pop, Insn::RetVoid], 0, 2);
        let errs = verify_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, VerifyError::LocalOutOfRange { .. })));
    }

    #[test]
    fn detects_height_mismatch_at_join() {
        use Insn::*;
        // path A pushes 1 then joins; path B pushes 2 then joins.
        let code = vec![
            Const(crate::value::Value::Int(0)), // 0: push
            IfZero(4),                          // 1: pop, branch
            Const(crate::value::Value::Int(1)), // 2: height 0 -> 1
            Goto(6),                            // 3:
            Const(crate::value::Value::Int(1)), // 4: height 0 -> 1
            Const(crate::value::Value::Int(2)), // 5: height 1 -> 2
            Pop,                                // 6: join: 1 vs 2
            RetVoid,                            // 7
        ];
        let errs = verify_program(&raw_method(code, 0, 0)).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, VerifyError::HeightMismatch { .. })));
    }

    #[test]
    fn detects_inconsistent_returns() {
        use Insn::*;
        let code = vec![
            Const(crate::value::Value::Int(0)),
            IfZero(3),
            RetVoid,
            Const(crate::value::Value::Int(1)),
            Ret,
        ];
        let errs = verify_program(&raw_method(code, 0, 0)).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, VerifyError::InconsistentReturns { .. })));
    }

    #[test]
    fn detects_bad_call_target() {
        let p = raw_method(vec![Insn::Call(MethodId(9)), Insn::RetVoid], 0, 0);
        let errs = verify_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, VerifyError::BadCallTarget { .. })));
    }

    #[test]
    fn operands_beside_the_most_parameters_are_an_underflow_not_an_overflow() {
        // `spawn` pops the priority beside the callee's parameters:
        // 65 535 + 1 used to overflow (a panic in debug, "needs 0" in
        // release).
        let mut p = raw_method(vec![Insn::Spawn(MethodId(1)), Insn::Pop, Insn::RetVoid], 0, 0);
        p.methods.push(Method { name: "wide".into(), params: u16::MAX, ..p.methods[0].clone() });
        p.methods[1].code = vec![Insn::RetVoid];
        p.methods[1].locals = u16::MAX;
        let errs = verify_program(&p).unwrap_err();
        let wanted =
            VerifyError::StackUnderflow { method: "m".into(), pc: 0, needs: u16::MAX, have: 0 };
        assert_eq!(errs, vec![wanted]);
    }

    #[test]
    fn detects_malformed_region() {
        let mut p = raw_method(vec![Insn::Nop, Insn::RetVoid], 0, 0);
        p.methods[0].sync_regions = vec![crate::bytecode::SyncRegion { enter: 0, exit: 2 }];
        let errs = verify_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, VerifyError::MalformedRegion { .. })));
    }

    #[test]
    fn synchronized_method_wrappers_verify() {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let get = pb.declare_method("get", 1);
        let mut g = MethodBuilder::new(1, 1);
        g.set_synchronized();
        g.get_static(0);
        g.ret();
        pb.implement(get, g);
        let r = rewrite_program(&pb.finish());
        assert_eq!(verify_program(&r), Ok(()));
    }
}
