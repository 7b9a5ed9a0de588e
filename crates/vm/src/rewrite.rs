//! The "bytecode rewriting" pass (§3.1.1).
//!
//! Mirrors the paper's BCEL transformation pipeline:
//!
//! 1. **Synchronized methods** are turned into non-synchronized
//!    equivalents: for each `synchronized` method we create a wrapper
//!    with an identical signature whose body is a synchronized block (on
//!    `this`) around a call to the renamed original. Call sites keep the
//!    original [`MethodId`], which now denotes the wrapper. (The paper
//!    additionally directs the VM to inline the original into the
//!    wrapper; our cost model charges `Call` like any instruction, so the
//!    wrapper costs one extra instruction — negligible, as inlining made
//!    it in the paper.)
//!
//! 2. **Rollback scopes**: every synchronized region gets
//!    * a [`SaveState`](Insn::SaveState) injected immediately before its
//!      `MonitorEnter` — the paper's "inject bytecode to save the values
//!      on the operand stack just before each rollback-scope's
//!      monitorenter" (plus locals),
//!    * an appended [`RollbackHandler`](Insn::RollbackHandler) block and
//!      a [`CatchKind::Rollback`] exception-table entry covering the
//!      region — the injected handler that catches the internal rollback
//!      exception, releases the region's monitor, and either restores the
//!      saved state (if it is the revocation target) or re-throws to the
//!      next outer rollback scope.
//!
//! Branch targets, exception tables and region metadata are remapped
//! around the insertions.
//!
//! The unmodified VM simply runs the *unrewritten* program: no
//! `SaveState` ⇒ sections carry no snapshot ⇒ nothing can be revoked,
//! and the interpreter charges no barrier costs (`barriers` off).

use crate::bytecode::{
    CatchKind, Handler, Insn, Method, MethodId, Program, RollbackScope, SyncRegion,
};

/// Rewrite a whole program. Idempotence is rejected: rewriting an already
/// rewritten program panics (it would double-inject scopes).
pub fn rewrite_program(p: &Program) -> Program {
    let mut methods: Vec<Method> = p.methods.clone();

    // Pass 1: unwrap synchronized methods. The inner (renamed) method is
    // appended; the wrapper replaces the original slot so call sites are
    // untouched.
    let n = methods.len();
    for i in 0..n {
        if methods[i].synchronized {
            let mut inner = methods[i].clone();
            inner.synchronized = false;
            inner.name = format!("{}$sync", inner.name);
            let inner_id = MethodId(methods.len() as u32);
            let returns_value = inner.code.iter().any(|x| matches!(x, Insn::Ret));
            let wrapper =
                make_wrapper(&methods[i].name, methods[i].params, inner_id, returns_value);
            methods.push(inner);
            methods[i] = wrapper;
        }
    }

    // Pass 2: inject rollback scopes into every method with sync regions.
    for m in &mut methods {
        assert!(m.rollback_scopes.is_empty(), "method {} already rewritten", m.name);
        if !m.sync_regions.is_empty() {
            inject_rollback_scopes(m);
        }
    }

    Program {
        methods,
        n_statics: p.n_statics,
        volatile_statics: p.volatile_statics.clone(),
        class_names: p.class_names.clone(),
    }
}

/// Build the non-synchronized wrapper for a synchronized method.
fn make_wrapper(name: &str, params: u16, inner: MethodId, returns_value: bool) -> Method {
    let mut code = Vec::new();
    code.push(Insn::Load(0)); // this
    let enter = code.len() as u32;
    code.push(Insn::MonitorEnter);
    for i in 0..params {
        code.push(Insn::Load(i));
    }
    code.push(Insn::Call(inner));
    let scratch = params; // one extra local for the return value
    if returns_value {
        code.push(Insn::Store(scratch));
    }
    code.push(Insn::Load(0));
    code.push(Insn::MonitorExit);
    let exit = code.len() as u32;
    if returns_value {
        code.push(Insn::Load(scratch));
        code.push(Insn::Ret);
    } else {
        code.push(Insn::RetVoid);
    }
    Method {
        name: name.to_string(),
        params,
        locals: params + u16::from(returns_value),
        code,
        handlers: vec![],
        sync_regions: vec![SyncRegion { enter, exit }],
        synchronized: false,
        rollback_scopes: vec![],
    }
}

/// Inject `SaveState` + rollback handlers for every sync region of `m`.
fn inject_rollback_scopes(m: &mut Method) {
    let mut inserts: Vec<u32> = m.sync_regions.iter().map(|r| r.enter).collect();
    inserts.sort_unstable();
    inserts.dedup();

    // Number of insertion points strictly below pc — the displacement of
    // any *boundary/target* at pc. (A branch to a region's MonitorEnter
    // must land on the injected SaveState so re-entry re-saves state.)
    let shift = |pc: u32| -> u32 { inserts.partition_point(|&e| e < pc) as u32 };

    // Rebuild code with SaveState inserted before each region enter.
    let mut code = Vec::with_capacity(m.code.len() + inserts.len());
    for (pc, insn) in m.code.iter().enumerate() {
        if inserts.binary_search(&(pc as u32)).is_ok() {
            code.push(Insn::SaveState);
        }
        code.push(insn.target().map_or(*insn, |t| insn.with_target(t + shift(t))));
    }

    // Remap exception table and regions.
    for h in &mut m.handlers {
        h.start += shift(h.start);
        h.end += shift(h.end);
        h.target += shift(h.target);
    }
    let regions: Vec<SyncRegion> = m
        .sync_regions
        .iter()
        .map(|r| SyncRegion { enter: r.enter + shift(r.enter) + 1, exit: r.exit + shift(r.exit) })
        .collect();
    m.sync_regions = regions.clone();

    // Append one RollbackHandler per region + its exception-table entry.
    for r in &regions {
        let handler_pc = code.len() as u32;
        code.push(Insn::RollbackHandler);
        let save_pc = r.enter - 1;
        m.handlers.push(Handler {
            start: save_pc,
            end: r.exit,
            target: handler_pc,
            kind: CatchKind::Rollback,
        });
        m.rollback_scopes.push(RollbackScope {
            save_pc,
            enter_pc: r.enter,
            exit_pc: r.exit,
            handler_pc,
        });
    }

    m.code = code;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{MethodBuilder, ProgramBuilder};

    fn simple_sync_program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let run = pb.declare_method("run", 1);
        let mut b = MethodBuilder::new(1, 1);
        b.sync_on_local(0, |b| {
            b.const_i(1);
            b.put_static(0);
        });
        b.ret_void();
        pb.implement(run, b);
        (pb.finish(), run)
    }

    #[test]
    fn savestate_injected_before_monitorenter() {
        let (p, run) = simple_sync_program();
        let r = rewrite_program(&p);
        let m = r.method(run);
        let scope = m.rollback_scopes[0];
        assert!(matches!(m.code[scope.save_pc as usize], Insn::SaveState));
        assert!(matches!(m.code[scope.enter_pc as usize], Insn::MonitorEnter));
        assert_eq!(scope.enter_pc, scope.save_pc + 1);
        assert!(matches!(m.code[scope.handler_pc as usize], Insn::RollbackHandler));
        assert!(matches!(m.code[(scope.exit_pc - 1) as usize], Insn::MonitorExit));
    }

    #[test]
    fn rollback_handler_entry_covers_region() {
        let (p, run) = simple_sync_program();
        let r = rewrite_program(&p);
        let m = r.method(run);
        let scope = m.rollback_scopes[0];
        let h = m
            .handlers
            .iter()
            .find(|h| h.kind == CatchKind::Rollback)
            .expect("rollback handler registered");
        assert_eq!(h.start, scope.save_pc);
        assert_eq!(h.end, scope.exit_pc);
        assert_eq!(h.target, scope.handler_pc);
    }

    #[test]
    fn branch_around_region_remapped() {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let run = pb.declare_method("run", 1);
        let mut b = MethodBuilder::new(1, 2);
        // loop: 10 iterations of the sync block
        b.const_i(10);
        b.store(1);
        let top = b.here();
        b.load(1);
        let done = b.new_label();
        b.if_zero(done);
        b.sync_on_local(0, |b| {
            b.const_i(1);
            b.put_static(0);
        });
        b.load(1);
        b.const_i(1);
        b.sub();
        b.store(1);
        b.goto(top);
        b.place(done);
        b.ret_void();
        pb.implement(run, b);
        let p = pb.finish();
        let r = rewrite_program(&p);
        let m = r.method(run);
        // the backward goto must still hit the loop head (`load(1)` at
        // original pc 2, unshifted because the insertion is after it)
        let goto_target = m
            .code
            .iter()
            .find_map(|i| match i {
                Insn::Goto(t) => Some(*t),
                _ => None,
            })
            .unwrap();
        assert!(matches!(m.code[goto_target as usize], Insn::Load(1)));
        // forward branch (if_zero) must land one past the end, on RetVoid
        let if_target = m
            .code
            .iter()
            .find_map(|i| match i {
                Insn::IfZero(t) => Some(*t),
                _ => None,
            })
            .unwrap();
        assert!(matches!(m.code[if_target as usize], Insn::RetVoid));
    }

    #[test]
    fn branch_to_region_enter_lands_on_savestate() {
        // Hand-build code whose loop branches straight back to the
        // MonitorEnter (re-entering the section each iteration).
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let run = pb.declare_method("run", 1);
        let mut b = MethodBuilder::new(1, 1);
        b.load(0); // push monitor ref; loop target is the MonitorEnter below
        let enter_pc_holder = b.pc();
        b.monitor_enter_raw();
        b.const_i(1);
        b.put_static(0);
        b.load(0);
        b.monitor_exit_raw();
        let exit_pc = b.pc();
        b.raw_handler(crate::bytecode::Handler {
            // artificial user handler referencing the enter pc as target
            start: enter_pc_holder,
            end: exit_pc,
            target: enter_pc_holder,
            kind: CatchKind::Class(99),
        });
        b.ret_void();
        pb.implement(run, b);
        let mut p = pb.finish();
        p.methods[run.index()].sync_regions =
            vec![SyncRegion { enter: enter_pc_holder, exit: exit_pc }];
        let r = rewrite_program(&p);
        let m = r.method(run);
        let user_handler = m.handlers.iter().find(|h| h.kind == CatchKind::Class(99)).unwrap();
        assert!(matches!(m.code[user_handler.target as usize], Insn::SaveState));
    }

    #[test]
    fn synchronized_method_wrapped() {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let inc = pb.declare_method("inc", 1);
        let mut b = MethodBuilder::new(1, 1);
        b.set_synchronized();
        b.get_static(0);
        b.const_i(1);
        b.add();
        b.put_static(0);
        b.ret_void();
        pb.implement(inc, b);
        let p = pb.finish();
        let r = rewrite_program(&p);
        // wrapper replaced the original id
        let w = r.method(inc);
        assert!(!w.synchronized);
        assert_eq!(w.name, "inc");
        assert_eq!(w.sync_regions.len(), 1);
        assert_eq!(w.rollback_scopes.len(), 1);
        // renamed inner appended
        let inner = r.method_by_name("inc$sync").expect("inner method");
        assert!(r.method(inner).code.iter().any(|i| matches!(i, Insn::PutStatic(0))));
        // wrapper calls inner inside the region
        assert!(w.code.iter().any(|i| matches!(i, Insn::Call(m) if *m == inner)));
    }

    #[test]
    fn synchronized_method_with_return_value() {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let get = pb.declare_method("get", 1);
        let mut b = MethodBuilder::new(1, 1);
        b.set_synchronized();
        b.get_static(0);
        b.ret();
        pb.implement(get, b);
        let p = pb.finish();
        let r = rewrite_program(&p);
        let w = r.method(get);
        // wrapper must stash the value, exit the monitor, then return it
        assert!(matches!(w.code.last(), Some(Insn::RollbackHandler)));
        assert!(w.code.iter().any(|i| matches!(i, Insn::Ret)));
        assert!(w.code.iter().any(|i| matches!(i, Insn::Store(1))));
        assert_eq!(w.locals, 2);
    }

    #[test]
    fn nested_regions_get_two_scopes() {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let run = pb.declare_method("run", 2);
        let mut b = MethodBuilder::new(2, 2);
        b.sync_on_local(0, |b| {
            b.sync_on_local(1, |b| {
                b.const_i(1);
                b.put_static(0);
            });
        });
        b.ret_void();
        pb.implement(run, b);
        let p = pb.finish();
        let r = rewrite_program(&p);
        let m = r.method(run);
        assert_eq!(m.rollback_scopes.len(), 2);
        for s in &m.rollback_scopes {
            assert!(matches!(m.code[s.save_pc as usize], Insn::SaveState));
            assert!(matches!(m.code[s.enter_pc as usize], Insn::MonitorEnter));
            assert!(matches!(m.code[s.handler_pc as usize], Insn::RollbackHandler));
        }
        // scopes nest: one strictly inside the other
        let (a, bscope) = (m.rollback_scopes[0], m.rollback_scopes[1]);
        let (inner, outer) = if a.enter_pc < bscope.enter_pc { (bscope, a) } else { (a, bscope) };
        assert!(outer.enter_pc < inner.enter_pc && inner.exit_pc < outer.exit_pc);
    }

    #[test]
    #[should_panic(expected = "already rewritten")]
    fn double_rewrite_rejected() {
        let (p, _) = simple_sync_program();
        let r = rewrite_program(&p);
        let _ = rewrite_program(&r);
    }

    #[test]
    fn unsynchronized_methods_untouched() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_method("f", 0);
        let mut b = MethodBuilder::new(0, 0);
        b.const_i(1);
        b.pop();
        b.ret_void();
        pb.implement(f, b);
        let p = pb.finish();
        let r = rewrite_program(&p);
        assert_eq!(r.method(f).code, p.method(f).code);
        assert!(r.method(f).rollback_scopes.is_empty());
    }
}
