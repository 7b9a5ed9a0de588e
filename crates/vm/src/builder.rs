//! Program construction DSL.
//!
//! Tests, examples and the benchmark generator author "Java-like" programs
//! through [`ProgramBuilder`] / [`MethodBuilder`]: labels with fixups,
//! structured synchronized blocks (which record the [`SyncRegion`]
//! metadata the rewrite pass consumes), and structured try/catch/finally.
//!
//! ```
//! use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
//!
//! let mut pb = ProgramBuilder::new();
//! pb.statics(1);
//! let run = pb.declare_method("run", 1); // param 0: the lock object
//! let mut b = MethodBuilder::new(1, 2);
//! b.sync_on_local(0, |b| {
//!     b.const_i(42);
//!     b.put_static(0);
//! });
//! b.ret_void();
//! pb.implement(run, b);
//! let program = pb.finish();
//! assert_eq!(program.method(run).sync_regions.len(), 1);
//! ```

use crate::bytecode::{CatchKind, Handler, Insn, Method, MethodId, NativeOp, Program, SyncRegion};
use crate::value::Value;

/// A forward-referenceable code label.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Label(usize);

/// Builds one method.
#[derive(Debug)]
pub struct MethodBuilder {
    params: u16,
    locals: u16,
    code: Vec<Insn>,
    handlers: Vec<Handler>,
    sync_regions: Vec<SyncRegion>,
    synchronized: bool,
    /// label -> Some(pc) once placed.
    labels: Vec<Option<u32>>,
    /// (instruction index, label) to patch at finish.
    fixups: Vec<(usize, Label)>,
    /// open synchronized blocks: (local, pc of the `MonitorEnter`).
    open_syncs: Vec<(u16, u32)>,
}

impl MethodBuilder {
    /// A builder for a method with `params` parameters and `locals` total
    /// local slots (`locals >= params`).
    pub fn new(params: u16, locals: u16) -> Self {
        assert!(locals >= params, "locals must include parameter slots");
        Self::from_header(params, locals, false)
    }

    /// A builder for a `.method` header as the assembler read it. It
    /// asserts nothing: what [`new`](Self::new),
    /// [`set_synchronized`](Self::set_synchronized) and the local-slot
    /// emitters would panic on in a program, source text may say, and
    /// the verifier reports it.
    pub(crate) fn from_header(params: u16, locals: u16, synchronized: bool) -> Self {
        MethodBuilder {
            params,
            locals,
            code: Vec::new(),
            handlers: Vec::new(),
            sync_regions: Vec::new(),
            synchronized,
            labels: Vec::new(),
            fixups: Vec::new(),
            open_syncs: Vec::new(),
        }
    }

    /// Mark the method `synchronized` (on `this` = local 0). The rewrite
    /// pass will wrap it (§3.1.1).
    pub fn set_synchronized(&mut self) {
        assert!(self.params >= 1, "synchronized methods need a `this` parameter");
        self.synchronized = true;
    }

    /// Current pc (next instruction index).
    pub fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    /// Create an unplaced label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Place `label` at the current pc.
    pub fn place(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label placed twice");
        self.labels[label.0] = Some(self.pc());
    }

    /// Create a label placed at the current pc (loop heads).
    pub fn here(&mut self) -> Label {
        let l = self.new_label();
        self.place(l);
        l
    }

    /// Where `label` was placed, if it has been.
    pub(crate) fn placed(&self, label: Label) -> Option<u32> {
        self.labels[label.0]
    }

    /// Append one instruction as given.
    pub(crate) fn emit(&mut self, i: Insn) {
        self.code.push(i);
    }

    /// Append the branch `make` builds, aimed at `label` once it is
    /// placed.
    pub(crate) fn branch(&mut self, label: Label, make: fn(u32) -> Insn) {
        self.fixups.push((self.code.len(), label));
        self.emit(make(u32::MAX));
    }

    // --- straight-line emitters ------------------------------------------

    /// Push an integer constant.
    pub fn const_i(&mut self, v: i64) {
        self.emit(Insn::Const(Value::Int(v)));
    }
    /// Push `null`.
    pub fn const_null(&mut self) {
        self.emit(Insn::Const(Value::Null));
    }
    /// Push local `i`.
    pub fn load(&mut self, i: u16) {
        assert!(i < self.locals, "local {i} out of range");
        self.emit(Insn::Load(i));
    }
    /// Pop into local `i`.
    pub fn store(&mut self, i: u16) {
        assert!(i < self.locals, "local {i} out of range");
        self.emit(Insn::Store(i));
    }
    /// Duplicate top of stack.
    pub fn dup(&mut self) {
        self.emit(Insn::Dup);
    }
    /// Discard top of stack.
    pub fn pop(&mut self) {
        self.emit(Insn::Pop);
    }
    /// Swap top two stack slots.
    pub fn swap(&mut self) {
        self.emit(Insn::Swap);
    }
    /// Integer add.
    pub fn add(&mut self) {
        self.emit(Insn::Add);
    }
    /// Integer subtract.
    pub fn sub(&mut self) {
        self.emit(Insn::Sub);
    }
    /// Integer multiply.
    pub fn mul(&mut self) {
        self.emit(Insn::Mul);
    }
    /// Integer divide.
    pub fn div(&mut self) {
        self.emit(Insn::Div);
    }
    /// Integer remainder.
    pub fn rem(&mut self) {
        self.emit(Insn::Rem);
    }
    /// Integer negate.
    pub fn neg(&mut self) {
        self.emit(Insn::Neg);
    }

    // --- branches -----------------------------------------------------------

    /// Unconditional jump.
    pub fn goto(&mut self, l: Label) {
        self.branch(l, Insn::Goto);
    }
    /// Jump if popped value is zero/null.
    pub fn if_zero(&mut self, l: Label) {
        self.branch(l, Insn::IfZero);
    }
    /// Jump if popped value is non-zero.
    pub fn if_non_zero(&mut self, l: Label) {
        self.branch(l, Insn::IfNonZero);
    }
    /// Pop b, a; jump if `a < b`.
    pub fn if_lt(&mut self, l: Label) {
        self.branch(l, Insn::IfLt);
    }
    /// Pop b, a; jump if `a >= b`.
    pub fn if_ge(&mut self, l: Label) {
        self.branch(l, Insn::IfGe);
    }
    /// Pop b, a; jump if `a == b`.
    pub fn if_eq(&mut self, l: Label) {
        self.branch(l, Insn::IfEq);
    }
    /// Pop b, a; jump if `a != b`.
    pub fn if_ne(&mut self, l: Label) {
        self.branch(l, Insn::IfNe);
    }

    // --- heap ------------------------------------------------------------------

    /// Allocate a plain object.
    pub fn new_object(&mut self, class_tag: u32, fields: u16) {
        self.emit(Insn::New { class_tag, fields, volatile_mask: 0 });
    }
    /// Pop length, push new array ref.
    pub fn new_array(&mut self) {
        self.emit(Insn::NewArray);
    }
    /// Pop ref, push field.
    pub fn get_field(&mut self, off: u16) {
        self.emit(Insn::GetField(off));
    }
    /// Pop value, pop ref, store field.
    pub fn put_field(&mut self, off: u16) {
        self.emit(Insn::PutField(off));
    }
    /// Pop index, pop ref, push element.
    pub fn aload(&mut self) {
        self.emit(Insn::ALoad);
    }
    /// Pop value, index, ref; store element.
    pub fn astore(&mut self) {
        self.emit(Insn::AStore);
    }
    /// Push static slot.
    pub fn get_static(&mut self, s: u16) {
        self.emit(Insn::GetStatic(s));
    }
    /// Pop into static slot.
    pub fn put_static(&mut self, s: u16) {
        self.emit(Insn::PutStatic(s));
    }
    /// Pop ref, push length.
    pub fn array_len(&mut self) {
        self.emit(Insn::ArrayLen);
    }

    // --- monitors / threading -----------------------------------------------------

    /// Raw `monitorenter` on the popped ref. Prefer
    /// [`sync_on_local`](Self::sync_on_local), which records the region
    /// metadata the rewrite pass needs.
    pub fn monitor_enter_raw(&mut self) {
        self.emit(Insn::MonitorEnter);
    }
    /// Raw `monitorexit` on the popped ref.
    pub fn monitor_exit_raw(&mut self) {
        self.emit(Insn::MonitorExit);
    }

    /// Structured `synchronized (local) { body }`. Emits the enter/exit
    /// bracketing and records the [`SyncRegion`].
    pub fn sync_on_local(&mut self, local: u16, body: impl FnOnce(&mut Self)) {
        assert!(local < self.locals, "local {local} out of range");
        self.sync_open(local);
        body(self);
        self.sync_close();
    }

    /// Open a `synchronized (local) {` block: the enter half of the
    /// bracketing.
    pub(crate) fn sync_open(&mut self, local: u16) {
        self.emit(Insn::Load(local));
        self.open_syncs.push((local, self.pc()));
        self.emit(Insn::MonitorEnter);
    }

    /// Close the innermost open block: the exit half of the bracketing
    /// and the block's [`SyncRegion`]. False when no block is open.
    pub(crate) fn sync_close(&mut self) -> bool {
        let Some((local, enter)) = self.open_syncs.pop() else { return false };
        self.emit(Insn::Load(local));
        self.emit(Insn::MonitorExit);
        self.sync_regions.push(SyncRegion { enter, exit: self.pc() });
        true
    }

    /// Whether a block opened by [`sync_open`](Self::sync_open) is still
    /// open.
    pub(crate) fn in_sync(&self) -> bool {
        !self.open_syncs.is_empty()
    }

    /// Structured counted loop: `for local := 0; local < bound(); local++
    /// { body }`. `bound` pushes the (recomputed each iteration) bound;
    /// the loop back-edge is a yield point.
    pub fn for_loop(
        &mut self,
        counter: u16,
        bound: impl Fn(&mut Self),
        body: impl FnOnce(&mut Self),
    ) {
        self.const_i(0);
        self.store(counter);
        let top = self.here();
        self.load(counter);
        bound(self);
        let done = self.new_label();
        self.if_ge(done);
        body(self);
        self.load(counter);
        self.const_i(1);
        self.add();
        self.store(counter);
        self.goto(top);
        self.place(done);
    }

    /// Structured counted loop with a constant bound.
    pub fn repeat(&mut self, counter: u16, n: i64, body: impl FnOnce(&mut Self)) {
        self.for_loop(counter, |b| b.const_i(n), body);
    }

    /// Structured `if (cond != 0) { then } else { otherwise }`. `cond`
    /// must push exactly one value.
    pub fn if_else(
        &mut self,
        cond: impl FnOnce(&mut Self),
        then: impl FnOnce(&mut Self),
        otherwise: impl FnOnce(&mut Self),
    ) {
        cond(self);
        let else_l = self.new_label();
        self.if_zero(else_l);
        then(self);
        let end = self.new_label();
        self.goto(end);
        self.place(else_l);
        otherwise(self);
        self.place(end);
    }

    /// Structured `while (cond != 0) { body }` (back-edge is a yield
    /// point). `cond` must push exactly one value.
    pub fn while_loop(&mut self, cond: impl Fn(&mut Self), body: impl FnOnce(&mut Self)) {
        let top = self.here();
        cond(self);
        let done = self.new_label();
        self.if_zero(done);
        body(self);
        self.goto(top);
        self.place(done);
    }

    /// `statics[s] += k` — the ubiquitous shared-counter idiom.
    pub fn add_static(&mut self, s: u16, k: i64) {
        self.get_static(s);
        self.const_i(k);
        self.add();
        self.put_static(s);
    }

    /// `Object.wait()` on the popped ref.
    pub fn wait_on_local(&mut self, local: u16) {
        self.load(local);
        self.emit(Insn::Wait);
    }
    /// `Object.notifyAll()` on the popped ref.
    pub fn notify_all_local(&mut self, local: u16) {
        self.load(local);
        self.emit(Insn::NotifyAll);
    }

    /// Explicit yield point.
    pub fn yield_point(&mut self) {
        self.emit(Insn::Yield);
    }
    /// Pop n; sleep n ticks.
    pub fn sleep(&mut self) {
        self.emit(Insn::Sleep);
    }
    /// Push current virtual time.
    pub fn now(&mut self) {
        self.emit(Insn::Now);
    }
    /// Pop bound; push uniform random int in `[0, bound)`.
    pub fn rand_int(&mut self) {
        self.emit(Insn::RandInt);
    }
    /// Irrevocable native call.
    pub fn native(&mut self, op: NativeOp) {
        self.emit(Insn::Native(op));
    }
    /// Pop n; charge n ticks of monitor-neutral compute.
    pub fn work(&mut self) {
        self.emit(Insn::Work);
    }

    // --- calls / returns ---------------------------------------------------------------

    /// Call `m` (arguments already pushed, last on top).
    pub fn call(&mut self, m: MethodId) {
        self.emit(Insn::Call(m));
    }
    /// Spawn a thread running `m` (args then priority already pushed);
    /// pushes the new thread id.
    pub fn spawn(&mut self, m: MethodId) {
        self.emit(Insn::Spawn(m));
    }
    /// Pop a thread id and join it.
    pub fn join(&mut self) {
        self.emit(Insn::Join);
    }
    /// Submit `m` to the combiner of the popped monitor object (monitor
    /// ref pushed first, arguments on top); pushes the completion token.
    pub fn delegate(&mut self, m: MethodId) {
        self.emit(Insn::Delegate(m));
    }
    /// Pop a completion token and block until its delegated section has
    /// executed; pushes the section's result.
    pub fn await_result(&mut self) {
        self.emit(Insn::Await);
    }
    /// Return popped value.
    pub fn ret(&mut self) {
        self.emit(Insn::Ret);
    }
    /// Return void.
    pub fn ret_void(&mut self) {
        self.emit(Insn::RetVoid);
    }

    // --- exceptions -----------------------------------------------------------------------

    /// Pop exception ref and throw.
    pub fn throw(&mut self) {
        self.emit(Insn::Throw);
    }

    /// Allocate-and-throw an exception object with `class_tag`.
    pub fn throw_new(&mut self, class_tag: u32) {
        self.new_object(class_tag, 0);
        self.throw();
    }

    /// Structured `try { body } catch (kind) { handler }`.
    ///
    /// Handler-entry convention follows the JVM: the operand stack is
    /// cleared and the exception object pushed. The handler body receives
    /// it on top of the stack.
    pub fn try_catch(
        &mut self,
        kind: CatchKind,
        body: impl FnOnce(&mut Self),
        handler: impl FnOnce(&mut Self),
    ) {
        assert!(
            kind != CatchKind::Rollback,
            "rollback handlers are injected by the rewrite pass only"
        );
        let start = self.pc();
        body(self);
        let end = self.pc();
        let after = self.new_label();
        self.goto(after);
        let target = self.pc();
        handler(self);
        self.place(after);
        self.handlers.push(Handler { start, end, target, kind });
    }

    /// Structured `try { body } finally { cleanup }` (cleanup duplicated
    /// on the normal and exceptional paths, as javac compiles it). Uses
    /// local `scratch` to hold the in-flight exception.
    pub fn try_finally(
        &mut self,
        scratch: u16,
        body: impl FnOnce(&mut Self),
        cleanup: impl Fn(&mut Self),
    ) {
        let start = self.pc();
        body(self);
        let end = self.pc();
        cleanup(self);
        let after = self.new_label();
        self.goto(after);
        let target = self.pc();
        // exceptional path: stash exception, run cleanup, rethrow
        self.store(scratch);
        cleanup(self);
        self.load(scratch);
        self.throw();
        self.place(after);
        self.handlers.push(Handler { start, end, target, kind: CatchKind::All });
    }

    /// Register a raw handler entry (advanced use).
    pub fn raw_handler(&mut self, h: Handler) {
        self.handlers.push(h);
    }

    fn finish(mut self, name: &str) -> Method {
        for (at, label) in std::mem::take(&mut self.fixups) {
            let pc = self.labels[label.0].expect("unplaced label");
            self.code[at] = self.code[at].with_target(pc);
        }
        Method {
            name: name.to_string(),
            params: self.params,
            locals: self.locals,
            code: self.code,
            handlers: self.handlers,
            sync_regions: self.sync_regions,
            synchronized: self.synchronized,
            rollback_scopes: vec![],
        }
    }
}

/// Builds a [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    methods: Vec<Option<Method>>,
    names: Vec<String>,
    n_statics: u32,
    volatile_statics: Vec<u32>,
    class_names: std::collections::BTreeMap<u32, String>,
}

impl ProgramBuilder {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Give class tag `tag` a human name; monitors on its instances are
    /// labeled with it in analysis reports.
    pub fn class_name(&mut self, tag: u32, name: &str) {
        self.class_names.insert(tag, name.to_string());
    }

    /// Declare `n` static slots.
    pub fn statics(&mut self, n: u32) {
        self.n_statics = self.n_statics.max(n);
    }

    /// Flag static slot `s` volatile.
    pub fn volatile_static(&mut self, s: u32) {
        self.statics(s + 1);
        self.volatile_statics.push(s);
    }

    /// Declare a method (callable before its body exists, enabling
    /// mutual recursion). `params` is recorded for documentation; the
    /// authoritative count comes from the [`MethodBuilder`].
    pub fn declare_method(&mut self, name: &str, _params: u16) -> MethodId {
        self.methods.push(None);
        self.names.push(name.to_string());
        MethodId((self.methods.len() - 1) as u32)
    }

    /// Install the body for a declared method.
    pub fn implement(&mut self, id: MethodId, b: MethodBuilder) {
        let name = self.names[id.index()].clone();
        assert!(self.methods[id.index()].is_none(), "method {name} implemented twice");
        self.methods[id.index()] = Some(b.finish(&name));
    }

    /// Declare + implement in one step.
    pub fn add_method(&mut self, name: &str, b: MethodBuilder) -> MethodId {
        let id = self.declare_method(name, b.params);
        self.implement(id, b);
        id
    }

    /// Produce the program. Panics if any declared method lacks a body.
    pub fn finish(self) -> Program {
        let methods = self
            .methods
            .into_iter()
            .enumerate()
            .map(|(i, m)| m.unwrap_or_else(|| panic!("method {} has no body", self.names[i])))
            .collect();
        Program {
            methods,
            n_statics: self.n_statics,
            volatile_statics: self.volatile_statics,
            class_names: self.class_names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_patch() {
        let mut b = MethodBuilder::new(0, 1);
        b.const_i(3);
        b.store(0);
        let top = b.here();
        b.load(0);
        let done = b.new_label();
        b.if_zero(done);
        b.load(0);
        b.const_i(1);
        b.sub();
        b.store(0);
        b.goto(top);
        b.place(done);
        b.ret_void();
        let mut pb = ProgramBuilder::new();
        let id = pb.add_method("loop", b);
        let p = pb.finish();
        let code = &p.method(id).code;
        assert!(matches!(code[3], Insn::IfZero(t) if t as usize == code.len() - 1));
        assert!(matches!(code[8], Insn::Goto(2)));
    }

    #[test]
    fn sync_block_records_region() {
        let mut b = MethodBuilder::new(1, 1);
        b.sync_on_local(0, |b| {
            b.const_i(1);
            b.pop();
        });
        b.ret_void();
        let mut pb = ProgramBuilder::new();
        let id = pb.add_method("s", b);
        let p = pb.finish();
        let m = p.method(id);
        assert_eq!(m.sync_regions.len(), 1);
        let r = m.sync_regions[0];
        assert!(matches!(m.code[r.enter as usize], Insn::MonitorEnter));
        assert!(matches!(m.code[(r.exit - 1) as usize], Insn::MonitorExit));
    }

    #[test]
    fn nested_sync_blocks_record_both_regions() {
        let mut b = MethodBuilder::new(2, 2);
        b.sync_on_local(0, |b| {
            b.sync_on_local(1, |b| {
                b.const_i(1);
                b.pop();
            });
        });
        b.ret_void();
        let mut pb = ProgramBuilder::new();
        let id = pb.add_method("n", b);
        let p = pb.finish();
        let m = p.method(id);
        assert_eq!(m.sync_regions.len(), 2);
        // inner recorded first (its body closes first)
        let (inner, outer) = (m.sync_regions[0], m.sync_regions[1]);
        assert!(outer.enter < inner.enter && inner.exit < outer.exit);
    }

    #[test]
    fn try_catch_registers_handler_and_skips_it_normally() {
        let mut b = MethodBuilder::new(0, 0);
        b.try_catch(
            CatchKind::Class(7),
            |b| {
                b.const_i(1);
                b.pop();
            },
            |b| {
                b.pop(); // discard exception object
            },
        );
        b.ret_void();
        let mut pb = ProgramBuilder::new();
        let id = pb.add_method("tc", b);
        let p = pb.finish();
        let m = p.method(id);
        assert_eq!(m.handlers.len(), 1);
        let h = m.handlers[0];
        assert_eq!(h.kind, CatchKind::Class(7));
        assert!(h.target >= h.end);
    }

    #[test]
    #[should_panic(expected = "rollback handlers are injected")]
    fn user_code_cannot_catch_rollback() {
        let mut b = MethodBuilder::new(0, 0);
        b.try_catch(CatchKind::Rollback, |_| {}, |_| {});
    }

    #[test]
    #[should_panic(expected = "unplaced label")]
    fn unplaced_label_panics_at_finish() {
        let mut b = MethodBuilder::new(0, 0);
        let l = b.new_label();
        b.goto(l);
        let mut pb = ProgramBuilder::new();
        pb.add_method("bad", b);
    }

    #[test]
    fn structured_for_loop_counts() {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let m = pb.declare_method("m", 0);
        let mut b = MethodBuilder::new(0, 1);
        b.repeat(0, 10, |b| b.add_static(0, 2));
        b.ret_void();
        pb.implement(m, b);
        let mut vm = crate::vm::Vm::new(pb.finish(), crate::vm::VmConfig::unmodified());
        vm.spawn("t", m, vec![], revmon_core::Priority::NORM);
        vm.run().unwrap();
        assert_eq!(vm.read_static(0).unwrap(), Value::Int(20));
    }

    #[test]
    fn structured_if_else_branches() {
        let mut pb = ProgramBuilder::new();
        pb.statics(2);
        let m = pb.declare_method("m", 1);
        let mut b = MethodBuilder::new(1, 1);
        b.if_else(|b| b.load(0), |b| b.add_static(0, 1), |b| b.add_static(1, 1));
        b.ret_void();
        pb.implement(m, b);
        let p = pb.finish();
        for (arg, s0, s1) in [(1i64, 1i64, 0i64), (0, 0, 1)] {
            let mut vm = crate::vm::Vm::new(p.clone(), crate::vm::VmConfig::unmodified());
            vm.spawn("t", m, vec![Value::Int(arg)], revmon_core::Priority::NORM);
            vm.run().unwrap();
            // untouched statics read as Null, which as_int treats as 0
            assert_eq!(vm.read_static(0).unwrap().as_int().unwrap(), s0);
            assert_eq!(vm.read_static(1).unwrap().as_int().unwrap(), s1);
        }
    }

    #[test]
    fn structured_while_loop_runs_until_false() {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let m = pb.declare_method("m", 0);
        let mut b = MethodBuilder::new(0, 1);
        b.const_i(5);
        b.store(0);
        b.while_loop(
            |b| b.load(0),
            |b| {
                b.add_static(0, 1);
                b.load(0);
                b.const_i(1);
                b.sub();
                b.store(0);
            },
        );
        b.ret_void();
        pb.implement(m, b);
        let mut vm = crate::vm::Vm::new(pb.finish(), crate::vm::VmConfig::unmodified());
        vm.spawn("t", m, vec![], revmon_core::Priority::NORM);
        vm.run().unwrap();
        assert_eq!(vm.read_static(0).unwrap(), Value::Int(5));
    }

    #[test]
    fn volatile_static_declares_slot() {
        let mut pb = ProgramBuilder::new();
        pb.volatile_static(4);
        let mut b = MethodBuilder::new(0, 0);
        b.ret_void();
        pb.add_method("m", b);
        let p = pb.finish();
        assert_eq!(p.n_statics, 5);
        assert_eq!(p.volatile_statics, vec![4]);
    }
}
