//! The mini instruction set, methods, exception tables and programs.
//!
//! The ISA covers exactly the constructs the paper's technique
//! manipulates: an operand stack and locals (so operand-stack
//! save/restore at `monitorenter` is meaningful), the three store kinds
//! that get write barriers (`PutField`, `PutStatic`, `AStore`), explicit
//! `MonitorEnter`/`MonitorExit`, exception scopes with `finally`-style
//! catch-all handlers, `wait`/`notify`, native (irrevocable) calls, and
//! yield-point-bearing control flow.
//!
//! Methods carry *synchronized region* metadata (`SyncRegion`), the
//! static analogue of Java's `monitorenter`/`monitorexit` bracketing that
//! the BCEL rewriting pass in the paper discovers from bytecode; our
//! [`rewrite`](crate::rewrite) pass consumes it to inject rollback scopes.
//!
//! An opcode is described here and nowhere else outside the interpreter:
//! the documented [`Insn`] variant, its row of the `ISA` table (mnemonic,
//! operand kind, stack effect, flow, barrier class, listing note) and
//! its `split` arm. The assembler, the disassembler, the verifier, the
//! rewrite pass and the elision analysis read the row.

use crate::value::Value;
use std::fmt;

/// Index of a method within its [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MethodId(pub u32);

impl MethodId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Built-in native operations. All of them are *irrevocable*: executing
/// one inside a synchronized section forces non-revocability of every
/// enclosing monitor (§2.2: "Calling a native method within a monitor
/// also forces non-revocability of the monitor").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NativeOp {
    /// Print the top of stack to the VM's output buffer (pops it).
    Print,
    /// Pop a value and append it to the VM's observable output as a raw
    /// word (models console I/O).
    Emit,
}

/// One instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Insn {
    // -- stack / locals ---------------------------------------------------
    /// Push a constant.
    Const(Value),
    /// Push local `0`.
    Load(u16),
    /// Pop into local `0`.
    Store(u16),
    /// Duplicate top of stack.
    Dup,
    /// Discard top of stack.
    Pop,
    /// Swap the two top stack slots.
    Swap,

    // -- arithmetic (pop 2, push 1; Neg pops 1) ---------------------------
    /// Integer add.
    Add,
    /// Integer subtract (`a - b` with `b` on top).
    Sub,
    /// Integer multiply.
    Mul,
    /// Integer divide (traps on zero).
    Div,
    /// Integer remainder (traps on zero).
    Rem,
    /// Integer negate.
    Neg,

    // -- control flow (branch targets are code offsets) -------------------
    /// Unconditional jump. Backward jumps are yield points.
    Goto(u32),
    /// Jump if popped value is zero/null.
    IfZero(u32),
    /// Jump if popped value is non-zero/non-null.
    IfNonZero(u32),
    /// Pop b, a; jump if `a < b`.
    IfLt(u32),
    /// Pop b, a; jump if `a >= b`.
    IfGe(u32),
    /// Pop b, a; jump if `a == b` (word equality).
    IfEq(u32),
    /// Pop b, a; jump if `a != b`.
    IfNe(u32),

    // -- heap --------------------------------------------------------------
    /// Allocate an object: `New { class_tag, fields, volatile_mask }`.
    New {
        /// Class tag for handler matching / diagnostics.
        class_tag: u32,
        /// Number of field slots.
        fields: u16,
        /// Bitmask of volatile fields.
        volatile_mask: u64,
    },
    /// Pop length, allocate an array, push ref.
    NewArray,
    /// Pop ref, push field `0` — a *read barrier* site.
    GetField(u16),
    /// Pop value, pop ref, store into field `0` — a *write barrier* site
    /// (Java `putfield`).
    PutField(u16),
    /// Pop index, pop ref, push element — read barrier site.
    ALoad,
    /// Pop value, pop index, pop ref, store element — write barrier site
    /// (Java `Xastore`).
    AStore,
    /// Push static slot `0` — read barrier site.
    GetStatic(u16),
    /// Pop value into static slot `0` — write barrier site (`putstatic`).
    PutStatic(u16),
    /// Pop ref, push its slot count.
    ArrayLen,

    // -- monitors ----------------------------------------------------------
    /// Pop ref, acquire its monitor (may block; a yield point).
    MonitorEnter,
    /// Pop ref, release its monitor.
    MonitorExit,
    /// Pop ref; `Object.wait()` on its monitor (must hold it).
    Wait,
    /// Pop ref; `Object.notify()`.
    Notify,
    /// Pop ref; `Object.notifyAll()`.
    NotifyAll,

    // -- calls ---------------------------------------------------------------
    /// Call a method; pops its `params` arguments (last argument on top).
    /// Method entry is a yield point (as in Jikes RVM prologues).
    Call(MethodId),
    /// Spawn a thread running the method: pops the priority level (int,
    /// clamped to 1..=10) then the method's arguments (last on top);
    /// pushes the new thread's id. Spawning is irrevocable — inside a
    /// synchronized section it pins every enclosing monitor non-revocable
    /// (a rolled-back spawn cannot "un-create" the thread).
    Spawn(MethodId),
    /// Pop a thread id; block until that thread terminates. A yield
    /// point. Join cycles surface as a VM stall, like unbroken deadlocks.
    Join,
    /// Submit a critical section to a monitor's combiner: pops the
    /// method's arguments (last on top) then the monitor object, queues
    /// the call on the monitor's priority-ordered submission queue, and
    /// pushes a completion token (int). If the monitor is free the
    /// submitter becomes the combiner and executes queued submissions
    /// itself; otherwise the current holder drains the queue in priority
    /// order before releasing (bounded by the drain budget). Each
    /// submission executes exactly once; no undo logging applies to
    /// delegated sections. A yield point.
    Delegate(MethodId),
    /// Pop a completion token; push the delegated call's result once it
    /// has executed (void methods yield int 0), blocking until then. A
    /// yield point. Awaiting a token no combiner can ever execute
    /// surfaces as a VM stall.
    Await,
    /// Return with the popped value.
    Ret,
    /// Return void.
    RetVoid,

    // -- exceptions ----------------------------------------------------------
    /// Pop an exception object reference and throw it.
    Throw,

    // -- scheduling / misc -----------------------------------------------------
    /// Explicit yield point.
    Yield,
    /// Pop n; sleep for n virtual-clock ticks.
    Sleep,
    /// Push the current virtual clock value.
    Now,
    /// Pop bound; push a VM-seeded uniform random integer in `[0, bound)`.
    RandInt,
    /// Irrevocable native call.
    Native(NativeOp),
    /// Spin: pop n and charge n instruction-costs of pure compute without
    /// touching shared state (models "benign operations"). Checked against
    /// the quantum, so it cannot overrun a time slice.
    Work,
    /// No operation.
    Nop,

    // -- injected by the rewrite pass (see crate::rewrite) ----------------------
    /// Snapshot locals + operand stack (below the monitor ref on top) so a
    /// rollback can re-execute the following `MonitorEnter`. Injected
    /// immediately before every `MonitorEnter` of a rollback scope.
    SaveState,
    /// Rollback-handler intrinsic: the thread's innermost active section
    /// must correspond to this handler. If it is the revocation target,
    /// release its monitor, restore the snapshot and jump back to the
    /// `SaveState`; otherwise release and re-throw to the next outer
    /// rollback scope.
    RollbackHandler,
}

/// How an opcode's operand is written in `.rvm` source, holding what
/// builds the variant from the parsed operand: the assembler has one
/// parser per kind, the disassembler one printer.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OperandKind {
    /// No operand: the instruction itself.
    Plain(Insn),
    /// No operand and no source spelling: only the rewrite pass emits it.
    Injected,
    /// A local slot, `lN`.
    Local(fn(u16) -> Insn),
    /// A static slot, `sN`.
    Static(fn(u16) -> Insn),
    /// A field offset, `K`.
    Field(fn(u16) -> Insn),
    /// A label; a code offset once assembled.
    Label(fn(u32) -> Insn),
    /// A method name; a [`MethodId`] once assembled.
    Method(fn(MethodId) -> Insn),
    /// An integer or `null`.
    Const(fn(Value) -> Insn),
    /// A native operation's name.
    Native(fn(NativeOp) -> Insn),
    /// `class=C fields=F volatile=MASK`, each optional.
    New(fn(u32, u16, u64) -> Insn),
}

/// An instruction's operand, by [`OperandKind`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Operand {
    None,
    Local(u16),
    Static(u16),
    Field(u16),
    Label(u32),
    Method(MethodId),
    Const(Value),
    Native(NativeOp),
    New { class_tag: u32, fields: u16, volatile_mask: u64 },
}

/// Where control goes after an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Flow {
    /// To the next pc.
    Next,
    /// To its target or to the next pc.
    Branch,
    /// To its target, always.
    Jump,
    /// Nowhere in this method: a return, a throw, the rollback intrinsic.
    Stop,
}

impl Flow {
    /// Whether the next pc is a successor.
    pub(crate) fn falls_through(self) -> bool {
        matches!(self, Flow::Next | Flow::Branch)
    }
}

/// Which shared-access barrier an opcode is a site of (§3.1.2: write
/// barriers on exactly `putfield`, `putstatic` and `Xastore`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Barrier {
    /// Touches no shared word.
    No,
    /// A load the JMM guard checks.
    Read,
    /// A store the undo log records.
    Write,
}

/// What there is to know about an opcode outside the interpreter: one
/// [`ISA`] row.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Op {
    /// Its spelling in `.rvm` source and in listings.
    pub(crate) mnemonic: &'static str,
    /// Its operand kind and constructor.
    pub(crate) operand: OperandKind,
    /// Operands popped, not counting a callee's parameters.
    pub(crate) pops: u16,
    /// Results pushed, not counting a callee's return value.
    pub(crate) pushes: u16,
    /// Its successors.
    pub(crate) flow: Flow,
    /// Its barrier class.
    pub(crate) barrier: Barrier,
    /// The remark a listing prints beside it; empty for none.
    pub(crate) note: &'static str,
}

const fn op(
    mnemonic: &'static str,
    operand: OperandKind,
    pops: u16,
    pushes: u16,
    flow: Flow,
    barrier: Barrier,
    note: &'static str,
) -> Op {
    Op { mnemonic, operand, pops, pushes, flow, barrier, note }
}

fn new_object(class_tag: u32, fields: u16, volatile_mask: u64) -> Insn {
    Insn::New { class_tag, fields, volatile_mask }
}

/// The instruction set, once: one row per [`Insn`] variant, at the
/// variant's [`Insn::split`] index. The assembler (mnemonic → operand
/// parser → constructor), the disassembler, the verifier's stack
/// effects and successors, the rewrite pass's branch relocation and the
/// elision analysis's store sites all read this; only the interpreter
/// knows more about an opcode.
pub(crate) static ISA: [Op; 50] = {
    use {Barrier::*, Flow::*, OperandKind::*};
    const WB: &str = "write-barrier site";
    const INJECTED: &str = "injected by rewrite";
    [
        op("const", Const(Insn::Const), 0, 1, Next, No, ""),
        op("load", Local(Insn::Load), 0, 1, Next, No, ""),
        op("store", Local(Insn::Store), 1, 0, Next, No, ""),
        op("dup", Plain(Insn::Dup), 1, 2, Next, No, ""),
        op("pop", Plain(Insn::Pop), 1, 0, Next, No, ""),
        op("swap", Plain(Insn::Swap), 2, 2, Next, No, ""),
        op("add", Plain(Insn::Add), 2, 1, Next, No, ""),
        op("sub", Plain(Insn::Sub), 2, 1, Next, No, ""),
        op("mul", Plain(Insn::Mul), 2, 1, Next, No, ""),
        op("div", Plain(Insn::Div), 2, 1, Next, No, ""),
        op("rem", Plain(Insn::Rem), 2, 1, Next, No, ""),
        op("neg", Plain(Insn::Neg), 1, 1, Next, No, ""),
        op("goto", Label(Insn::Goto), 0, 0, Jump, No, ""),
        op("if_zero", Label(Insn::IfZero), 1, 0, Branch, No, ""),
        op("if_nonzero", Label(Insn::IfNonZero), 1, 0, Branch, No, ""),
        op("if_lt", Label(Insn::IfLt), 2, 0, Branch, No, ""),
        op("if_ge", Label(Insn::IfGe), 2, 0, Branch, No, ""),
        op("if_eq", Label(Insn::IfEq), 2, 0, Branch, No, ""),
        op("if_ne", Label(Insn::IfNe), 2, 0, Branch, No, ""),
        op("new", New(new_object), 0, 1, Next, No, ""),
        op("newarray", Plain(Insn::NewArray), 1, 1, Next, No, ""),
        op("getfield", Field(Insn::GetField), 1, 1, Next, Read, ""),
        op("putfield", Field(Insn::PutField), 2, 0, Next, Write, WB),
        op("aload", Plain(Insn::ALoad), 2, 1, Next, Read, ""),
        op("astore", Plain(Insn::AStore), 3, 0, Next, Write, WB),
        op("getstatic", Static(Insn::GetStatic), 0, 1, Next, Read, ""),
        op("putstatic", Static(Insn::PutStatic), 1, 0, Next, Write, WB),
        op("arraylen", Plain(Insn::ArrayLen), 1, 1, Next, No, ""),
        op("monitorenter", Plain(Insn::MonitorEnter), 1, 0, Next, No, ""),
        op("monitorexit", Plain(Insn::MonitorExit), 1, 0, Next, No, ""),
        op("wait", Plain(Insn::Wait), 1, 0, Next, No, ""),
        op("notify", Plain(Insn::Notify), 1, 0, Next, No, ""),
        op("notifyall", Plain(Insn::NotifyAll), 1, 0, Next, No, ""),
        // Beside the callee's parameters: nothing, the priority, the monitor.
        op("call", Method(Insn::Call), 0, 0, Next, No, ""),
        op("spawn", Method(Insn::Spawn), 1, 1, Next, No, "irrevocable"),
        op("join", Plain(Insn::Join), 1, 0, Next, No, ""),
        op("delegate", Method(Insn::Delegate), 1, 1, Next, No, "combiner submission"),
        op("await", Plain(Insn::Await), 1, 1, Next, No, ""),
        op("ret", Plain(Insn::Ret), 1, 0, Stop, No, ""),
        op("retvoid", Plain(Insn::RetVoid), 0, 0, Stop, No, ""),
        op("throw", Plain(Insn::Throw), 1, 0, Stop, No, ""),
        op("yield", Plain(Insn::Yield), 0, 0, Next, No, ""),
        op("sleep", Plain(Insn::Sleep), 1, 0, Next, No, ""),
        op("now", Plain(Insn::Now), 0, 1, Next, No, ""),
        op("randint", Plain(Insn::RandInt), 1, 1, Next, No, ""),
        op("native", Native(Insn::Native), 1, 0, Next, No, "irrevocable"),
        op("work", Plain(Insn::Work), 1, 0, Next, No, ""),
        op("nop", Plain(Insn::Nop), 0, 0, Next, No, ""),
        op("savestate", Injected, 0, 0, Next, No, INJECTED),
        op("rollbackhandler", Injected, 0, 0, Stop, No, INJECTED),
    ]
};

impl Op {
    /// The row a source line's first word names, if it names one.
    pub(crate) fn named(mnemonic: &str) -> Option<&'static Op> {
        ISA.iter().find(|op| op.mnemonic == mnemonic)
    }
}

impl Insn {
    /// The variant's [`ISA`] row index and its operand.
    #[inline]
    fn split(self) -> (usize, Operand) {
        use Operand as O;
        match self {
            Insn::Const(v) => (0, O::Const(v)),
            Insn::Load(i) => (1, O::Local(i)),
            Insn::Store(i) => (2, O::Local(i)),
            Insn::Dup => (3, O::None),
            Insn::Pop => (4, O::None),
            Insn::Swap => (5, O::None),
            Insn::Add => (6, O::None),
            Insn::Sub => (7, O::None),
            Insn::Mul => (8, O::None),
            Insn::Div => (9, O::None),
            Insn::Rem => (10, O::None),
            Insn::Neg => (11, O::None),
            Insn::Goto(t) => (12, O::Label(t)),
            Insn::IfZero(t) => (13, O::Label(t)),
            Insn::IfNonZero(t) => (14, O::Label(t)),
            Insn::IfLt(t) => (15, O::Label(t)),
            Insn::IfGe(t) => (16, O::Label(t)),
            Insn::IfEq(t) => (17, O::Label(t)),
            Insn::IfNe(t) => (18, O::Label(t)),
            Insn::New { class_tag, fields, volatile_mask } => {
                (19, O::New { class_tag, fields, volatile_mask })
            }
            Insn::NewArray => (20, O::None),
            Insn::GetField(o) => (21, O::Field(o)),
            Insn::PutField(o) => (22, O::Field(o)),
            Insn::ALoad => (23, O::None),
            Insn::AStore => (24, O::None),
            Insn::GetStatic(s) => (25, O::Static(s)),
            Insn::PutStatic(s) => (26, O::Static(s)),
            Insn::ArrayLen => (27, O::None),
            Insn::MonitorEnter => (28, O::None),
            Insn::MonitorExit => (29, O::None),
            Insn::Wait => (30, O::None),
            Insn::Notify => (31, O::None),
            Insn::NotifyAll => (32, O::None),
            Insn::Call(m) => (33, O::Method(m)),
            Insn::Spawn(m) => (34, O::Method(m)),
            Insn::Join => (35, O::None),
            Insn::Delegate(m) => (36, O::Method(m)),
            Insn::Await => (37, O::None),
            Insn::Ret => (38, O::None),
            Insn::RetVoid => (39, O::None),
            Insn::Throw => (40, O::None),
            Insn::Yield => (41, O::None),
            Insn::Sleep => (42, O::None),
            Insn::Now => (43, O::None),
            Insn::RandInt => (44, O::None),
            Insn::Native(n) => (45, O::Native(n)),
            Insn::Work => (46, O::None),
            Insn::Nop => (47, O::None),
            Insn::SaveState => (48, O::None),
            Insn::RollbackHandler => (49, O::None),
        }
    }

    /// The opcode's [`ISA`] row.
    #[inline]
    pub(crate) fn op(self) -> &'static Op {
        &ISA[self.split().0]
    }

    /// The instruction's operand.
    #[inline]
    pub(crate) fn operand(self) -> Operand {
        self.split().1
    }

    /// The code offset a branch instruction names; `None` for every
    /// other instruction.
    #[inline]
    pub fn target(self) -> Option<u32> {
        match self.operand() {
            Operand::Label(target) => Some(target),
            _ => None,
        }
    }

    /// The same branch aimed at `pc`; every other instruction unchanged.
    /// A `match` of its own, not the row's constructor: the rewrite pass
    /// and both fixup patchers call it once per branch, and an indirect
    /// call there reads as 10 % of `vm.rewrite_ns_per_instr`. The row
    /// walk in the tests holds it to the `Label` rows.
    #[inline]
    pub fn with_target(self, pc: u32) -> Insn {
        match self {
            Insn::Goto(_) => Insn::Goto(pc),
            Insn::IfZero(_) => Insn::IfZero(pc),
            Insn::IfNonZero(_) => Insn::IfNonZero(pc),
            Insn::IfLt(_) => Insn::IfLt(pc),
            Insn::IfGe(_) => Insn::IfGe(pc),
            Insn::IfEq(_) => Insn::IfEq(pc),
            Insn::IfNe(_) => Insn::IfNe(pc),
            other => other,
        }
    }
}

/// What a handler catches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CatchKind {
    /// `catch (SomeClass e)` — matches thrown objects whose `class_tag`
    /// equals the payload.
    Class(u32),
    /// `catch (Throwable t)` / `finally` — matches every *user*
    /// exception. Never matches the internal rollback exception (§3.1.2:
    /// the augmented exception handling routine ignores all handlers that
    /// do not explicitly catch the rollback exception).
    All,
    /// The injected rollback-exception handler. Matches only rollback.
    Rollback,
}

/// One exception-table entry: pcs in `[start, end)` are covered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Handler {
    /// First covered pc.
    pub start: u32,
    /// One past the last covered pc.
    pub end: u32,
    /// Handler entry pc.
    pub target: u32,
    /// What it catches.
    pub kind: CatchKind,
}

/// A statically-delimited synchronized region inside a method body:
/// `enter` is the pc of the `MonitorEnter` and `exit` the pc one past its
/// matching `MonitorExit`. The rewrite pass turns each region into a
/// rollback scope.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SyncRegion {
    /// pc of the `MonitorEnter`.
    pub enter: u32,
    /// pc one past the matching `MonitorExit`.
    pub exit: u32,
}

/// A rewrite-injected rollback scope: one per [`SyncRegion`] after
/// [`rewrite`](crate::rewrite) has run. The interpreter revokes sections
/// by restoring the snapshot taken at `save_pc`; `handler_pc` points at
/// the injected [`Insn::RollbackHandler`] (kept as metadata mirroring the
/// paper's injected bytecode handler).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RollbackScope {
    /// pc of the injected `SaveState`.
    pub save_pc: u32,
    /// pc of the `MonitorEnter` (always `save_pc + 1`).
    pub enter_pc: u32,
    /// pc one past the matching `MonitorExit`.
    pub exit_pc: u32,
    /// pc of the injected `RollbackHandler`.
    pub handler_pc: u32,
}

/// A method.
#[derive(Clone, Debug)]
pub struct Method {
    /// Diagnostic name.
    pub name: String,
    /// Number of parameters (become locals `0..params`).
    pub params: u16,
    /// Total local-variable slots (≥ `params`).
    pub locals: u16,
    /// Code.
    pub code: Vec<Insn>,
    /// Exception table. Searched in order; first match wins (as in the
    /// JVM specification).
    pub handlers: Vec<Handler>,
    /// Synchronized regions discovered/declared in `code`.
    pub sync_regions: Vec<SyncRegion>,
    /// Whether this is a `synchronized` method (the rewrite pass wraps it
    /// in a non-synchronized wrapper holding `monitorenter(this)`).
    pub synchronized: bool,
    /// Rollback scopes injected by the rewrite pass; empty on unrewritten
    /// methods (whose sections therefore can never be revoked).
    pub rollback_scopes: Vec<RollbackScope>,
}

impl Method {
    /// Find the first matching handler for an exception of `kind_tag`
    /// (None = rollback) thrown at `pc`.
    pub fn find_handler(&self, pc: u32, thrown_class: Option<u32>) -> Option<&Handler> {
        self.handlers.iter().find(|h| {
            pc >= h.start
                && pc < h.end
                && match (h.kind, thrown_class) {
                    (CatchKind::Rollback, None) => true,
                    (_, None) => false, // rollback ignores user handlers
                    (CatchKind::Rollback, Some(_)) => false,
                    (CatchKind::All, Some(_)) => true,
                    (CatchKind::Class(c), Some(t)) => c == t,
                }
        })
    }
}

/// A whole program: methods + static-slot declarations.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// All methods.
    pub methods: Vec<Method>,
    /// Number of static slots.
    pub n_statics: u32,
    /// Static slots declared volatile.
    pub volatile_statics: Vec<u32>,
    /// Class tag → human name (the assembler's `.class` directive).
    /// Metadata only — execution never consults it; observability uses
    /// it to label monitors in reports (see `Vm::monitor_names`).
    pub class_names: std::collections::BTreeMap<u32, String>,
}

impl Program {
    /// Look up a method.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Find a method by name (diagnostics/tests).
    pub fn method_by_name(&self, name: &str) -> Option<MethodId> {
        self.methods.iter().position(|m| m.name == name).map(|i| MethodId(i as u32))
    }

    /// Total instruction count across methods.
    pub fn code_size(&self) -> usize {
        self.methods.iter().map(|m| m.code.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn method_with_handlers(handlers: Vec<Handler>) -> Method {
        Method {
            name: "t".into(),
            params: 0,
            locals: 0,
            code: vec![Insn::RetVoid],
            handlers,
            sync_regions: vec![],
            synchronized: false,
            rollback_scopes: vec![],
        }
    }

    #[test]
    fn rollback_skips_catch_all() {
        // §3.1.2: during rollback, `finally`/catch(Throwable) are ignored.
        let m = method_with_handlers(vec![
            Handler { start: 0, end: 10, target: 20, kind: CatchKind::All },
            Handler { start: 0, end: 10, target: 30, kind: CatchKind::Rollback },
        ]);
        let h = m.find_handler(5, None).unwrap();
        assert_eq!(h.target, 30);
    }

    #[test]
    fn user_exception_skips_rollback_handler() {
        let m = method_with_handlers(vec![
            Handler { start: 0, end: 10, target: 30, kind: CatchKind::Rollback },
            Handler { start: 0, end: 10, target: 20, kind: CatchKind::All },
        ]);
        let h = m.find_handler(5, Some(7)).unwrap();
        assert_eq!(h.target, 20);
    }

    #[test]
    fn class_matching_is_exact() {
        let m = method_with_handlers(vec![Handler {
            start: 0,
            end: 10,
            target: 20,
            kind: CatchKind::Class(3),
        }]);
        assert!(m.find_handler(5, Some(3)).is_some());
        assert!(m.find_handler(5, Some(4)).is_none());
    }

    #[test]
    fn range_is_half_open() {
        let m = method_with_handlers(vec![Handler {
            start: 2,
            end: 4,
            target: 9,
            kind: CatchKind::All,
        }]);
        assert!(m.find_handler(1, Some(0)).is_none());
        assert!(m.find_handler(2, Some(0)).is_some());
        assert!(m.find_handler(3, Some(0)).is_some());
        assert!(m.find_handler(4, Some(0)).is_none());
    }

    #[test]
    fn first_matching_handler_wins() {
        let m = method_with_handlers(vec![
            Handler { start: 0, end: 10, target: 11, kind: CatchKind::All },
            Handler { start: 0, end: 10, target: 12, kind: CatchKind::All },
        ]);
        assert_eq!(m.find_handler(0, Some(0)).unwrap().target, 11);
    }
    /// One instance of every variant, in [`ISA`] row order. The `match`
    /// has no wildcard arm on purpose: a new variant fails to compile
    /// here until it is added to the list below, and the row walk then
    /// demands its row.
    fn every_variant() -> Vec<Insn> {
        fn listed(i: &Insn) {
            match i {
                Insn::Const(_)
                | Insn::Load(_)
                | Insn::Store(_)
                | Insn::Dup
                | Insn::Pop
                | Insn::Swap
                | Insn::Add
                | Insn::Sub
                | Insn::Mul
                | Insn::Div
                | Insn::Rem
                | Insn::Neg
                | Insn::Goto(_)
                | Insn::IfZero(_)
                | Insn::IfNonZero(_)
                | Insn::IfLt(_)
                | Insn::IfGe(_)
                | Insn::IfEq(_)
                | Insn::IfNe(_)
                | Insn::New { .. }
                | Insn::NewArray
                | Insn::GetField(_)
                | Insn::PutField(_)
                | Insn::ALoad
                | Insn::AStore
                | Insn::GetStatic(_)
                | Insn::PutStatic(_)
                | Insn::ArrayLen
                | Insn::MonitorEnter
                | Insn::MonitorExit
                | Insn::Wait
                | Insn::Notify
                | Insn::NotifyAll
                | Insn::Call(_)
                | Insn::Spawn(_)
                | Insn::Join
                | Insn::Delegate(_)
                | Insn::Await
                | Insn::Ret
                | Insn::RetVoid
                | Insn::Throw
                | Insn::Yield
                | Insn::Sleep
                | Insn::Now
                | Insn::RandInt
                | Insn::Native(_)
                | Insn::Work
                | Insn::Nop
                | Insn::SaveState
                | Insn::RollbackHandler => {}
            }
        }
        let callee = MethodId(1);
        let all = vec![
            Insn::Const(Value::Int(7)),
            Insn::Load(0),
            Insn::Store(0),
            Insn::Dup,
            Insn::Pop,
            Insn::Swap,
            Insn::Add,
            Insn::Sub,
            Insn::Mul,
            Insn::Div,
            Insn::Rem,
            Insn::Neg,
            Insn::Goto(0),
            Insn::IfZero(0),
            Insn::IfNonZero(0),
            Insn::IfLt(0),
            Insn::IfGe(0),
            Insn::IfEq(0),
            Insn::IfNe(0),
            Insn::New { class_tag: 3, fields: 2, volatile_mask: 1 },
            Insn::NewArray,
            Insn::GetField(2),
            Insn::PutField(2),
            Insn::ALoad,
            Insn::AStore,
            Insn::GetStatic(1),
            Insn::PutStatic(1),
            Insn::ArrayLen,
            Insn::MonitorEnter,
            Insn::MonitorExit,
            Insn::Wait,
            Insn::Notify,
            Insn::NotifyAll,
            Insn::Call(callee),
            Insn::Spawn(callee),
            Insn::Join,
            Insn::Delegate(callee),
            Insn::Await,
            Insn::Ret,
            Insn::RetVoid,
            Insn::Throw,
            Insn::Yield,
            Insn::Sleep,
            Insn::Now,
            Insn::RandInt,
            Insn::Native(NativeOp::Print),
            Insn::Work,
            Insn::Nop,
            Insn::SaveState,
            Insn::RollbackHandler,
        ];
        all.iter().for_each(listed);
        all
    }

    /// `[const × height] insn [pop × (pushes + 1)] retvoid` beside a
    /// void callee of no parameters; nothing after a `Stop`.
    fn probe(insn: Insn, height: u16) -> Program {
        let op = insn.op();
        let mut code = vec![Insn::Const(Value::Int(0)); height.into()];
        code.push(insn.with_target(u32::from(height) + 1));
        if op.flow != Flow::Stop {
            code.extend(vec![Insn::Pop; usize::from(op.pushes) + 1]);
            code.push(Insn::RetVoid);
        }
        let method =
            |name: &str, code| Method { name: name.into(), code, ..method_with_handlers(vec![]) };
        Program {
            methods: vec![
                Method { locals: 1, ..method("probe", code) },
                method("callee", vec![Insn::RetVoid]),
            ],
            n_statics: 2,
            ..Program::default()
        }
    }

    /// The walk holds each row to the code that reads it. What a row
    /// *says* — its `(pops, pushes)`, its note — is held to the code it
    /// replaced by `tests/frontend_pin.rs`, whose golden measured every
    /// opcode's stack effect through the old per-file `match`es.
    #[test]
    fn every_row_agrees_with_the_assembler_the_listing_and_the_verifier() {
        use crate::verify::{verify_program, VerifyError};
        let samples = every_variant();
        assert_eq!(samples.len(), ISA.len(), "one row per variant");
        for (row, &sample) in samples.iter().enumerate() {
            assert_eq!(sample.split().0, row, "{sample:?} is listed at its row");
            let op = sample.op();
            assert!(std::ptr::eq(op, &ISA[row]));
            if !matches!(op.operand, OperandKind::Injected) {
                assert!(
                    std::ptr::eq(Op::named(op.mnemonic).expect("named"), op),
                    "{}",
                    op.mnemonic
                );
            }

            // (a) Spelled from the row's mnemonic and operand kind, it
            // assembles to exactly what the row's constructor builds.
            let (spelled, built) = match op.operand {
                OperandKind::Plain(insn) => ("", insn),
                OperandKind::Injected => ("", sample),
                OperandKind::Local(make) => ("l0", make(0)),
                OperandKind::Static(make) => ("s1", make(1)),
                OperandKind::Field(make) => ("2", make(2)),
                OperandKind::Label(make) => ("next", make(1)),
                OperandKind::Method(make) => ("callee", make(MethodId(1))),
                OperandKind::Const(make) => ("7", make(Value::Int(7))),
                OperandKind::Native(make) => ("print", make(NativeOp::Print)),
                OperandKind::New(make) => ("class=3 fields=2 volatile=1", make(3, 2, 1)),
            };
            assert_eq!(built.with_target(0), sample, "row {row} builds its own variant");
            let src = format!(
                ".method probe params=0 locals=1\n{} {spelled}\nnext:\nretvoid\n.end\n\
                 .method callee params=0\nretvoid\n.end\n",
                op.mnemonic
            );
            match (op.operand, crate::asm::assemble(&src)) {
                (OperandKind::Injected, assembled) => {
                    let e = assembled.expect_err("injected opcodes have no source spelling");
                    assert_eq!(e.message, format!("unknown instruction `{}`", op.mnemonic));
                }
                (_, assembled) => assert_eq!(assembled.expect(&src).methods[0].code[0], built),
            }

            // (b) Its listing line starts with the row's mnemonic.
            let listing = crate::disasm::disassemble_method(&probe(built, 0).methods[0]);
            let line = listing.lines().nth(1).expect("pc 0").split_once(": ").expect("pc prefix").1;
            assert_eq!(line.split_whitespace().next(), Some(op.mnemonic));
            assert_eq!(line.contains(';'), !op.note.is_empty(), "{line}");
            assert!(line.ends_with(op.note), "{line}");

            // (c) The verifier accepts it entered at height `pops`, sees
            // it leave `pushes` (the one `pop` too many is what
            // underflows), and refuses it one slot lower.
            let leftover = VerifyError::StackUnderflow {
                method: "probe".into(),
                pc: u32::from(op.pops + op.pushes) + 1,
                needs: 1,
                have: 0,
            };
            let expected = if op.flow == Flow::Stop { Ok(()) } else { Err(vec![leftover]) };
            assert_eq!(verify_program(&probe(built, op.pops)), expected, "{}", op.mnemonic);
            if let Some(have) = op.pops.checked_sub(1) {
                let short = VerifyError::StackUnderflow {
                    method: "probe".into(),
                    pc: have.into(),
                    needs: op.pops,
                    have,
                };
                let errors = verify_program(&probe(built, have)).expect_err(op.mnemonic);
                assert!(errors.contains(&short), "{}: {errors:?}", op.mnemonic);
            }

            // (d) A target to read and to replace on exactly the label
            // rows, which are exactly the rows that branch.
            let labelled = matches!(op.operand, OperandKind::Label(_));
            assert_eq!(built.with_target(77).target(), labelled.then_some(77), "{}", op.mnemonic);
            assert_eq!(matches!(op.flow, Flow::Branch | Flow::Jump), labelled);
            assert_eq!(matches!(built.operand(), Operand::Label(_)), labelled);
            if !labelled {
                assert_eq!(built.with_target(77), built);
            }
        }
    }

    #[test]
    fn barriers_sit_on_exactly_the_papers_opcodes() {
        // §3.1.2: write barriers on `putfield`, `putstatic`, `Xastore`;
        // the loads beside them are what the JMM guard checks.
        let of =
            |b| ISA.iter().filter(|op| op.barrier == b).map(|op| op.mnemonic).collect::<Vec<_>>();
        assert_eq!(of(Barrier::Write), ["putfield", "astore", "putstatic"]);
        assert_eq!(of(Barrier::Read), ["getfield", "aload", "getstatic"]);
    }

    #[test]
    fn the_assembly_reference_lists_every_source_mnemonic() {
        // docs/ASSEMBLY.md's instruction table is written by hand; every
        // row a source file can name must be a word of that section.
        let doc = include_str!("../../../docs/ASSEMBLY.md");
        let section =
            doc.split("\n## ").find(|s| s.starts_with("Instruction set")).expect("section");
        let words: Vec<&str> =
            section.split(|c: char| !(c.is_ascii_lowercase() || c == '_')).collect();
        for op in ISA.iter().filter(|op| !matches!(op.operand, OperandKind::Injected)) {
            assert!(
                words.contains(&op.mnemonic),
                "`{}` is missing from the instruction table in docs/ASSEMBLY.md",
                op.mnemonic
            );
        }
    }
}
