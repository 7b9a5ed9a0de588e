//! The bytecode interpreter, in two tiers over one definition of each
//! opcode. `local_arm!` is what the instructions that stay on the running
//! thread do — operand stack, locals, arithmetic, branches, and
//! shared-heap accesses that succeed — and declines, having changed
//! nothing, anything that would fault, trap or touch another thread.
//! `run_local` expands it as the body of a loop under one borrow of the
//! frame and settles the accounting in one go, handing back to `step` at
//! the next yield point, at any other opcode, and at a decline. `step`
//! executes any one instruction: the other opcodes with their own code,
//! these through the arm once, and a decline by `fault_of`, which reads
//! off the untouched frame the `VmError` or the Java-style exception
//! (null dereference, bounds, division by zero) — or, for a read of
//! another thread's speculative write, makes the read all the same
//! (§2.2).
//!
//! Both tiers reach the heap through `Shared`, the one place the
//! write barrier on the three store kinds (§3.1.2) and the read barrier
//! feeding the JMM-consistency guard (§2.2) are written.

use crate::analysis::ElisionTable;
use crate::bytecode::{Barrier, Insn, MethodId, NativeOp};
use crate::error::VmError;
use crate::heap::{Heap, HeapError, Location};
use crate::jmm::SpeculativeWrite;
use crate::probe::Probe;
use crate::thread::{Frame, Snapshot, ThreadState, UndoEntry, VmThread};
use crate::value::{ObjRef, Value, ValueError};
use crate::vm::{StepOutcome, Vm};
use rand::Rng;
use revmon_core::{LogMark, Metrics, ThreadId, UndoLog};

/// Class tag of the built-in `NullPointerException`.
pub const NPE_TAG: u32 = 0xFFFF_FF01;
/// Class tag of the built-in `ArrayIndexOutOfBoundsException`.
pub const OOB_TAG: u32 = 0xFFFF_FF02;
/// Class tag of the built-in `ArithmeticException` (division by zero).
pub const ARITH_TAG: u32 = 0xFFFF_FF03;
/// Class tag of the built-in `OutOfMemoryError` (heap-object limit).
pub const OOM_TAG: u32 = 0xFFFF_FF04;

/// Why `local_arm!` declined an instruction, read off the frame it
/// left untouched.
#[derive(Debug)]
pub(crate) enum Declined {
    /// The machine stops.
    Fatal(VmError),
    /// The program throws a built-in exception.
    Throw(u32),
    /// A shared read or write outside the heap.
    Heap { error: HeapError, read: bool },
    /// A read of a word carrying another thread's live stamp.
    Observed(SpeculativeWrite),
}

/// The two topmost operand-stack slots (`a` below `b`), if there are two.
#[inline(always)]
fn top2(stack: &[Value]) -> Option<(Value, Value)> {
    let [.., a, b] = stack else { return None };
    Some((*a, *b))
}

/// [`top2`] as integers; `None` also when either is a reference. (Reads
/// the slots in place: going through `top2`'s copies measurably slows the
/// loop.)
#[inline(always)]
fn top2_int(stack: &[Value]) -> Option<(i64, i64)> {
    let [.., a, b] = stack else { return None };
    Some((a.as_int().ok()?, b.as_int().ok()?))
}

/// An array index as the heap takes it; `None` for a reference, a
/// negative number, or one past `u32` (no array is that long).
#[inline(always)]
fn array_index(i: Value) -> Option<u32> {
    u32::try_from(i.as_int().ok()?).ok()
}

/// Everything a shared-heap access of the running thread touches,
/// borrowed apart from its frames so that `run_local` can hold both at
/// once: the heap, the thread's undo log and counters, and what the
/// barriers are configured to do. [`Shared::read`] and [`Shared::write`]
/// are the read and the write barrier; nothing else in the crate checks
/// the guard, logs a store, stamps a word, counts a barrier, charges one
/// or calls the heap hooks of the probe.
struct Shared<'a> {
    heap: &'a mut Heap,
    undo: &'a mut UndoLog<UndoEntry>,
    metrics: &'a mut Metrics,
    elision: Option<&'a ElisionTable>,
    probe: Option<&'a mut dyn Probe>,
    tid: ThreadId,
    /// The innermost synchronized section's mark, if the thread is in one
    /// — the write barrier's fast-path test, and where the layer whose
    /// entries a repeat store may fold into begins. No access changes it.
    section_mark: Option<LogMark>,
    barriers: bool,
    jmm_guard: bool,
    /// Whether [`Shared::read`] declines a word carrying another
    /// thread's live stamp: under the JMM guard, except when
    /// [`Vm::fault_of`] reads it all the same.
    decline_foreign: bool,
    barrier_fast: u64,
    barrier_slow: u64,
    /// Barrier ticks run up and not yet charged to the clock. No access
    /// reads the clock, so whoever built the context charges them when
    /// it is done with it (saturating, like every charge).
    ticks: u64,
}

impl Shared<'_> {
    /// The read barrier and the read: `None`, with nothing changed or
    /// charged, when the guard has something to say (§2.2: the word
    /// carries a write another thread made in a section that may yet
    /// roll back) or `loc` is not in the heap. The paper's conclusion
    /// notes such read barriers could be elided outside locked regions
    /// — disabling `jmm_guard` models that elision.
    #[inline(always)]
    fn read(&mut self, loc: Location) -> Option<Value> {
        if self.decline_foreign && self.heap.check_read(loc, self.tid).is_some() {
            return None;
        }
        let v = self.heap.read(loc).ok()?;
        if self.jmm_guard {
            self.ticks = self.ticks.saturating_add(self.barrier_fast);
        }
        if let Some(p) = &mut self.probe {
            p.on_heap_read(self.tid, loc, v);
        }
        Some(v)
    }

    /// The store and its write barrier: a fast-path "in a synchronized
    /// section?" test on every store when barriers are compiled in, the
    /// slow path logging the old value and stamping the word when inside
    /// one (§3.1.2). A word this thread already logged at or past the
    /// innermost section's mark is not logged again: the store counts
    /// itself into that entry (see [`UndoEntry`]), and is charged and
    /// counted like every other logged store. The store at `method`/`pc`
    /// skips the barrier entirely if it was statically proven to never
    /// execute inside a section (§1.1's elision). Fails, with nothing
    /// changed, when `loc` is not in the heap.
    #[inline(always)]
    fn write(
        &mut self,
        loc: Location,
        v: Value,
        method: MethodId,
        pc: u32,
    ) -> Result<(), HeapError> {
        let old = self.heap.write(loc, v)?;
        let mut logged = false;
        if self.barriers {
            if self.elision.is_some_and(|t| t.is_elided(method.index(), pc)) {
                debug_assert!(
                    self.section_mark.is_none(),
                    "elided store executed inside a synchronized section"
                );
                self.metrics.barriers_elided += 1;
            } else {
                let mut ticks = self.barrier_fast;
                self.metrics.barrier_fast_paths += 1;
                if let Some(mark) = self.section_mark {
                    logged = true;
                    let layer = mark.position();
                    let logged_in_layer =
                        self.heap.own_write(loc, self.tid).filter(|&p| p >= layer);
                    match logged_in_layer.and_then(|p| self.undo.get_mut(p)) {
                        Some(e) if e.repeats < u32::MAX => {
                            debug_assert_eq!(e.loc, loc, "a stamp names its own entry");
                            e.repeats += 1;
                        }
                        _ => {
                            self.undo.push(UndoEntry::new(loc, old));
                            self.heap.record_write(loc, self.tid, self.undo.len() - 1);
                        }
                    }
                    self.metrics.log_entries += 1;
                    self.metrics.barrier_slow_paths += 1;
                    ticks = ticks.saturating_add(self.barrier_slow);
                }
                self.ticks = self.ticks.saturating_add(ticks);
            }
        }
        if let Some(p) = &mut self.probe {
            p.on_heap_write(self.tid, loc, old, v, logged);
        }
        Ok(())
    }
}

/// What `Const Load Store Dup Pop Swap Add Sub Mul Div Rem Neg Goto
/// IfZero IfNonZero IfLt IfGe IfEq IfNe Nop` and the shared accesses
/// `GetField PutField ALoad AStore GetStatic PutStatic` do, written once
/// for both tiers: execute `insn` at `pc` of `method` on a frame's
/// `locals` and operand `stack`, reach the heap through `sh`, and
/// evaluate to the next pc. For any other opcode, and for an instruction
/// that would fault, trap or — while `sh` declines them — read a word
/// carrying another thread's live stamp, it runs `decline` instead, with
/// nothing changed or charged: what happens then is [`Vm::fault_of`]'s.
/// Every check precedes every mutation.
///
/// A macro, so that `run_local`'s loop declines with a plain `break`:
/// the same arm as an `#[inline(always)]` function returning
/// `Option<u32>` compiled into a slower loop (EXPERIMENTS.md I4).
macro_rules! local_arm {
    (
        $insn:expr, $pc:expr, $method:expr, $locals:expr, $stack:expr, $sh:expr,
        $($decline:tt)+
    ) => {{
        let (insn, pc, method): (Insn, u32, MethodId) = ($insn, $pc, $method);
        let (locals, stack, sh) = (&mut *$locals, &mut *$stack, &mut *$sh);
        // Pop two integers, push `$f(a, b)`; decline when `$f` traps.
        macro_rules! binop {
            ($f:expr) => {{
                let Some((a, b)) = top2_int(stack) else { $($decline)+ };
                let Some(v) = $f(a, b) else { $($decline)+ };
                stack.pop();
                *stack.last_mut().expect("two operands checked") = Value::Int(v);
                pc + 1
            }};
        }
        // Pop two operands with `$top2`, branch to `$t` when `$cond`.
        macro_rules! branch2 {
            ($top2:expr, $t:expr, |$a:ident, $b:ident| $cond:expr) => {{
                let Some(($a, $b)) = $top2 else { $($decline)+ };
                stack.truncate(stack.len() - 2);
                if $cond {
                    $t
                } else {
                    pc + 1
                }
            }};
        }

        match insn {
            Insn::Const(v) => {
                stack.push(v);
                pc + 1
            }
            Insn::Load(i) => {
                let Some(&v) = locals.get(i as usize) else { $($decline)+ };
                stack.push(v);
                pc + 1
            }
            Insn::Store(i) => {
                let (Some(slot), Some(&v)) = (locals.get_mut(i as usize), stack.last()) else {
                    $($decline)+
                };
                *slot = v;
                stack.pop();
                pc + 1
            }
            Insn::Dup => {
                let Some(&v) = stack.last() else { $($decline)+ };
                stack.push(v);
                pc + 1
            }
            Insn::Pop => {
                if stack.pop().is_none() {
                    $($decline)+
                }
                pc + 1
            }
            Insn::Swap => {
                let len = stack.len();
                if len < 2 {
                    $($decline)+
                }
                stack.swap(len - 2, len - 1);
                pc + 1
            }
            Insn::Add => binop!(|a: i64, b: i64| Some(a.wrapping_add(b))),
            Insn::Sub => binop!(|a: i64, b: i64| Some(a.wrapping_sub(b))),
            Insn::Mul => binop!(|a: i64, b: i64| Some(a.wrapping_mul(b))),
            Insn::Div => binop!(|a: i64, b: i64| a.checked_div(b)),
            Insn::Rem => binop!(|a: i64, b: i64| a.checked_rem(b)),
            Insn::Neg => {
                let Some(top) = stack.last_mut() else { $($decline)+ };
                let Ok(a) = top.as_int() else { $($decline)+ };
                *top = Value::Int(a.wrapping_neg());
                pc + 1
            }
            Insn::Goto(t) => t,
            Insn::IfZero(t) => {
                let Some(v) = stack.pop() else { $($decline)+ };
                if v.is_truthy() {
                    pc + 1
                } else {
                    t
                }
            }
            Insn::IfNonZero(t) => {
                let Some(v) = stack.pop() else { $($decline)+ };
                if v.is_truthy() {
                    t
                } else {
                    pc + 1
                }
            }
            Insn::IfLt(t) => branch2!(top2_int(stack), t, |a, b| a < b),
            Insn::IfGe(t) => branch2!(top2_int(stack), t, |a, b| a >= b),
            Insn::IfEq(t) => branch2!(top2(stack), t, |a, b| a == b),
            Insn::IfNe(t) => branch2!(top2(stack), t, |a, b| a != b),
            Insn::Nop => pc + 1,
            Insn::GetField(off) => {
                let Some(top @ &mut Value::Ref(r)) = stack.last_mut() else { $($decline)+ };
                let Some(v) = sh.read(Location::Obj(r, off as u32)) else { $($decline)+ };
                *top = v;
                pc + 1
            }
            Insn::PutField(off) => {
                let [.., Value::Ref(r), v] = stack[..] else { $($decline)+ };
                if sh.write(Location::Obj(r, off as u32), v, method, pc).is_err() {
                    $($decline)+
                }
                stack.truncate(stack.len() - 2);
                pc + 1
            }
            Insn::ALoad => {
                let [.., Value::Ref(r), i] = stack[..] else { $($decline)+ };
                let Some(i) = array_index(i) else { $($decline)+ };
                let Some(v) = sh.read(Location::Obj(r, i)) else { $($decline)+ };
                stack.pop();
                *stack.last_mut().expect("two operands checked") = v;
                pc + 1
            }
            Insn::AStore => {
                let [.., Value::Ref(r), i, v] = stack[..] else { $($decline)+ };
                let Some(i) = array_index(i) else { $($decline)+ };
                if sh.write(Location::Obj(r, i), v, method, pc).is_err() {
                    $($decline)+
                }
                stack.truncate(stack.len() - 3);
                pc + 1
            }
            Insn::GetStatic(s) => {
                let Some(v) = sh.read(Location::Static(s as u32)) else { $($decline)+ };
                stack.push(v);
                pc + 1
            }
            Insn::PutStatic(s) => {
                let Some(&v) = stack.last() else { $($decline)+ };
                if sh.write(Location::Static(s as u32), v, method, pc).is_err() {
                    $($decline)+
                }
                stack.pop();
                pc + 1
            }
            _ => { $($decline)+ }
        }
    }};
}

impl Vm {
    /// Borrow the VM apart for `tid`: its shared-access context, its top
    /// frame, and that frame's code.
    #[inline(always)]
    fn split(&mut self, tid: ThreadId) -> (Shared<'_>, &mut Frame, &[Insn]) {
        let VmThread { frames, sections, undo, metrics, .. } = &mut self.threads[tid.index()];
        let frame = frames.last_mut().expect("thread has no frames");
        let code = &self.program.methods[frame.method.index()].code[..];
        let shared = Shared {
            heap: &mut self.heap,
            undo,
            metrics,
            elision: self.elision.as_ref(),
            probe: self.probe.as_deref_mut(),
            tid,
            section_mark: sections.last().map(|s| s.mark),
            barriers: self.config.barriers,
            jmm_guard: self.config.jmm_guard,
            decline_foreign: self.config.jmm_guard,
            barrier_fast: self.config.cost.barrier_fast,
            barrier_slow: self.config.cost.barrier_slow,
            ticks: 0,
        };
        (shared, frame, code)
    }

    /// Run `tid`'s instructions that need nothing but its own frame and
    /// the heap — the opcodes `local_arm!` executes — until one of four
    /// exits, and return how many ran and whether the last one was a
    /// yield point:
    ///
    /// * right after a taken backward branch (the only yield point in
    ///   this opcode set), so the dispatcher's pending-revocation and
    ///   quantum checks run exactly where they do one `step` at a time;
    /// * before any other opcode;
    /// * before an instruction the arm declines (one that would fault or
    ///   trap, or read another thread's live stamp);
    /// * at pc past the end, or with `max_steps` spent.
    ///
    /// `step` takes whatever stopped it, from an untouched frame.
    ///
    /// Nothing in the set reads the clock, so charging the `n`
    /// instructions and the barrier ticks at the end is
    /// indistinguishable from charging each as it runs.
    pub(crate) fn run_local(&mut self, tid: ThreadId) -> (u64, bool) {
        #[cfg(test)]
        if self.step_only {
            return (0, false);
        }
        let budget = match self.config.max_steps {
            0 => u64::MAX,
            max => max.saturating_sub(self.steps),
        };
        let (mut sh, f, code) = self.split(tid);
        let Frame { method, pc: frame_pc, locals, stack, .. } = f;
        let method = *method;
        let mut pc = *frame_pc;
        let mut n = 0u64;
        let mut at_yield_point = false;
        while n < budget {
            let Some(&insn) = code.get(pc as usize) else { break };
            let next = local_arm!(insn, pc, method, locals, stack, &mut sh, break);
            n += 1;
            // Only a taken branch leaves `next <= pc`: a loop back-edge,
            // where Jikes RVM plants its yield points.
            at_yield_point = next <= pc;
            pc = next;
            if at_yield_point {
                break;
            }
        }

        *frame_pc = pc;
        sh.metrics.instructions += n;
        let barrier_ticks = sh.ticks;
        self.steps += n;
        self.charge(n.saturating_mul(self.config.cost.instruction).saturating_add(barrier_ticks));
        (n, at_yield_point)
    }

    /// Execute one instruction of `tid`. The pc is advanced before
    /// execution (branch targets overwrite it), matching the JVM.
    pub(crate) fn step(&mut self, tid: ThreadId) -> Result<StepOutcome, VmError> {
        // Dispatch prologue in a single pass over the thread entry:
        // fetch (method, pc), resolve the code slice, advance the pc and
        // count the instruction under one borrow. Field access (not the
        // `thread_mut` accessor) keeps the frame borrow disjoint from the
        // `self.program` borrow. This runs once per bytecode executed.
        let t = &mut self.threads[tid.index()];
        let f = t.frames.last_mut().expect("thread has no frames");
        let (mid, pc) = (f.method, f.pc);
        let method = &self.program.methods[mid.index()];
        let Some(&insn) = method.code.get(pc as usize) else {
            return Err(VmError::BadPc { method: method.name.clone(), pc });
        };
        f.pc = pc + 1;
        t.metrics.instructions += 1;
        self.charge(self.config.cost.instruction);

        let cont = Ok(StepOutcome::Continue { yield_point: false });
        let cont_yield = Ok(StepOutcome::Continue { yield_point: true });

        match insn {
            // --- the fast loop's set: its arm, else its fault -----------
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
            | Insn::Nop
            | Insn::GetField(_)
            | Insn::PutField(_)
            | Insn::ALoad
            | Insn::AStore
            | Insn::GetStatic(_)
            | Insn::PutStatic(_) => self.step_local(tid, insn, pc),

            // --- heap ---------------------------------------------------
            Insn::New { class_tag, fields, volatile_mask } => {
                if self.heap_exhausted() {
                    return self.throw_builtin(tid, OOM_TAG);
                }
                let r = self.heap.alloc_with_volatile(class_tag, fields as u32, volatile_mask);
                self.push(tid, Value::Ref(r));
                cont
            }
            Insn::NewArray => {
                let n = self.pop_int(tid)?;
                if n < 0 {
                    return self.throw_builtin(tid, OOB_TAG);
                }
                if self.heap_exhausted() {
                    return self.throw_builtin(tid, OOM_TAG);
                }
                // No array is longer than `u32::MAX`: a length past it
                // is memory the heap does not have.
                let Ok(n) = u32::try_from(n) else {
                    return self.throw_builtin(tid, OOM_TAG);
                };
                let r = self.heap.alloc_array(n);
                self.push(tid, Value::Ref(r));
                cont
            }
            Insn::ArrayLen => {
                let r = match self.pop_obj(tid)? {
                    Ok(r) => r,
                    Err(outcome) => return Ok(outcome),
                };
                let n = self.heap.length_of(r)?;
                self.push(tid, Value::Int(n as i64));
                cont
            }

            // --- monitors -----------------------------------------------
            Insn::MonitorEnter => {
                let r = match self.pop_obj(tid)? {
                    Ok(r) => r,
                    Err(outcome) => return Ok(outcome),
                };
                if self.monitor_enter(tid, r)? {
                    cont_yield
                } else {
                    Ok(StepOutcome::Descheduled)
                }
            }
            Insn::MonitorExit => {
                let r = match self.pop_obj(tid)? {
                    Ok(r) => r,
                    Err(outcome) => return Ok(outcome),
                };
                self.charge(self.config.cost.monitor_op);
                // Combiner handoff: before an outermost release the holder
                // drains pending delegated submissions (budget permitting),
                // then control returns here to re-run the exit.
                if self.can_drain(tid, r) {
                    let f = self.thread_mut(tid).frame_mut();
                    f.pc = pc; // re-run this MonitorExit after the drain
                    f.stack.push(Value::Ref(r));
                    self.drain_one_submission(tid, r, false);
                    return cont_yield;
                }
                self.exit_section_common(tid, r)?;
                cont_yield
            }
            Insn::Wait => {
                let r = match self.pop_obj(tid)? {
                    Ok(r) => r,
                    Err(outcome) => return Ok(outcome),
                };
                self.do_wait(tid, r)?;
                Ok(StepOutcome::Descheduled)
            }
            Insn::Notify => {
                let r = match self.pop_obj(tid)? {
                    Ok(r) => r,
                    Err(outcome) => return Ok(outcome),
                };
                self.do_notify(tid, r, false)?;
                cont
            }
            Insn::NotifyAll => {
                let r = match self.pop_obj(tid)? {
                    Ok(r) => r,
                    Err(outcome) => return Ok(outcome),
                };
                self.do_notify(tid, r, true)?;
                cont
            }

            // --- calls ---------------------------------------------------
            Insn::Call(callee) => {
                let params = self.program.methods[callee.index()].params as usize;
                let mut frame = self.new_frame(callee, &[]);
                for i in (0..params).rev() {
                    frame.locals[i] = self.pop(tid)?;
                }
                self.thread_mut(tid).frames.push(frame);
                cont_yield // method entry is a yield point (Jikes prologues)
            }
            Insn::Spawn(target) => {
                // Spawning is irrevocable (a rollback cannot un-create the
                // thread): pin every enclosing section, like a native call.
                self.pin_enclosing_sections(tid);
                let prio_level = self.pop_int(tid)?;
                let params = self.program.methods[target.index()].params as usize;
                let mut frame = self.new_frame(target, &[]);
                for i in (0..params).rev() {
                    let arg = self.pop(tid)?;
                    // A parameter past the method's locals is dropped, as
                    // `Vm::spawn` drops it.
                    if let Some(local) = frame.locals.get_mut(i) {
                        *local = arg;
                    }
                }
                let prio = revmon_core::Priority::new(prio_level.clamp(1, 10) as u8);
                let n = self.threads.len();
                let child = self.start_thread(format_args!("spawn{n}"), frame, prio);
                self.push(tid, Value::Int(child.0 as i64));
                cont_yield
            }
            Insn::Join => {
                let target = self.pop_int(tid)?;
                if target < 0 || target as usize >= self.threads.len() {
                    return self.throw_builtin(tid, OOB_TAG);
                }
                let target = ThreadId(target as u32);
                if target == tid || self.thread(target).is_terminated() {
                    return cont_yield; // joining self or a finished thread: no-op
                }
                self.thread_mut(tid).state = ThreadState::BlockedJoin(target);
                self.join_waiters.push((target, tid));
                Ok(StepOutcome::Descheduled)
            }
            Insn::Ret => {
                let v = self.pop(tid)?;
                self.do_return(tid, Some(v))
            }
            Insn::RetVoid => self.do_return(tid, None),

            // --- delegation (combiner) -----------------------------------
            Insn::Delegate(target) => {
                let params = self.program.methods[target.index()].params as usize;
                let mut args = self.spare.pop().unwrap_or_default();
                args.resize(params, Value::Null);
                for i in (0..params).rev() {
                    args[i] = self.pop(tid)?;
                }
                let r = match self.pop_obj(tid)? {
                    Ok(r) => r,
                    Err(outcome) => return Ok(outcome),
                };
                self.charge(self.config.cost.monitor_op);
                let token = self.submit_delegation(tid, r, target, args);
                // The token goes to *this* frame's stack before any
                // delegated frame is pushed on top of it.
                self.push(tid, Value::Int(token as i64));
                if self.monitors.get(r).map(|m| m.owner.is_none()).unwrap_or(true) {
                    // Free monitor: the submitter acquires it and becomes
                    // the combiner, draining in priority order.
                    self.become_combiner(tid, r);
                }
                cont_yield
            }
            Insn::Await => {
                let token_i = self.pop_int(tid)?;
                self.charge(self.config.cost.monitor_op);
                if token_i < 0 || token_i >= self.next_token as i64 {
                    return Err(VmError::IllegalMonitorState(
                        "await on a token that was never issued",
                    ));
                }
                let token = token_i as u32;
                if let Some(v) = self.delegation_results.remove(&token) {
                    self.push(tid, v);
                    return cont_yield;
                }
                // Not complete yet. If the submission still sits queued on
                // a *free* monitor (its combiner released before reaching
                // it), help: become the combiner, then re-run this Await.
                let host = self
                    .monitors
                    .iter()
                    .find(|(_, m)| m.submissions.iter().any(|c| c.token == token))
                    .map(|(o, m)| (*o, m.owner));
                match host {
                    Some((obj, None)) => {
                        {
                            let f = self.thread_mut(tid).frame_mut();
                            f.pc = pc; // re-run Await once combining is done
                            f.stack.push(Value::Int(token_i));
                        }
                        self.become_combiner(tid, obj);
                        cont_yield
                    }
                    Some((obj, Some(o))) if o == tid => {
                        // We hold the host monitor ourselves (submitted
                        // while inside our own section): blocking would
                        // self-deadlock — drain now and re-run the Await.
                        {
                            let f = self.thread_mut(tid).frame_mut();
                            f.pc = pc;
                            f.stack.push(Value::Int(token_i));
                        }
                        self.drain_one_submission(tid, obj, false);
                        cont_yield
                    }
                    _ => {
                        // Queued behind a live holder, or currently
                        // executing in some combiner: block until the
                        // completion delivers our result.
                        self.thread_mut(tid).state = ThreadState::AwaitingDelegation(token);
                        Ok(StepOutcome::Descheduled)
                    }
                }
            }

            // --- exceptions ----------------------------------------------
            Insn::Throw => {
                let r = match self.pop_obj(tid)? {
                    Ok(r) => r,
                    Err(outcome) => return Ok(outcome),
                };
                self.throw_user(tid, r)
            }

            // --- scheduling / misc ----------------------------------------
            Insn::Yield => {
                // Thread.yield(): go to the back of the run queue.
                self.make_ready(tid);
                Ok(StepOutcome::Descheduled)
            }
            Insn::Sleep => {
                let n = self.pop_int(tid)?;
                if n <= 0 {
                    return cont_yield;
                }
                self.thread_mut(tid).state =
                    ThreadState::Sleeping(self.clock.saturating_add(n as u64));
                Ok(StepOutcome::Descheduled)
            }
            Insn::Now => {
                // A saturated clock reads as the largest integer, not as
                // a negative one.
                let c = i64::try_from(self.clock).unwrap_or(i64::MAX);
                self.push(tid, Value::Int(c));
                cont
            }
            Insn::RandInt => {
                let bound = self.pop_int(tid)?;
                let v = if bound <= 0 {
                    0
                } else {
                    self.rng_draws += 1;
                    self.rng.gen_range(0..bound)
                };
                self.push(tid, Value::Int(v));
                cont
            }
            Insn::Native(op) => {
                // Native effects are irrevocable: every enclosing monitor
                // becomes non-revocable (§2.2).
                self.pin_enclosing_sections(tid);
                match op {
                    NativeOp::Print | NativeOp::Emit => {
                        let v = self.pop(tid)?;
                        self.output.push(v);
                    }
                }
                cont
            }
            Insn::Work => {
                let n = self.pop_int(tid)?;
                if n > 0 {
                    self.charge((n as u64).saturating_mul(self.config.cost.instruction));
                }
                cont_yield
            }
            // --- rewrite-injected --------------------------------------------
            Insn::SaveState => {
                let t = &mut self.threads[tid.index()];
                // Re-execution re-runs SaveState itself.
                let snap = Snapshot::of(t.frame(), pc, false, &mut self.spare);
                if let Some(old) = t.pending_snapshot.replace(snap) {
                    old.recycle(&mut self.spare);
                }
                cont
            }
            Insn::RollbackHandler => {
                Err(VmError::Internal("RollbackHandler reached by normal control flow"))
            }
        }
    }

    /// Whether the configured heap-object limit is reached (this VM has
    /// no GC — allocation is an arena, so the limit is a hard program
    /// budget).
    fn heap_exhausted(&self) -> bool {
        self.config.max_heap_objects != 0
            && self.heap.object_count() >= self.config.max_heap_objects
    }

    // --- the fast loop's set, one instruction at a time ----------------

    /// `step` on an opcode of `local_arm!`'s set: the arm, else
    /// [`Vm::fault_of`] on the frame it left untouched.
    fn step_local(&mut self, tid: ThreadId, insn: Insn, pc: u32) -> Result<StepOutcome, VmError> {
        #[cfg(test)]
        let (fault, objects) = (self.declined(tid, insn, pc), self.heap.object_count());
        let arm = self.run_arm(tid, insn, pc, false);
        #[cfg(test)]
        let declined = arm.is_none();
        let outcome = match arm {
            Some(continued) => Ok(continued),
            None => self.fault_of(tid, insn, pc),
        };
        #[cfg(test)]
        self.arm_calls.push(crate::interp_parity::ArmCall {
            insn,
            fault,
            declined,
            completed: matches!(outcome, Ok(StepOutcome::Continue { .. }))
                && self.heap.object_count() == objects,
        });
        outcome
    }

    /// `local_arm!` on `tid`'s top frame at `pc`, with its barrier
    /// ticks charged. `observe` reads a word carrying another thread's
    /// live stamp instead of declining it.
    fn run_arm(
        &mut self,
        tid: ThreadId,
        insn: Insn,
        pc: u32,
        observe: bool,
    ) -> Option<StepOutcome> {
        let (mut sh, f, _) = self.split(tid);
        sh.decline_foreign &= !observe;
        let next = 'arm: {
            Some(local_arm!(
                insn,
                pc,
                f.method,
                &mut f.locals,
                &mut f.stack,
                &mut sh,
                break 'arm None
            ))
        }?;
        f.pc = next;
        let ticks = sh.ticks;
        self.charge(ticks);
        Some(StepOutcome::Continue { yield_point: next <= pc })
    }

    /// Why `local_arm!` declines `insn` at `pc` on `tid`'s frame as it
    /// stands, if it does. Underflow comes first, from the ISA row's
    /// `pops`; then the operands from the top of the stack down, a local
    /// index, a trap, the receiver, the index's range and the heap, in
    /// that order; a read asks the JMM guard before the heap.
    fn declined(&self, tid: ThreadId, insn: Insn, pc: u32) -> Option<Declined> {
        let f = self.thread(tid).frame();
        let stack = &f.stack[..];
        let method = || self.program.methods[f.method.index()].name.clone();
        let pops = usize::from(insn.op().pops);
        if stack.len() < pops {
            return Some(Declined::Fatal(VmError::StackUnderflow { method: method(), pc }));
        }
        // Operand `$k`, counted from the top, as an integer or a receiver.
        macro_rules! int {
            ($k:expr) => {
                match stack[stack.len() - 1 - $k].as_int() {
                    Ok(i) => i,
                    Err(error) => {
                        return Some(Declined::Fatal(VmError::Value { method: method(), pc, error }))
                    }
                }
            };
        }
        macro_rules! obj {
            ($k:expr) => {
                match stack[stack.len() - 1 - $k].as_ref() {
                    Ok(r) => r,
                    Err(ValueError::NullReference) => return Some(Declined::Throw(NPE_TAG)),
                    Err(error) => {
                        return Some(Declined::Fatal(VmError::Value { method: method(), pc, error }))
                    }
                }
            };
        }
        let loc = match insn {
            Insn::Load(i) | Insn::Store(i) => {
                return (usize::from(i) >= f.locals.len())
                    .then_some(Declined::Fatal(VmError::Internal("local index out of range")));
            }
            Insn::Neg => {
                int!(0);
                return None;
            }
            Insn::Add
            | Insn::Sub
            | Insn::Mul
            | Insn::Div
            | Insn::Rem
            | Insn::IfLt(_)
            | Insn::IfGe(_) => {
                let (b, a) = (int!(0), int!(1));
                let traps = match insn {
                    Insn::Div => a.checked_div(b).is_none(),
                    Insn::Rem => a.checked_rem(b).is_none(),
                    _ => false,
                };
                return traps.then_some(Declined::Throw(ARITH_TAG));
            }
            // The receiver is the deepest operand, an index right above it.
            Insn::GetField(off) | Insn::PutField(off) => Location::Obj(obj!(pops - 1), off as u32),
            Insn::ALoad | Insn::AStore => {
                let i = int!(pops - 2);
                let r = obj!(pops - 1);
                match u32::try_from(i) {
                    Ok(i) => Location::Obj(r, i),
                    Err(_) => return Some(Declined::Throw(OOB_TAG)),
                }
            }
            Insn::GetStatic(s) | Insn::PutStatic(s) => Location::Static(s as u32),
            _ => return None,
        };
        let read = insn.op().barrier == Barrier::Read;
        if read && self.config.jmm_guard {
            if let Some(w) = self.heap.check_read(loc, tid) {
                return Some(Declined::Observed(w));
            }
        }
        self.heap.read(loc).err().map(|error| Declined::Heap { error, read })
    }

    /// What `step` makes of an instruction `local_arm!` declined, from
    /// the frame it left untouched: the `VmError`, the thrown exception,
    /// or — for a read of a word carrying another thread's live stamp —
    /// the read all the same, after which the writer's enclosing
    /// sections stop being revocable (§2.2).
    fn fault_of(&mut self, tid: ThreadId, insn: Insn, pc: u32) -> Result<StepOutcome, VmError> {
        match self.declined(tid, insn, pc) {
            Some(Declined::Fatal(e)) => Err(e),
            Some(Declined::Throw(tag)) => self.throw_builtin(tid, tag),
            Some(Declined::Heap { error, read }) => {
                // The read barrier ran before the access faulted.
                if read && self.config.jmm_guard {
                    self.charge(self.config.cost.barrier_fast);
                }
                self.heap_fault(tid, error)
            }
            Some(Declined::Observed(w)) => {
                let outcome = self.run_arm(tid, insn, pc, true);
                self.mark_observed(w);
                outcome.ok_or(VmError::Internal("a stamped word could not be read"))
            }
            None => Err(VmError::Internal("an instruction was declined without a fault")),
        }
    }

    /// `tid` performs an irrevocable effect (a native call, a spawn):
    /// every section it is in stops being revocable (§2.2). The flips
    /// are counted and, if there were any, announced by one
    /// `NonRevocable` on the outermost section's monitor.
    fn pin_enclosing_sections(&mut self, tid: ThreadId) {
        if !self.thread(tid).in_section() {
            return;
        }
        let flipped = self.thread_mut(tid).mark_all_nonrevocable();
        self.global.monitors_marked_nonrevocable += flipped;
        if flipped > 0 {
            let m = self.thread(tid).sections[0].monitor;
            self.emit(tid, m, revmon_obs::EventKind::NonRevocable);
        }
    }

    /// Another thread read speculative write `w`: rolling it back could
    /// now take a value that thread used out of thin air, so every
    /// section of the writer enclosing it stops being revocable (§2.2).
    fn mark_observed(&mut self, w: SpeculativeWrite) {
        let flipped = self.threads[w.writer.index()].mark_nonrevocable_enclosing(w.log_pos);
        self.global.monitors_marked_nonrevocable += flipped;
        if flipped > 0 {
            let sections = &self.threads[w.writer.index()].sections;
            let m = sections.first().map(|s| s.monitor).unwrap_or(ObjRef(0));
            self.emit(w.writer, m, revmon_obs::EventKind::NonRevocable);
        }
    }

    /// A shared access outside the heap: past an object's slots or the
    /// static table is Java's `ArrayIndexOutOfBounds`, anything else a
    /// machine fault.
    fn heap_fault(&mut self, tid: ThreadId, e: HeapError) -> Result<StepOutcome, VmError> {
        match e {
            HeapError::BadOffset(..) | HeapError::BadStatic(_) => self.throw_builtin(tid, OOB_TAG),
            e => Err(e.into()),
        }
    }

    // --- exceptions ---------------------------------------------------------

    /// Allocate and throw a built-in exception (`NPE`, `OOB`, `ARITH`).
    pub(crate) fn throw_builtin(
        &mut self,
        tid: ThreadId,
        tag: u32,
    ) -> Result<StepOutcome, VmError> {
        let exc = self.heap.alloc(tag, 0);
        self.throw_user(tid, exc)
    }

    /// Throw a user exception from the current pc, unwinding frames. The
    /// *standard* propagation rules apply (this is not the rollback path):
    /// catch-all/`finally` handlers run, and monitors of synchronized
    /// regions being exited are released (as javac's synthetic handlers
    /// would), with their updates kept — an exceptional exit is a normal
    /// exit as far as the log is concerned.
    pub(crate) fn throw_user(
        &mut self,
        tid: ThreadId,
        exc: ObjRef,
    ) -> Result<StepOutcome, VmError> {
        let class_tag = self.heap.object(exc)?.class_tag;
        loop {
            let depth = self.thread(tid).frames.len() - 1;
            let (mid, throw_pc) = {
                let f = self.thread(tid).frame();
                (f.method, f.pc.saturating_sub(1))
            };
            let handler =
                self.program.methods[mid.index()].find_handler(throw_pc, Some(class_tag)).copied();
            if let Some(h) = handler {
                // Release sections of this frame whose region does not
                // cover the handler.
                #[allow(clippy::while_let_loop)]
                loop {
                    let Some(top) = self.thread(tid).sections.last() else { break };
                    if top.frame_depth < depth {
                        break;
                    }
                    let covers = match top.region {
                        Some((s, e)) => h.target >= s && h.target < e,
                        None => true, // unknown extent: assume it covers
                    };
                    if top.frame_depth == depth && covers {
                        break;
                    }
                    let obj = top.monitor;
                    self.exit_section_common(tid, obj)?;
                }
                let f = self.thread_mut(tid).frame_mut();
                f.stack.clear();
                f.stack.push(Value::Ref(exc));
                f.pc = h.target;
                return Ok(StepOutcome::Continue { yield_point: false });
            }
            // No handler here: release this frame's sections and pop it.
            #[allow(clippy::while_let_loop)]
            loop {
                let Some(top) = self.thread(tid).sections.last() else { break };
                if top.frame_depth < depth {
                    break;
                }
                let obj = top.monitor;
                self.exit_section_common(tid, obj)?;
            }
            self.pop_frame(tid);
            if self.thread(tid).frames.is_empty() {
                let t = self.thread_mut(tid);
                t.uncaught = Some(class_tag);
                t.state = ThreadState::Terminated;
                return Ok(StepOutcome::Terminated);
            }
        }
    }

    fn do_return(&mut self, tid: ThreadId, v: Option<Value>) -> Result<StepOutcome, VmError> {
        let depth = self.thread(tid).frames.len() - 1;
        if self.thread(tid).sections.last().map(|s| s.frame_depth >= depth).unwrap_or(false) {
            return Err(VmError::IllegalMonitorState("return with an open synchronized section"));
        }
        if let Some(d) = self.thread(tid).frame().delegated {
            // A delegated section's return completes its submission token
            // instead of feeding the caller's operand stack, then either
            // keeps combining or hands the monitor back (see
            // `complete_delegation`).
            self.pop_frame(tid);
            self.complete_delegation(tid, d, v.unwrap_or(Value::Int(0)))?;
            return Ok(StepOutcome::Continue { yield_point: true });
        }
        self.pop_frame(tid);
        if self.thread(tid).frames.is_empty() {
            self.thread_mut(tid).state = ThreadState::Terminated;
            return Ok(StepOutcome::Terminated);
        }
        if let Some(v) = v {
            self.push(tid, v);
        }
        Ok(StepOutcome::Continue { yield_point: false })
    }

    // --- small helpers -----------------------------------------------------

    pub(crate) fn push(&mut self, tid: ThreadId, v: Value) {
        self.thread_mut(tid).frame_mut().stack.push(v);
    }

    /// The method and pc of the instruction `tid` is executing (`step`
    /// has advanced the frame's pc past it).
    fn site(&self, tid: ThreadId) -> (String, u32) {
        let f = self.thread(tid).frame();
        (self.program.methods[f.method.index()].name.clone(), f.pc.saturating_sub(1))
    }

    pub(crate) fn pop(&mut self, tid: ThreadId) -> Result<Value, VmError> {
        self.thread_mut(tid).frame_mut().stack.pop().ok_or_else(|| {
            let (method, pc) = self.site(tid);
            VmError::StackUnderflow { method, pc }
        })
    }

    fn value_fault(&self, tid: ThreadId, error: ValueError) -> VmError {
        let (method, pc) = self.site(tid);
        VmError::Value { method, pc, error }
    }

    fn pop_int(&mut self, tid: ThreadId) -> Result<i64, VmError> {
        self.pop(tid)?.as_int().map_err(|e| self.value_fault(tid, e))
    }

    /// Pop a reference; a `Null` turns into a thrown NPE (the `Err` arm
    /// carries the resulting step outcome).
    fn pop_obj(&mut self, tid: ThreadId) -> Result<Result<ObjRef, StepOutcome>, VmError> {
        match self.pop(tid)?.as_ref() {
            Ok(r) => Ok(Ok(r)),
            Err(ValueError::NullReference) => Ok(Err(self.throw_builtin(tid, NPE_TAG)?)),
            Err(e) => Err(self.value_fault(tid, e)),
        }
    }
}
