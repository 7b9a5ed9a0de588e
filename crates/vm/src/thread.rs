//! Green threads: frames, synchronized-section records, undo logs.
//!
//! Threads in this VM are *pseudo-preemptive* exactly as in Jikes RVM
//! (§3.1, footnote 4): context switches happen only at yield points
//! (explicit `Yield`, taken backward branches, method entries, and
//! monitor operations), which is also where pending revocations are acted
//! upon.

use crate::bytecode::MethodId;
use crate::heap::Location;
use crate::value::{ObjRef, Value};
use revmon_core::{LogMark, Metrics, Priority, ThreadId, UndoLog};

/// One logged word: where and what the old value was. Matches the
/// paper's log record ("object or array reference, value offset and the
/// (old) value itself"; statics: "offset of the static variable in the
/// global symbol table and the old value").
///
/// The paper logs every store; this log keeps one entry per word and
/// section layer. A logged store that finds the word already logged by
/// its own thread at or past the innermost section's mark counts itself
/// into that entry's `repeats` instead of appending (the earlier entry's
/// `old` is the value a rollback must restore). A rollback charges and
/// reports `1 + repeats` per entry, so every count and clock reading is
/// the paper's per-store one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UndoEntry {
    /// Overwritten location.
    pub loc: Location,
    /// Value to restore on rollback.
    pub old: Value,
    /// Logged stores to `loc` folded into this entry after the first.
    pub repeats: u32,
}

impl UndoEntry {
    /// The entry of the first logged store to `loc` in a section layer.
    pub fn new(loc: Location, old: Value) -> Self {
        UndoEntry { loc, old, repeats: 0 }
    }

    /// Logged stores this entry stands for.
    pub fn stores(&self) -> u64 {
        1 + self.repeats as u64
    }
}

/// An activation record.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Executing method.
    pub method: MethodId,
    /// Next instruction index.
    pub pc: u32,
    /// Local variable slots.
    pub locals: Vec<Value>,
    /// Operand stack.
    pub stack: Vec<Value>,
    /// Set when this frame executes a *delegated* critical section on
    /// behalf of a submitter (see [`DelegatedFrame`]): its return
    /// completes the submission's token instead of pushing a value onto
    /// the caller's stack.
    pub delegated: Option<DelegatedFrame>,
}

impl Frame {
    /// A fresh ordinary frame with `locals` slots, the first ones `args`
    /// and the rest `Null`, built in vectors from `spare`, its operand
    /// stack reserved to `depth` values.
    pub(crate) fn in_spare(
        method: MethodId,
        args: &[Value],
        locals: usize,
        depth: usize,
        spare: &mut Spare,
    ) -> Self {
        let mut l = spare.pop().unwrap_or_default();
        l.extend_from_slice(args);
        l.resize(locals, Value::Null);
        let mut stack = spare.pop().unwrap_or_default();
        stack.reserve(depth);
        Frame { method, pc: 0, locals: l, stack, delegated: None }
    }

    /// Give the frame's locals and operand stack to `spare`.
    pub(crate) fn recycle(self, spare: &mut Spare) {
        keep(spare, self.locals);
        keep(spare, self.stack);
    }
}

/// Emptied value vectors — frames' locals and operand stacks, their
/// snapshots' copies, delegated calls' arguments — for the next ones to
/// fill.
pub(crate) type Spare = Vec<Vec<Value>>;

/// Empty `values` into `spare`.
pub(crate) fn keep(spare: &mut Spare, mut values: Vec<Value>) {
    values.clear();
    spare.push(values);
}

/// Combiner bookkeeping attached to a frame executing a delegated
/// critical section (`Insn::Delegate` submissions drained by the
/// monitor's current holder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelegatedFrame {
    /// Completion token of the submission this frame executes.
    pub token: u32,
    /// The combiner's monitor.
    pub monitor: ObjRef,
    /// The thread that submitted the section (event attribution).
    pub submitter: ThreadId,
    /// Whether the executor acquired the monitor *solely* to combine
    /// (a `Delegate` on a free monitor): its return drains further
    /// submissions and then releases. Holders draining at `MonitorExit`
    /// leave this false — control returns to the pending exit instead.
    pub release_on_return: bool,
}

/// Saved frame state for re-execution (the paper's injected
/// "save the values on the operand stack just before each rollback-scope's
/// monitorenter" plus local variables, §3.1.1).
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Saved locals.
    pub locals: Vec<Value>,
    /// Saved operand stack (monitor reference on top, so re-execution
    /// re-runs `MonitorEnter` itself).
    pub stack: Vec<Value>,
    /// pc to resume at (the `SaveState` instruction, or the instruction
    /// after `Wait` for post-wait restart points).
    pub resume_pc: u32,
    /// Whether resuming requires re-acquiring the monitor first (post-wait
    /// restart): the snapshot resumes *inside* the section rather than at
    /// its `MonitorEnter`.
    pub after_wait: bool,
}

/// An active synchronized-section record, pushed at `MonitorEnter` and
/// popped at `MonitorExit` or by rollback.
#[derive(Clone, Debug)]
pub struct Section {
    /// The monitor object.
    pub monitor: ObjRef,
    /// Globally unique acquisition id — the rollback exception's target
    /// identity (§3.1.1: the handler "checks if it corresponds to the
    /// synchronized section that is to be re-executed").
    pub acq_id: u64,
    /// Undo-log mark taken at entry.
    pub mark: LogMark,
    /// Index of the frame executing the section.
    pub frame_depth: usize,
    /// Saved state for re-execution; `None` when the section was entered
    /// through unrewritten code (unmodified VM) and can never roll back.
    pub snapshot: Option<Snapshot>,
    /// Cleared when the JMM-consistency guard, a native call, or a nested
    /// `wait` forbids revocation of this execution (§2.2).
    pub revocable: bool,
    /// Static extent `[enter_pc, exit_pc)` of the region in its method's
    /// code, when known (structured `sync_on_local` blocks / rewritten
    /// regions). Used to release monitors correctly while unwinding user
    /// exceptions. `None` (raw unstructured enter) pessimistically covers
    /// the whole method.
    pub region: Option<(u32, u32)>,
}

impl Snapshot {
    /// A copy of `frame`'s locals and operand stack resuming at
    /// `resume_pc`, built in vectors from `spare`.
    pub(crate) fn of(frame: &Frame, resume_pc: u32, after_wait: bool, spare: &mut Spare) -> Self {
        let mut locals = spare.pop().unwrap_or_default();
        locals.extend_from_slice(&frame.locals);
        let mut stack = spare.pop().unwrap_or_default();
        stack.extend_from_slice(&frame.stack);
        Snapshot { locals, stack, resume_pc, after_wait }
    }

    /// Give the snapshot's vectors to `spare`.
    pub(crate) fn recycle(self, spare: &mut Spare) {
        keep(spare, self.locals);
        keep(spare, self.stack);
    }
}

impl Section {
    /// Whether this execution can currently be revoked.
    pub fn can_revoke(&self) -> bool {
        self.revocable && self.snapshot.is_some()
    }
}

/// Scheduling state of a green thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable, waiting for the scheduler.
    Ready,
    /// Currently executing.
    Running,
    /// Queued on a monitor's entry queue (contended `MonitorEnter`).
    BlockedEnter(ObjRef),
    /// In a monitor's wait set (`Object.wait`).
    Waiting(ObjRef),
    /// Notified (or rolled back to a post-wait restart): queued to
    /// re-acquire the monitor before resuming.
    BlockedReacquire(ObjRef),
    /// Asleep until the given virtual-clock tick.
    Sleeping(u64),
    /// Blocked in `Join` until the given thread terminates.
    BlockedJoin(ThreadId),
    /// Blocked in `Await` until the delegated call with this token
    /// completes.
    AwaitingDelegation(u32),
    /// Finished.
    Terminated,
}

/// A green thread.
#[derive(Debug)]
pub struct VmThread {
    /// Identity.
    pub id: ThreadId,
    /// Diagnostic name.
    pub name: String,
    /// Base (programmer-assigned) priority.
    pub base_priority: Priority,
    /// Effective priority (base, possibly boosted by priority
    /// inheritance or a ceiling while holding monitors).
    pub effective_priority: Priority,
    /// Activation stack.
    pub frames: Vec<Frame>,
    /// Active synchronized sections, innermost last.
    pub sections: Vec<Section>,
    /// Sequential undo buffer.
    pub undo: UndoLog<UndoEntry>,
    /// Scheduling state.
    pub state: ThreadState,
    /// Pending revocation: acquisition id of the section to roll back,
    /// set by a higher-priority contender (or the deadlock breaker) and
    /// honoured at the next yield point.
    pub pending_revoke: Option<u64>,
    /// Monitors currently held (one entry per first acquisition, with
    /// recursion counted in the monitor itself). Used to recompute
    /// effective priority when inheritance boosts expire.
    pub held: Vec<ObjRef>,
    /// Virtual time when the thread first ran (`run()` entry timestamp).
    pub start_time: Option<u64>,
    /// Virtual time when the thread terminated.
    pub end_time: Option<u64>,
    /// Per-thread counters.
    pub metrics: Metrics,
    /// Saved wait-set recursion count while in `Object.wait` (the monitor
    /// is fully released and re-acquired to this depth).
    pub wait_recursion: u32,
    /// Consecutive revocations of the current section execution without an
    /// intervening commit — the livelock guard consults this.
    pub consecutive_revocations: u32,
    /// Snapshot produced by the last `SaveState`, consumed by the next
    /// `MonitorEnter` (possibly after blocking on the entry queue).
    pub pending_snapshot: Option<Snapshot>,
    /// Class tag of an uncaught exception that terminated the thread.
    pub uncaught: Option<u32>,
    /// Simulated core this thread is pinned to (`id % cores`, assigned
    /// at spawn). Always 0 in single-core configurations.
    pub core: usize,
}

/// The buffers of a finished thread — name, frame stack, section stack,
/// undo log, held list — emptied, for the next VM's threads to fill (see
/// [`crate::vm::Bin`]).
#[derive(Debug, Default)]
pub(crate) struct ThreadShell {
    pub(crate) name: String,
    frames: Vec<Frame>,
    sections: Vec<Section>,
    undo: Vec<UndoEntry>,
    held: Vec<ObjRef>,
}

impl VmThread {
    /// A fresh thread about to run `frame`, built in `shell`, whose name
    /// the caller has already written.
    pub(crate) fn in_shell(
        id: ThreadId,
        priority: Priority,
        frame: Frame,
        shell: ThreadShell,
    ) -> Self {
        let ThreadShell { name, mut frames, sections, undo, held } = shell;
        frames.push(frame);
        VmThread {
            id,
            name,
            base_priority: priority,
            effective_priority: priority,
            frames,
            sections,
            undo: UndoLog::with_buffer(undo),
            state: ThreadState::Ready,
            pending_revoke: None,
            held,
            start_time: None,
            end_time: None,
            metrics: Metrics::new(),
            wait_recursion: 0,
            consecutive_revocations: 0,
            pending_snapshot: None,
            uncaught: None,
            core: 0,
        }
    }

    /// The thread's buffers, emptied for reuse; its frames' and
    /// snapshots' value vectors go to `spare`.
    pub(crate) fn into_shell(self, spare: &mut Spare) -> ThreadShell {
        let VmThread {
            mut name, mut frames, mut sections, undo, mut held, pending_snapshot, ..
        } = self;
        name.clear();
        frames.drain(..).for_each(|f| f.recycle(spare));
        let snapshots = sections.drain(..).filter_map(|s| s.snapshot).chain(pending_snapshot);
        snapshots.for_each(|s| s.recycle(spare));
        held.clear();
        ThreadShell { name, frames, sections, undo: undo.into_buffer(), held }
    }

    /// The current (top) frame.
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("thread has no frames")
    }

    /// The current frame, mutably.
    pub fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("thread has no frames")
    }

    /// Innermost active section, if any. The write-barrier fast path is
    /// exactly `!self.in_section()`.
    pub fn in_section(&self) -> bool {
        !self.sections.is_empty()
    }

    /// Index of the *outermost* section on `monitor`, if held.
    pub fn outermost_section_on(&self, monitor: ObjRef) -> Option<usize> {
        self.sections.iter().position(|s| s.monitor == monitor)
    }

    /// Index of the section with acquisition id `acq`, if still active.
    pub fn section_by_acq(&self, acq: u64) -> Option<usize> {
        self.sections.iter().position(|s| s.acq_id == acq)
    }

    /// Mark every active section enclosing log position `pos`
    /// non-revocable; returns how many flipped. Used by the JMM guard.
    pub fn mark_nonrevocable_enclosing(&mut self, pos: usize) -> u64 {
        let mut flipped = 0;
        for s in &mut self.sections {
            if s.mark.position() <= pos && s.revocable {
                s.revocable = false;
                flipped += 1;
            }
        }
        flipped
    }

    /// Mark every active section non-revocable (native call, nested
    /// `wait`); returns how many flipped.
    pub fn mark_all_nonrevocable(&mut self) -> u64 {
        let mut flipped = 0;
        for s in &mut self.sections {
            if s.revocable {
                s.revocable = false;
                flipped += 1;
            }
        }
        flipped
    }

    /// Whether the thread has terminated.
    pub fn is_terminated(&self) -> bool {
        self.state == ThreadState::Terminated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread() -> VmThread {
        let frame = Frame::in_spare(MethodId(0), &[Value::Int(7)], 3, 0, &mut Spare::new());
        VmThread::in_shell(ThreadId(0), Priority::LOW, frame, ThreadShell::default())
    }

    #[test]
    fn the_repeat_count_fits_in_the_entrys_padding() {
        assert_eq!(std::mem::size_of::<UndoEntry>(), 32);
    }

    #[test]
    fn args_become_locals_padded_with_null() {
        let t = thread();
        assert_eq!(t.frame().locals, vec![Value::Int(7), Value::Null, Value::Null]);
        assert_eq!(t.frame().pc, 0);
    }

    #[test]
    fn section_lookup_by_monitor_finds_outermost() {
        let mut t = thread();
        let m = ObjRef(5);
        for acq in 0..3u64 {
            t.sections.push(Section {
                monitor: m,
                acq_id: acq,
                mark: t.undo.mark(),
                frame_depth: 0,
                snapshot: None,
                revocable: true,
                region: None,
            });
        }
        assert_eq!(t.outermost_section_on(m), Some(0));
        assert_eq!(t.section_by_acq(2), Some(2));
        assert_eq!(t.outermost_section_on(ObjRef(9)), None);
    }

    #[test]
    fn nonrevocable_marking_respects_positions() {
        let mut t = thread();
        t.undo.push(UndoEntry::new(Location::Static(0), Value::Null));
        let outer_mark = revmon_core::undo::UndoLog::<UndoEntry>::new().mark(); // pos 0
        t.sections.push(Section {
            monitor: ObjRef(1),
            acq_id: 1,
            mark: outer_mark,
            frame_depth: 0,
            snapshot: None,
            revocable: true,
            region: None,
        });
        t.undo.push(UndoEntry::new(Location::Static(1), Value::Null));
        let inner_mark = t.undo.mark(); // pos 2
        t.sections.push(Section {
            monitor: ObjRef(2),
            acq_id: 2,
            mark: inner_mark,
            frame_depth: 0,
            snapshot: None,
            revocable: true,
            region: None,
        });
        // A write at log position 1 is enclosed only by the outer section.
        let flipped = t.mark_nonrevocable_enclosing(1);
        assert_eq!(flipped, 1);
        assert!(!t.sections[0].revocable);
        assert!(t.sections[1].revocable);
    }

    #[test]
    fn mark_all_nonrevocable_counts_only_flips() {
        let mut t = thread();
        for acq in 0..2 {
            t.sections.push(Section {
                monitor: ObjRef(acq as u32),
                acq_id: acq,
                mark: t.undo.mark(),
                frame_depth: 0,
                snapshot: None,
                revocable: true,
                region: None,
            });
        }
        assert_eq!(t.mark_all_nonrevocable(), 2);
        assert_eq!(t.mark_all_nonrevocable(), 0);
    }

    #[test]
    fn can_revoke_requires_snapshot_and_flag() {
        let mut s = Section {
            monitor: ObjRef(0),
            acq_id: 0,
            mark: UndoLog::<UndoEntry>::new().mark(),
            frame_depth: 0,
            snapshot: None,
            revocable: true,
            region: None,
        };
        assert!(!s.can_revoke());
        s.snapshot =
            Some(Snapshot { locals: vec![], stack: vec![], resume_pc: 0, after_wait: false });
        assert!(s.can_revoke());
        s.revocable = false;
        assert!(!s.can_revoke());
    }
}
