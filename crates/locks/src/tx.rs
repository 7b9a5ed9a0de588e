//! Transactions: the per-thread runtime context, the per-section
//! context, the allocation-free undo log, and the `Tx` handle passed to
//! `enter` closures.
//!
//! Every shared-data access through a [`Tx`] doubles as a *yield point*
//! (the library analogue of the VM checking `pending_revoke` at
//! compiler-inserted yield points). The hot-path poll is a **single
//! relaxed load** of this thread's cached revocation flag
//! (`ThreadSlot::pending_revoke`); only when a contender or the
//! deadlock breaker has raised it does the slow path scan the section
//! stack for the outermost flagged section and unwind with a rollback
//! signal.
//!
//! Undo logging is likewise allocation-free in steady state: one
//! `revmon_core::UndoLog` per thread (only the owning thread appends or
//! drains it, so it is unsynchronized), whose backing buffer is reused
//! across sections, holding inline typed entries — an `Arc` to the
//! written cell, which stashes displaced old values in its own pooled
//! buffer. `SectionCtx`s themselves are pooled per thread.

use crate::cell::{TCell, VolatileCell};
use crate::signal::RollbackSignal;
use parking_lot::Mutex;
use revmon_core::{LogMark, UndoLog};
use std::cell::{Cell, RefCell};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::Thread;

/// Shared state of one active synchronized-section execution.
///
/// Slim by design: the undo entries live in the per-thread log (this
/// struct only records the log position at entry), so the only shared
/// mutable state is the two revocation atomics. The plain fields are
/// written exclusively while the `Arc` is unique (fresh allocation or
/// pool reuse through `Arc::get_mut`) and read-only once shared.
pub(crate) struct SectionCtx {
    /// Unique per-execution id (the paper's acquisition identity).
    pub id: u64,
    /// Monitor this section synchronizes on.
    pub monitor_id: u64,
    /// Position of this thread's undo log at section entry; everything
    /// above it belongs to this section (and sections nested inside it).
    pub mark: LogMark,
    /// Set by a higher-priority contender (or the deadlock breaker).
    pub revoke: AtomicBool,
    /// Set by `wait`, `write_volatile`, or `irrevocable()`.
    pub non_revocable: AtomicBool,
    /// Set (before the owner's exit CAS) when the section logically
    /// exits. Exiting does **not** take the section-stack lock: the dead
    /// entry lingers on the stack — every scan filters it out — until the
    /// next `begin_section` sweeps the dead suffix under the lock it
    /// takes anyway. Exits are LIFO, so dead entries always form a
    /// suffix.
    pub exited: AtomicBool,
}

impl std::fmt::Debug for SectionCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SectionCtx")
            .field("id", &self.id)
            .field("monitor_id", &self.monitor_id)
            .field("revoke", &self.revoke)
            .field("non_revocable", &self.non_revocable)
            .finish()
    }
}

impl SectionCtx {
    /// Whether this execution can currently be revoked.
    pub fn revocable(&self) -> bool {
        !self.non_revocable.load(Ordering::Acquire)
    }
}

/// One undo-log entry: a handle to the cell whose old value was stashed.
///
/// Cloning the `Arc` is the whole write barrier's bookkeeping — no boxed
/// closure, no allocation. Restoring pops the cell's newest stashed
/// value; since both the log and each cell's stash are stacks filled in
/// program order, draining the log newest-first pops every stash in
/// exactly reverse write order.
pub(crate) type UndoEntry = Arc<dyn UndoSink>;

/// A store that can take back (or retire) its most recently stashed
/// old value. Implemented by the cells.
pub(crate) trait UndoSink: Send + Sync {
    /// Pop the newest stashed old value back into the live value
    /// (rollback, newest-first).
    fn restore_one(&self);
    /// Pop and drop the newest stashed old value (outermost commit).
    fn forget_one(&self);
}

// ---------------------------------------------------------------- threads

/// Per-OS-thread runtime state shared with contenders.
///
/// The slot outlives any single section: contenders reach it through the
/// monitor's lock word (dense id → slot table) to migrate holder state
/// on inflation, and through the monitor/registry to raise the cached
/// revocation flag.
pub(crate) struct ThreadSlot {
    /// Nonzero dense id, packed into thin-lock words as the owner field.
    pub dense: u32,
    /// Park/unpark handle of the thread.
    pub handle: Thread,
    /// Observability id (same numbering as `obs::obs_tid`).
    pub obs: u64,
    /// Cached revocation flag: raised whenever *some* section of this
    /// thread gets flagged, so the hot-path yield point is one relaxed
    /// load. Cleared by the slow poll before it scans the stack.
    pub pending_revoke: AtomicBool,
    /// Active sections, outermost first. Locked by the owning thread at
    /// section *entry* only (exits mark [`SectionCtx::exited`] lock-free
    /// and the next entry sweeps the dead suffix) and by inflating
    /// contenders migrating holder state (rare).
    pub sections: Mutex<Vec<Arc<SectionCtx>>>,
}

/// Dense-id → slot lookup table (weak: a slot dies with its thread).
fn slot_table() -> &'static Mutex<Vec<Weak<ThreadSlot>>> {
    static TABLE: OnceLock<Mutex<Vec<Weak<ThreadSlot>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Look up a live thread slot by its dense id (lock-word owner field).
pub(crate) fn slot_by_dense(dense: u32) -> Option<Arc<ThreadSlot>> {
    slot_table().lock().get(dense as usize - 1).and_then(Weak::upgrade)
}

/// Retained-capacity cap for the per-thread `SectionCtx` pool.
const CTX_POOL_MAX: usize = 64;

/// Everything the runtime keeps per thread, behind a single
/// `thread_local` so hot-path helpers pay one TLS lookup.
struct ThreadRt {
    /// The shared slot (registered in the global table).
    slot: Arc<ThreadSlot>,
    /// The undo log. Unsynchronized: only this thread appends (write
    /// barrier) or drains (rollback / outermost commit); the backing
    /// buffer is reused across sections.
    undo: RefCell<UndoLog<UndoEntry>>,
    /// Recycled `SectionCtx` allocations.
    pool: RefCell<Vec<Arc<SectionCtx>>>,
    /// Per-thread section-id counter (combined with the dense thread id
    /// into process-unique ids without touching a shared atomic).
    next_local: Cell<u32>,
    /// Live (not-yet-exited) section count. Private to the thread, so
    /// the exit path learns "was that the outermost?" from a plain cell
    /// instead of locking the section stack.
    depth: Cell<usize>,
}

impl ThreadRt {
    fn init() -> Self {
        let mut table = slot_table().lock();
        let slot = Arc::new(ThreadSlot {
            dense: (table.len() + 1) as u32,
            handle: std::thread::current(),
            obs: crate::obs::obs_tid(),
            pending_revoke: AtomicBool::new(false),
            sections: Mutex::new(Vec::new()),
        });
        table.push(Arc::downgrade(&slot));
        drop(table);
        ThreadRt {
            slot,
            undo: RefCell::new(UndoLog::new()),
            pool: RefCell::new(Vec::new()),
            next_local: Cell::new(0),
            depth: Cell::new(0),
        }
    }
}

thread_local! {
    static RT: ThreadRt = ThreadRt::init();
}

/// This thread's slot.
pub(crate) fn my_slot() -> Arc<ThreadSlot> {
    RT.with(|rt| Arc::clone(&rt.slot))
}

/// This thread's dense id without touching the slot's refcount (hot
/// path: the thin-lock CAS only needs the 32-bit id).
#[inline]
pub(crate) fn my_dense() -> u32 {
    RT.with(|rt| rt.slot.dense)
}

// ------------------------------------------------------- section lifecycle

/// Begin a section on `monitor_id`: sweep the dead suffix left by
/// lock-free exits (recycling those contexts), take a pooled context,
/// mark the undo log, and push onto this thread's section stack — all in
/// the one lock hold the push needs anyway. Allocation-free in steady
/// state.
pub(crate) fn begin_section(monitor_id: u64) -> Arc<SectionCtx> {
    RT.with(|rt| {
        let local = rt.next_local.get().wrapping_add(1);
        rt.next_local.set(local);
        let id = ((rt.slot.dense as u64) << 32) | local as u64;
        let mark = rt.undo.borrow().mark();
        let mut pool = rt.pool.borrow_mut();
        let mut stack = rt.slot.sections.lock();
        while stack.last().is_some_and(|c| c.exited.load(Ordering::Acquire)) {
            let mut dead = stack.pop().expect("checked by last()");
            // Pool only while unique: a stale flagger (e.g. the deadlock
            // breaker racing a release) may still hold this incarnation —
            // dropping it is cheaper than reasoning about a flag landing
            // on the wrong section.
            if Arc::get_mut(&mut dead).is_some() && pool.len() < CTX_POOL_MAX {
                pool.push(dead);
            }
        }
        let recycled = pool.pop().map(|mut arc| {
            let c = Arc::get_mut(&mut arc).expect("pooled contexts are unique");
            c.id = id;
            c.monitor_id = monitor_id;
            c.mark = mark;
            *c.revoke.get_mut() = false;
            *c.non_revocable.get_mut() = false;
            *c.exited.get_mut() = false;
            arc
        });
        let ctx = recycled.unwrap_or_else(|| {
            Arc::new(SectionCtx {
                id,
                monitor_id,
                mark,
                revoke: AtomicBool::new(false),
                non_revocable: AtomicBool::new(false),
                exited: AtomicBool::new(false),
            })
        });
        stack.push(Arc::clone(&ctx));
        rt.depth.set(rt.depth.get() + 1);
        ctx
    })
}

/// Exit the innermost section without touching the section-stack lock:
/// one `Release` store (ordered before the owner's exit CAS, so an
/// inflater that observes the post-exit word also observes the flag) and
/// a private depth decrement. Used by the rollback path and by
/// fast-path CAS losers (`abandon`); the commit path goes through
/// [`commit_top_section`].
#[inline]
pub(crate) fn exit_section(ctx: &SectionCtx) {
    ctx.exited.store(true, Ordering::Release);
    RT.with(|rt| rt.depth.set(rt.depth.get().saturating_sub(1)));
}

/// Abandon a just-begun section whose fast-path CAS lost its race. No
/// undo entries exist yet.
pub(crate) fn abandon_section(ctx: &SectionCtx) {
    exit_section(ctx);
}

/// Commit the innermost section: mark it exited and — when it was this
/// thread's outermost — retire its undo entries (drop each cell's
/// stashed value, newest first). Nested commits leave the entries in the
/// log: updates stay revocable until the *outermost* exit, exactly as
/// the paper keeps the whole log until the outermost `monitorexit`.
/// Returns whether this was the outermost section.
#[inline]
pub(crate) fn commit_top_section(ctx: &SectionCtx) -> bool {
    ctx.exited.store(true, Ordering::Release);
    RT.with(|rt| {
        let depth = rt.depth.get().saturating_sub(1);
        rt.depth.set(depth);
        let outermost = depth == 0;
        if outermost {
            // Reverse drain (not `commit_to`): each entry must release
            // its cell's stashed old value, and newest-first keeps the
            // stash pops aligned with the log entries.
            rt.undo.borrow_mut().rollback_to(ctx.mark, |e| e.forget_one());
        }
        outermost
    })
}

/// Roll back the undo entries made since `ctx` was entered (its own and
/// those of sections nested inside it), newest first. Returns how many
/// entries were restored.
pub(crate) fn rollback_section(ctx: &SectionCtx) -> usize {
    // Slow-path phase timer: the undo-log walk is the data-restoration
    // cost the paper's §3.1.2 step 1 pays on every revocation.
    let prof = revmon_obs::prof::timers();
    let t0 = prof.start(revmon_obs::Phase::UndoWalk);
    let n = RT.with(|rt| {
        let mut log = rt.undo.borrow_mut();
        let n = log.len().saturating_sub(ctx.mark.position());
        log.rollback_to(ctx.mark, |e| e.restore_one());
        n
    });
    prof.finish(revmon_obs::Phase::UndoWalk, t0);
    n
}

/// Append one write-barrier entry to this thread's undo log.
#[inline]
pub(crate) fn log_write(entry: UndoEntry) {
    RT.with(|rt| rt.undo.borrow_mut().push(entry));
}

// ------------------------------------------------------------ yield points

/// Poll revocation flags; unwind with a rollback signal when flagged.
/// This is the library's yield point, called from every `Tx` data access
/// and exposed as [`Tx::checkpoint`] for long compute stretches.
///
/// Fast path: one relaxed load of the thread's cached flag and a branch.
/// Contenders raise the per-section flag *before* the cached flag (both
/// with `Release`), so the slow path's scan cannot miss the section that
/// caused the wake-up.
#[inline]
pub(crate) fn poll_revocation() {
    if RT.with(|rt| rt.slot.pending_revoke.load(Ordering::Relaxed)) {
        poll_revocation_slow();
    }
}

/// Uses `resume_unwind` rather than `panic_any`: the signal is control
/// flow (always caught by an `enter` frame), so the process-global panic
/// hook must not fire for it.
#[cold]
fn poll_revocation_slow() {
    RT.with(|rt| rt.slot.pending_revoke.swap(false, Ordering::AcqRel));
    if let Some(target) = outermost_flagged() {
        resume_unwind(Box::new(RollbackSignal { target }));
    }
    // Spurious or pinned (non-revocable): keep running. If a new flag
    // lands after our swap, the contender's store re-raises the cached
    // flag, so the next poll takes the slow path again.
}

/// The outermost *flagged and revocable* section, if any — the rollback
/// target a yield point must unwind to. Slow path (park wake-ups, slow
/// polls).
pub(crate) fn outermost_flagged() -> Option<u64> {
    RT.with(|rt| {
        rt.slot
            .sections
            .lock()
            .iter()
            .find(|c| {
                !c.exited.load(Ordering::Acquire)
                    && c.revoke.load(Ordering::Acquire)
                    && c.revocable()
            })
            .map(|c| c.id)
    })
}

/// Mark every enclosing section non-revocable (native-effect /
/// volatile-write / wait rules of §2.2). Returns how many flipped.
pub(crate) fn mark_all_nonrevocable() -> u64 {
    RT.with(|rt| {
        let mut flipped = 0;
        for c in rt.slot.sections.lock().iter() {
            if !c.exited.load(Ordering::Acquire) && !c.non_revocable.swap(true, Ordering::AcqRel) {
                flipped += 1;
            }
        }
        flipped
    })
}

// -------------------------------------------------------------------- Tx

/// The transaction handle passed to `enter` closures.
///
/// Carries no data itself — it witnesses that the current thread holds
/// the monitor, and routes all shared accesses through the write-barrier
/// (undo logging) and yield-point (revocation polling) machinery.
pub struct Tx<'m> {
    /// Borrowed, not cloned: the `enter` frame owns the `Arc`, and a
    /// refcount bump per monitor entry is measurable on the fast path.
    pub(crate) ctx: &'m Arc<SectionCtx>,
    /// `Copy` view of the monitor this section holds (standalone or
    /// arena slot — the protocol is identical).
    pub(crate) mon: crate::monitor::MonRef<'m>,
    /// Writes logged through this handle during one attempt of the
    /// section; flushed into the monitor's `log_entries` counter when
    /// the attempt ends, keeping the shared stats atomic off the write
    /// hot path.
    pub(crate) logged: Cell<u64>,
    /// Whether writes go through the undo barrier. `false` under
    /// policies that never roll a section back
    /// (`InversionPolicy::needs_logging() == false` — blocking,
    /// inheritance, ceiling, **delegation**): the monitor pins such
    /// sections non-revocable at creation, so skipping the stash+log is
    /// sound and the write barrier disappears entirely.
    pub(crate) logging: bool,
}

impl Tx<'_> {
    /// Read a cell. A yield point.
    pub fn read<T: Clone + Send + 'static>(&self, cell: &TCell<T>) -> T {
        poll_revocation();
        cell.get()
    }

    /// Write a cell, logging the old value for rollback. A yield point.
    pub fn write<T: Clone + Send + 'static>(&self, cell: &TCell<T>, v: T) {
        poll_revocation();
        self.write_logged(cell, v);
    }

    /// The write barrier without the yield point (shared by
    /// `write`/`update`): stash the old value in the cell, log the cell,
    /// count the entry locally. Zero heap allocations in steady state.
    fn write_logged<T: Clone + Send + 'static>(&self, cell: &TCell<T>, v: T) {
        if !self.logging {
            // Non-rollback policy: plain store, no stash, no log entry
            // (the section was pinned non-revocable at creation).
            cell.set(v);
            return;
        }
        cell.stash_and_set(v);
        log_write(cell.undo_entry());
        self.logged.set(self.logged.get() + 1);
    }

    /// Update a cell in place (read-modify-write). A yield point — one
    /// poll per update: the previous `read`+`write` pair polled twice,
    /// which bought nothing (a flag raised between the two is caught at
    /// the next access or checkpoint anyway).
    pub fn update<T: Clone + Send + 'static>(&self, cell: &TCell<T>, f: impl FnOnce(T) -> T) {
        poll_revocation();
        let v = cell.get();
        self.write_logged(cell, f(v));
    }

    /// Read a volatile cell (always allowed, lock-free). A yield point.
    pub fn read_volatile(&self, cell: &VolatileCell) -> i64 {
        poll_revocation();
        cell.load()
    }

    /// Write a volatile cell from inside the section. Publishes the value
    /// immediately to unmonitored readers, so every enclosing section
    /// becomes **non-revocable** (§2.2, Fig. 3) — the write is *not*
    /// undone by a rollback that can no longer happen.
    pub fn write_volatile(&self, cell: &VolatileCell, v: i64) {
        poll_revocation();
        let flipped = mark_all_nonrevocable();
        self.mon.shared.stats.nonrevocable_marks.fetch_add(flipped, Ordering::Relaxed);
        if flipped > 0 {
            crate::obs::emit(self.ctx.monitor_id, revmon_obs::EventKind::NonRevocable);
        }
        cell.value.store(v, Ordering::SeqCst);
    }

    /// Explicit yield point for long monitor-protected compute stretches
    /// with no data accesses (the analogue of loop back-edge yield
    /// points).
    pub fn checkpoint(&self) {
        poll_revocation();
    }

    /// Declare an irrevocable effect (the analogue of a native call):
    /// every enclosing section becomes non-revocable, after which the
    /// closure can safely perform I/O or other non-undoable work.
    pub fn irrevocable(&self) {
        let flipped = mark_all_nonrevocable();
        self.mon.shared.stats.nonrevocable_marks.fetch_add(flipped, Ordering::Relaxed);
        if flipped > 0 {
            crate::obs::emit(self.ctx.monitor_id, revmon_obs::EventKind::NonRevocable);
        }
    }

    /// `Object.wait()`: release the monitor and park until notified.
    ///
    /// Conservative revocability rule: the section (and its enclosing
    /// ones) become non-revocable — a superset of the paper's rule, which
    /// additionally permits post-`wait` restart points for non-nested
    /// waits (implemented in the VM; kept simple here).
    pub fn wait(&self) {
        self.mon.wait_current(self.ctx);
    }

    /// `Object.notify()`.
    pub fn notify_one(&self) {
        self.mon.notify(false);
    }

    /// `Object.notifyAll()`.
    pub fn notify_all(&self) {
        self.mon.notify(true);
    }

    /// Whether this execution is still revocable (diagnostics).
    pub fn is_revocable(&self) -> bool {
        self.ctx.revocable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain any state a test left behind so tests sharing a thread
    /// start clean.
    fn reset_thread() {
        RT.with(|rt| {
            rt.slot.sections.lock().clear();
            rt.depth.set(0);
            rt.undo.borrow_mut().clear();
        });
    }

    fn log_len() -> usize {
        RT.with(|rt| rt.undo.borrow().len())
    }

    #[test]
    fn rollback_restores_newest_first_and_empties_the_log() {
        reset_thread();
        let a = TCell::new(1i64);
        let b = TCell::new(2i64);
        let ctx = begin_section(1);
        a.stash_and_set(10);
        log_write(a.undo_entry());
        b.stash_and_set(20);
        log_write(b.undo_entry());
        a.stash_and_set(100);
        log_write(a.undo_entry());
        assert_eq!(rollback_section(&ctx), 3);
        assert_eq!(a.read_unsynchronized(), 1);
        assert_eq!(b.read_unsynchronized(), 2);
        assert_eq!(rollback_section(&ctx), 0, "log emptied");
        abandon_section(&ctx);
    }

    #[test]
    fn nested_commit_keeps_entries_until_outermost_exit() {
        reset_thread();
        let c = TCell::new(0i64);
        let outer = begin_section(1);
        c.stash_and_set(1);
        log_write(c.undo_entry());
        let inner = begin_section(2);
        c.stash_and_set(2);
        log_write(c.undo_entry());
        // Inner commit: not outermost, entries stay revocable.
        assert!(!commit_top_section(&inner));
        assert_eq!(log_len(), 2);
        // Outer rollback undoes the inner section's committed write too.
        assert_eq!(rollback_section(&outer), 2);
        assert_eq!(c.read_unsynchronized(), 0);
        abandon_section(&outer);
    }

    #[test]
    fn outermost_commit_retires_entries() {
        reset_thread();
        let c = TCell::new(0i64);
        let ctx = begin_section(1);
        c.stash_and_set(5);
        log_write(c.undo_entry());
        assert!(commit_top_section(&ctx));
        assert_eq!(log_len(), 0);
        assert_eq!(c.read_unsynchronized(), 5, "committed value stands");
        // The stash was retired: a later rollback has nothing to restore.
        assert_eq!(c.stash_len(), 0);
    }

    #[test]
    fn section_ids_are_unique_across_pool_reuse() {
        reset_thread();
        let a = begin_section(1);
        let a_id = a.id;
        abandon_section(&a);
        drop(a);
        let b = begin_section(1);
        assert_ne!(a_id, b.id, "recycled context must get a fresh id");
        abandon_section(&b);
    }

    #[test]
    fn pool_reuse_clears_stale_flags() {
        reset_thread();
        let a = begin_section(1);
        a.revoke.store(true, Ordering::Release);
        a.non_revocable.store(true, Ordering::Release);
        abandon_section(&a);
        drop(a);
        let b = begin_section(1);
        assert!(!b.revoke.load(Ordering::Acquire));
        assert!(b.revocable());
        abandon_section(&b);
    }

    #[test]
    fn flagged_nonrevocable_sections_are_skipped() {
        reset_thread();
        let ctx = begin_section(1);
        ctx.revoke.store(true, Ordering::Release);
        ctx.non_revocable.store(true, Ordering::Release);
        assert_eq!(outermost_flagged(), None);
        abandon_section(&ctx);
    }

    #[test]
    fn outermost_flagged_prefers_outer() {
        reset_thread();
        let outer = begin_section(1);
        let inner = begin_section(2);
        outer.revoke.store(true, Ordering::Release);
        inner.revoke.store(true, Ordering::Release);
        assert_eq!(outermost_flagged(), Some(outer.id));
        exit_section(&inner);
        exit_section(&outer);
    }

    #[test]
    fn cached_flag_gates_the_slow_poll() {
        reset_thread();
        let ctx = begin_section(1);
        // Flag the section but not the cached thread flag: the fast poll
        // must not unwind (contenders always raise both; this checks the
        // fast path really is gated on the cached flag alone).
        ctx.revoke.store(true, Ordering::Release);
        poll_revocation();
        // Now raise the cached flag as a contender would.
        my_slot().pending_revoke.store(true, Ordering::Release);
        let unwound = std::panic::catch_unwind(poll_revocation).is_err();
        assert!(unwound, "slow poll must unwind to the flagged section");
        assert!(
            !my_slot().pending_revoke.load(Ordering::Relaxed),
            "slow poll consumes the cached flag"
        );
        exit_section(&ctx);
    }
}
