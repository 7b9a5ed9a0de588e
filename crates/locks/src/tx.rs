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
//! signal. The `Tx` reaches the flag, the stamp and the undo log through
//! the `&ThreadRt` it was built with — the section body runs inside the
//! `enter` frame's one `thread_local!` access — so a data access looks
//! nothing up; and since that reference is not `Send`, neither is `Tx`.
//!
//! Undo logging is likewise allocation-free in steady state: one
//! `CellLog` per thread (only the owning thread appends or walks it, so
//! it is unsynchronized), whose backing buffer is reused across
//! sections, holding inline typed entries — an `Arc` to the written
//! cell, which keeps the displaced old value in its own pooled buffer.
//! `SectionCtx`s themselves are pooled per thread.
//!
//! A cell is logged **once per section** (see [`crate::cell`]): the
//! thread's current `Stamp` — outermost and innermost live section —
//! goes with every store, and the cell skips the save when its newest
//! saved entry already carries it. So the log holds one entry per cell
//! per section that wrote it, a rollback walks distinct cells rather
//! than stores, and the outermost commit visits no cell: what it leaves
//! behind in the cells is recognised as stale by stamp at the next
//! first write. The paper (§3.1.2) logs every store; this is
//! `revmon-locks`' divergence (`revmon-vm` also logs a word once per
//! section layer, but counts and charges per store).
//!
//! The log also **remembers its last write set**. Its *live length* —
//! the entries of the open transaction — is kept apart from what it
//! stores: the outermost commit and a rollback set the live length back
//! and drop no handle, and a first write whose position already stores a
//! handle to *this cell* (data-pointer compare) advances the live length
//! over it. A loop whose sections write the same cells in the same order
//! — and the retry of a revoked section — therefore touches no reference
//! count; the first write that differs drops the stored tail from its
//! position on and pushes a clone. The price is retention: up to
//! `TAIL_MAX` (256) cells stay alive through this thread's log after
//! their transaction committed, until a differing write takes their
//! position or the thread exits. Handles the log gives up are dropped
//! only after its `RefCell` borrow has ended — a cell's value may have a
//! destructor that enters a monitor.

use crate::cell::{Stamp, TCell, VolatileCell};
use crate::signal::RollbackSignal;
use parking_lot::Mutex;
use revmon_core::{LogMark, Priority, UndoLog};
use std::cell::{Cell, RefCell};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
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
    /// Unique per-execution id (the paper's acquisition identity),
    /// nonzero and **never reused within the process**: cells keep it in
    /// the [`Stamp`] of a saved value long after the section is gone, and
    /// a recycled id would make a stale entry read as "already logged by
    /// this section" — the rollback would then skip the cell. Hence a
    /// 64-bit id space handed to threads in blocks ([`ID_BLOCK`]), not a
    /// wrapping per-thread 32-bit counter.
    pub id: u64,
    /// The thread's stamp before this section began — what
    /// [`exit_section`] puts back. [`Stamp::NONE`] marks the outermost
    /// section, the one whose commit retires the log.
    pub enclosing: Stamp,
    /// Monitor this section synchronizes on.
    pub monitor_id: u64,
    /// Priority the section's acquisition deposited (§4) — the effective
    /// one it entered at; the deadlock breaker ranks holders by it.
    pub priority: Priority,
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

/// One undo-log entry: a handle to the cell whose old value was saved.
///
/// Cloning the `Arc` is the most the write barrier's bookkeeping costs —
/// no boxed closure, no allocation — and a [`CellLog`] that already
/// stores this cell at this position does not even clone. Restoring pops
/// the cell's newest saved value; since both the log and each cell's
/// saved entries are stacks filled in program order, walking the log
/// newest-first pops every cell in exactly reverse first-write order.
pub(crate) type UndoEntry = Arc<dyn UndoSink>;

/// A store that can take back its most recently saved old value.
/// Implemented by the cells.
pub(crate) trait UndoSink: Send + Sync {
    /// Pop the newest saved old value back into the live value
    /// (rollback, newest-first) — if transaction `tx` saved it; a no-op
    /// otherwise (nothing saved, or another transaction's entry: the
    /// cell is guarded by two monitors, which is misuse but must stay
    /// memory-safe and panic-free).
    fn restore_one(&self, tx: u64);
}

// ------------------------------------------------------------------- log

/// Most entries a thread's log keeps stored once no transaction is open:
/// the longest write set it can recognise again, and so the most cells
/// it can keep alive after every other handle to them is gone.
const TAIL_MAX: usize = 256;

/// The per-thread undo log: the open transaction's first writes in
/// program order (`stored[..live]`), then the *remembered tail* — the
/// handles earlier transactions left behind, which a first write to the
/// same cell at the same position takes over without a clone.
///
/// The live length is an `UndoLog<()>` because that is what makes and
/// compares the [`LogMark`]s sections carry (marks have no other
/// constructor; the VM's fingerprint gets its origin mark the same
/// way) — with unit entries it is a counter. It never exceeds
/// `stored.len()`.
#[derive(Default)]
pub(crate) struct CellLog {
    stored: Vec<UndoEntry>,
    live: UndoLog<()>,
    /// Handles taken out of `stored` and not dropped yet: the operation
    /// that displaced them says so, and [`ThreadRt::log_op`] drops them
    /// once its borrow of the log has ended. Keeps its capacity, like
    /// `stored`.
    displaced: Vec<UndoEntry>,
}

impl CellLog {
    /// Take a mark at the live length (at section entry).
    fn mark(&self) -> LogMark {
        self.live.mark()
    }

    /// Log a first write to `cell`: advance over the stored entry at the
    /// live position when it is this very cell, otherwise replace the
    /// stored tail from there with a fresh handle. Returns whether that
    /// displaced handles the caller now has to drop.
    #[inline]
    fn push<T: Send + 'static>(&mut self, cell: &TCell<T>) -> bool {
        let at = self.live.len();
        self.live.push(());
        if self.stored.get(at).is_some_and(|e| cell.is_entry(e)) {
            return false;
        }
        let displaced = self.displace_from(at);
        self.stored.push(cell.undo_entry());
        displaced
    }

    /// Move the stored handles from position `at` on (none of them
    /// live) to `displaced`; whether there is now anything to drop.
    fn displace_from(&mut self, at: usize) -> bool {
        self.displaced.extend(self.stored.drain(at..));
        !self.displaced.is_empty()
    }

    /// Retire the entries since `mark` without restoring (outermost
    /// commit): they become the remembered tail, trimmed to
    /// [`TAIL_MAX`]. Returns whether the trim displaced handles.
    #[inline]
    fn commit_to(&mut self, mark: LogMark) -> bool {
        self.live.commit_to(mark);
        let keep = TAIL_MAX.max(self.live.len());
        self.stored.len() > keep && self.displace_from(keep)
    }

    /// Roll back to `mark`: restore the live entries since it **newest
    /// first**, by reference — they stay stored for the retry to take
    /// over. Returns how many there were.
    fn rollback_to(&mut self, mark: LogMark, tx: u64) -> usize {
        let live = self.live.len();
        let cut = mark.position().min(live);
        for e in self.stored[cut..live].iter().rev() {
            e.restore_one(tx);
        }
        self.live.commit_to(mark);
        live - cut
    }
}

// ---------------------------------------------------------------- threads

/// Per-OS-thread runtime state shared with contenders.
///
/// The slot outlives any single section: contenders reach it through the
/// monitor's lock word (dense id → slot table) on inflation and through
/// the fat record's owner afterwards, the deadlock breaker through the
/// slot table — to find the holder's section and raise the cached
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
    /// and the next entry sweeps the dead suffix), and by contenders and
    /// the deadlock breaker looking up the holder's section (slow path).
    pub sections: Mutex<Vec<Arc<SectionCtx>>>,
    /// Handoff flag: lowered by the thread as it queues or waits on a
    /// monitor, raised by the grant or notify that ends that wait (the
    /// rule is in the `monitor` module docs).
    pub wake: AtomicBool,
    /// Priority level the thread is queued at, 0 while not queued;
    /// written and read under the registry's graph lock.
    pub blocked_at: AtomicU8,
}

impl ThreadSlot {
    /// This thread's outermost live section on `monitor_id`: the one a
    /// revocation of its hold on that monitor targets.
    pub(crate) fn outermost_on(&self, monitor_id: u64) -> Option<Arc<SectionCtx>> {
        let stack = self.sections.lock();
        stack
            .iter()
            .find(|c| c.monitor_id == monitor_id && !c.exited.load(Ordering::Acquire))
            .cloned()
    }

    /// Flag `ctx`, one of this thread's sections, for revocation — the
    /// one place a section's flag is raised — and wake the thread
    /// wherever it is parked so it reaches a yield point promptly.
    /// Returns whether the section flag was newly raised.
    ///
    /// Section flag first, cached thread flag second (both `Release`):
    /// the thread's slow poll consumes the cached flag and *then* scans
    /// its sections, so this order guarantees the scan sees the flagged
    /// section. The cached flag is raised even when the section flag
    /// already was, in case a slow poll consumed it without unwinding.
    /// A thread that flags itself is left an unpark token; every park
    /// site re-checks its condition in a loop, so that costs one spurious
    /// wake-up.
    pub(crate) fn signal_revoke(&self, ctx: &SectionCtx) -> bool {
        let fresh = !ctx.revoke.swap(true, Ordering::AcqRel);
        self.pending_revoke.store(true, Ordering::Release);
        self.handle.unpark();
        fresh
    }
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
/// `thread_local`: section entry and exit pay one TLS lookup each, and a
/// section's data accesses none (its [`Tx`] holds the reference).
pub(crate) struct ThreadRt {
    /// The shared slot (registered in the global table).
    slot: Arc<ThreadSlot>,
    /// The undo log. Unsynchronized: only this thread appends (write
    /// barrier), walks (rollback) or retires (outermost commit); the
    /// backing buffer is reused across sections.
    undo: RefCell<CellLog>,
    /// Recycled `SectionCtx` allocations.
    pool: RefCell<Vec<Arc<SectionCtx>>>,
    /// Next section id of this thread's current block, and the block's
    /// end (equal when the thread holds no ids).
    next_id: Cell<u64>,
    id_end: Cell<u64>,
    /// Outermost and innermost live (not-yet-exited) section, the stamp
    /// every logged store carries; [`Stamp::NONE`] outside any section.
    /// Private to the thread, so the write barrier and the exit path
    /// ("was that the outermost?") read a plain cell instead of locking
    /// the section stack. Not taken from the `Tx` handle: an inner
    /// closure may capture and write through an *outer* section's `Tx`,
    /// and that store must still be undone by a rollback to the inner
    /// mark.
    stamp: Cell<Stamp>,
}

/// Section ids a thread takes from [`NEXT_ID_BLOCK`] at a time: the
/// shared atomic is touched once per 2²⁰ sections, and 2⁶⁴ ids outlast
/// any process.
const ID_BLOCK: u64 = 1 << 20;

/// First id of the next unclaimed block. Starts at 1: id 0 is
/// [`Stamp::NONE`].
static NEXT_ID_BLOCK: AtomicU64 = AtomicU64::new(1);

impl ThreadRt {
    fn init() -> Self {
        let mut table = slot_table().lock();
        let slot = Arc::new(ThreadSlot {
            dense: (table.len() + 1) as u32,
            handle: std::thread::current(),
            obs: crate::obs::obs_tid(),
            pending_revoke: AtomicBool::new(false),
            sections: Mutex::new(Vec::new()),
            wake: AtomicBool::new(false),
            blocked_at: AtomicU8::new(0),
        });
        table.push(Arc::downgrade(&slot));
        drop(table);
        ThreadRt {
            slot,
            undo: RefCell::default(),
            pool: RefCell::new(Vec::new()),
            next_id: Cell::new(0),
            id_end: Cell::new(0),
            stamp: Cell::new(Stamp::NONE),
        }
    }

    /// A fresh section id (see [`SectionCtx::id`]).
    #[inline]
    fn fresh_id(&self) -> u64 {
        let mut id = self.next_id.get();
        if id == self.id_end.get() {
            // Relaxed: the counter publishes nothing but itself.
            id = NEXT_ID_BLOCK.fetch_add(ID_BLOCK, Ordering::Relaxed);
            self.id_end.set(id + ID_BLOCK);
            // A thread's first section is the first thing that can log:
            // arm the exit hook, from here so that it is younger than `RT`.
            AT_EXIT.with(|_| ());
        }
        self.next_id.set(id + 1);
        id
    }

    /// Poll revocation flags; unwind with a rollback signal when
    /// flagged. This is the library's yield point, run by every `Tx`
    /// data access and exposed as [`Tx::checkpoint`] for long compute
    /// stretches.
    ///
    /// Fast path: one relaxed load of the thread's cached flag and a
    /// branch. Contenders raise the per-section flag *before* the cached
    /// flag (both with `Release`), so the slow path's scan cannot miss
    /// the section that caused the wake-up.
    #[inline]
    fn poll_revocation(&self) {
        if self.slot.pending_revoke.load(Ordering::Relaxed) {
            self.poll_revocation_slow();
        }
    }

    /// Uses `resume_unwind` rather than `panic_any`: the signal is
    /// control flow (always caught by an `enter` frame), so the
    /// process-global panic hook must not fire for it.
    #[cold]
    fn poll_revocation_slow(&self) {
        self.slot.pending_revoke.swap(false, Ordering::AcqRel);
        if let Some(target) = self.outermost_flagged() {
            resume_unwind(Box::new(RollbackSignal { target }));
        }
        // Spurious or pinned (non-revocable): keep running. If a new flag
        // lands after our swap, the contender's store re-raises the cached
        // flag, so the next poll takes the slow path again.
    }

    /// Run `op` on the undo log and, if it says it displaced handles,
    /// drop them — after the borrow `op` ran under has ended.
    #[inline]
    fn log_op(&self, op: impl FnOnce(&mut CellLog) -> bool) {
        let displaced = op(&mut self.undo.borrow_mut());
        if displaced {
            self.drop_displaced();
        }
    }

    /// Drop the handles the log displaced, each outside any borrow of
    /// the log: the last handle to a cell drops the cell's values, and a
    /// destructor among them may enter a monitor on this thread — which
    /// marks and appends to this log. One that unwinds leaves the rest
    /// for the next caller (or thread exit).
    #[cold]
    fn drop_displaced(&self) {
        loop {
            let Some(e) = self.undo.borrow_mut().displaced.pop() else { break };
            drop(e);
        }
    }

    /// Give up every handle the log remembers (thread exit, [`AtExit`]).
    fn release_log(&self) {
        self.log_op(|log| log.displace_from(log.live.len()));
    }

    /// See the free [`outermost_flagged`].
    fn outermost_flagged(&self) -> Option<u64> {
        self.slot
            .sections
            .lock()
            .iter()
            .find(|c| {
                !c.exited.load(Ordering::Acquire)
                    && c.revoke.load(Ordering::Acquire)
                    && c.revocable()
            })
            .map(|c| c.id)
    }
}

thread_local! {
    static RT: ThreadRt = ThreadRt::init();
    static AT_EXIT: AtExit = const { AtExit };
}

/// Releases the handles a thread's log remembers when the thread exits
/// — *before* `RT` is destroyed, so that a value whose destructor enters
/// a monitor finds the runtime state it needs, at thread exit as
/// anywhere else. That order is std's practice, not its promise:
/// thread-local destructors run newest-registered first, and this one
/// registers at its first access, which [`ThreadRt::fresh_id`] makes
/// from inside `RT`. Run the other way round there would be nothing left
/// to do here, `RT`'s own drop would release the handles, and such a
/// destructor would be refused the thread-local by a panic.
struct AtExit;

impl Drop for AtExit {
    fn drop(&mut self) {
        let _ = RT.try_with(ThreadRt::release_log);
    }
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

/// Begin a section on `monitor_id`, entered at `priority`: sweep the dead
/// suffix left by lock-free exits (recycling those contexts), take a
/// pooled context, mark the undo log, and push onto this thread's section
/// stack — all in the one lock hold the push needs anyway.
/// Allocation-free in steady state.
pub(crate) fn begin_section(monitor_id: u64, priority: Priority) -> Arc<SectionCtx> {
    RT.with(|rt| {
        let id = rt.fresh_id();
        let enclosing = rt.stamp.get();
        let tx = if enclosing == Stamp::NONE { id } else { enclosing.tx };
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
            c.enclosing = enclosing;
            c.monitor_id = monitor_id;
            c.priority = priority;
            c.mark = mark;
            *c.revoke.get_mut() = false;
            *c.non_revocable.get_mut() = false;
            *c.exited.get_mut() = false;
            arc
        });
        let ctx = recycled.unwrap_or_else(|| {
            Arc::new(SectionCtx {
                id,
                enclosing,
                monitor_id,
                priority,
                mark,
                revoke: AtomicBool::new(false),
                non_revocable: AtomicBool::new(false),
                exited: AtomicBool::new(false),
            })
        });
        stack.push(Arc::clone(&ctx));
        rt.stamp.set(Stamp { tx, section: id });
        ctx
    })
}

/// Exit the innermost section without touching the section-stack lock:
/// one `Release` store (ordered before the owner's exit CAS, so an
/// inflater that observes the post-exit word also observes the flag) and
/// the thread's stamp set back to the enclosing section's. Used by the
/// rollback path and by fast-path CAS losers (`abandon`); the commit
/// path goes through [`commit_top_section`].
#[inline]
pub(crate) fn exit_section(ctx: &SectionCtx) {
    ctx.exited.store(true, Ordering::Release);
    RT.with(|rt| rt.stamp.set(ctx.enclosing));
}

/// Abandon a just-begun section whose fast-path CAS lost its race. No
/// undo entries exist yet.
pub(crate) fn abandon_section(ctx: &SectionCtx) {
    exit_section(ctx);
}

/// Commit the innermost section: mark it exited and — when it was this
/// thread's outermost — retire its undo entries by setting the log's
/// live length back to the section's mark. No cell is visited and no
/// handle dropped (short of the [`TAIL_MAX`] trim): the saved values
/// stay where they are, stamped with a transaction id no later section
/// will carry, until each cell's next first write drops them, and the
/// handles stay stored for the next transaction to take over. Nested
/// commits leave the entries live: updates stay revocable until the
/// *outermost* exit, exactly as the paper keeps the whole log until the
/// outermost `monitorexit`. Returns whether this was the outermost
/// section.
#[inline]
pub(crate) fn commit_top_section(ctx: &SectionCtx) -> bool {
    ctx.exited.store(true, Ordering::Release);
    RT.with(|rt| {
        rt.stamp.set(ctx.enclosing);
        let outermost = ctx.enclosing == Stamp::NONE;
        if outermost {
            rt.log_op(|log| log.commit_to(ctx.mark));
        }
        outermost
    })
}

/// Roll back the undo entries made since `ctx` was entered (its own and
/// those of sections nested inside it), newest first. Returns how many
/// entries were restored: one per cell per section that wrote it, not
/// one per store. Call before [`exit_section`].
pub(crate) fn rollback_section(ctx: &SectionCtx) -> usize {
    // Slow-path phase timer: the undo-log walk is the data-restoration
    // cost the paper's §3.1.2 step 1 pays on every revocation.
    let prof = revmon_obs::prof::timers();
    let t0 = prof.start(revmon_obs::Phase::UndoWalk);
    let n = RT.with(|rt| {
        let tx = rt.stamp.get().tx;
        rt.undo.borrow_mut().rollback_to(ctx.mark, tx)
    });
    prof.finish(revmon_obs::Phase::UndoWalk, t0);
    n
}

// ------------------------------------------------------------ yield points

/// The outermost *flagged and revocable* section of this thread, if any
/// — the rollback target a yield point must unwind to. Slow path (park
/// wake-ups, slow polls).
pub(crate) fn outermost_flagged() -> Option<u64> {
    RT.with(ThreadRt::outermost_flagged)
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
///
/// A `Tx` stays on the thread that entered the section: it borrows that
/// thread's runtime state, which is what a store must be stamped and
/// logged with for the section's rollback to undo it. So it is not
/// `Send` — a scoped thread cannot be handed `&mut Tx` and write under
/// its own (empty) stamp into its own undo log:
///
/// ```compile_fail,E0277
/// fn assert_send<T: Send>() {}
/// assert_send::<revmon_locks::Tx<'static>>();
/// ```
///
/// (The same line compiles for the data: `assert_send::<TCell<i64>>()`.)
///
/// ```
/// fn assert_send<T: Send>() {}
/// assert_send::<revmon_locks::TCell<i64>>();
/// ```
pub struct Tx<'m> {
    /// The running thread's runtime state — cached revocation flag,
    /// stamp, undo log — so no data access pays a `thread_local!`
    /// lookup. Holds `Cell`s, hence `Tx: !Send`.
    rt: &'m ThreadRt,
    /// `rt.slot.dense`, read once: every cell access hands it to the
    /// cell's re-entrance check.
    dense: u32,
    /// Borrowed, not cloned: the `enter` frame owns the `Arc`, and a
    /// refcount bump per monitor entry is measurable on the fast path.
    pub(crate) ctx: &'m Arc<SectionCtx>,
    /// `Copy` view of the monitor this section holds (standalone or
    /// arena slot — the protocol is identical).
    pub(crate) mon: crate::monitor::MonRef<'m>,
    /// First writes logged through this handle during one attempt of
    /// the section (repeat writes to a cell log nothing); handed back by
    /// [`with_tx`] for the monitor's `log_entries` counter when the
    /// attempt ends, keeping the shared stats atomic off the write hot
    /// path.
    logged: Cell<u64>,
    /// Whether writes go through the undo barrier. `false` under
    /// policies that never roll a section back
    /// (`InversionPolicy::needs_logging() == false` — blocking,
    /// inheritance, ceiling): the monitor pins such sections
    /// non-revocable at creation, so skipping the save+log is sound and
    /// the write barrier disappears entirely.
    logging: bool,
}

/// Run `body` with the [`Tx`] of one attempt of section `ctx` on `mon` —
/// the only place a `Tx` is built, inside the one `thread_local!` access
/// the attempt's data accesses share. Returns `body`'s result and the
/// number of first writes it logged.
#[inline]
pub(crate) fn with_tx<R>(
    ctx: &Arc<SectionCtx>,
    mon: crate::monitor::MonRef<'_>,
    body: impl FnOnce(&mut Tx<'_>) -> R,
) -> (R, u64) {
    RT.with(|rt| {
        let mut tx = Tx {
            rt,
            dense: rt.slot.dense,
            ctx,
            mon,
            logged: Cell::new(0),
            logging: mon.policy.needs_logging(),
        };
        let r = body(&mut tx);
        (r, tx.logged.get())
    })
}

impl Tx<'_> {
    /// Read a cell. A yield point.
    pub fn read<T: Clone + Send + 'static>(&self, cell: &TCell<T>) -> T {
        self.rt.poll_revocation();
        cell.get(self.dense)
    }

    /// Write a cell, logging the old value for rollback if this is the
    /// section's first write to it. A yield point.
    pub fn write<T: Clone + Send + 'static>(&self, cell: &TCell<T>, v: T) {
        self.rt.poll_revocation();
        if cell.store(self.dense, v, self.stamp()) {
            self.log(cell);
        }
    }

    /// Update a cell in place (read-modify-write): `f` gets the current
    /// value and returns the new one, which is stored as by
    /// [`write`](Self::write). A yield point — one poll per update.
    ///
    /// **`f` runs while the cell's own lock is held** (that is what makes
    /// an update one lock hold instead of a read's plus a write's). So:
    ///
    /// * `f` must not touch the cell it is updating —
    ///   `tx.update(&c, |v| v + tx.read(&c))` panics with "a TCell was
    ///   accessed from inside its own update closure" (a reported error,
    ///   not a hang; the panic leaves the section like any user panic).
    ///   Use the argument: `|v| v + v`.
    /// * Everything else is allowed: other cells, yield points, nested
    ///   sections on this or other monitors, blocking. A revocation that
    ///   lands while `f` runs unwinds out of it as out of any other
    ///   code.
    /// * If `f` unwinds — a panic, or such a revocation — the cell is
    ///   exactly as it was: nothing is stored, saved or logged.
    /// * [`TCell::read_unsynchronized`] from another thread waits for
    ///   `f`.
    /// * A cell guarded by *two* monitors is misuse already (see
    ///   [`crate::cell`]); with closures under the lock it can now
    ///   deadlock — two updates whose closures read each other's cell —
    ///   where it used to race.
    pub fn update<T: Clone + Send + 'static>(&self, cell: &TCell<T>, f: impl FnOnce(T) -> T) {
        self.rt.poll_revocation();
        if cell.update(self.dense, f, self.stamp()) {
            self.log(cell);
        }
    }

    /// The stamp a store carries: this thread's current one (not this
    /// handle's section's — see `ThreadRt::stamp`), or `None` when the
    /// policy never rolls back and the store is barrier-free.
    #[inline]
    fn stamp(&self) -> Option<Stamp> {
        self.logging.then(|| self.rt.stamp.get())
    }

    /// The write barrier's log half, after a store that was its
    /// section's first to `cell` (the cell saved the old value): append
    /// the cell to the undo log and count the entry. Zero heap
    /// allocations in steady state, and no reference count touched when
    /// the log remembers the cell at this position.
    #[inline]
    fn log<T: Send + 'static>(&self, cell: &TCell<T>) {
        self.logged.set(self.logged.get() + 1);
        self.rt.log_op(|log| log.push(cell));
    }

    /// Read a volatile cell (always allowed, lock-free). A yield point.
    pub fn read_volatile(&self, cell: &VolatileCell) -> i64 {
        self.rt.poll_revocation();
        cell.load()
    }

    /// Write a volatile cell from inside the section. Publishes the value
    /// immediately to unmonitored readers, so every enclosing section
    /// becomes **non-revocable** (§2.2, Fig. 3) — the write is *not*
    /// undone by a rollback that can no longer happen.
    pub fn write_volatile(&self, cell: &VolatileCell, v: i64) {
        self.rt.poll_revocation();
        self.mon.pin_nonrevocable();
        cell.value.store(v, Ordering::SeqCst);
    }

    /// Explicit yield point for long monitor-protected compute stretches
    /// with no data accesses (the analogue of loop back-edge yield
    /// points).
    pub fn checkpoint(&self) {
        self.rt.poll_revocation();
    }

    /// Declare an irrevocable effect (the analogue of a native call):
    /// every enclosing section becomes non-revocable, after which the
    /// closure can safely perform I/O or other non-undoable work.
    pub fn irrevocable(&self) {
        self.mon.pin_nonrevocable();
    }

    /// `Object.wait()`: release the monitor and park until notified.
    ///
    /// Conservative revocability rule: the section (and its enclosing
    /// ones) become non-revocable — a superset of the paper's rule, which
    /// additionally permits post-`wait` restart points for non-nested
    /// waits (implemented in the VM; kept simple here).
    pub fn wait(&self) {
        self.mon.wait_current();
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
            rt.stamp.set(Stamp::NONE);
            rt.undo.take();
        });
    }

    /// Every test here enters its sections at one priority.
    fn begin_section(monitor_id: u64) -> Arc<SectionCtx> {
        super::begin_section(monitor_id, Priority::NORM)
    }

    fn log_len() -> usize {
        RT.with(|rt| rt.undo.borrow().live.len())
    }

    /// `Tx::write`'s barrier without a monitor to get a `Tx` from: store
    /// under the thread's current stamp, log a first write. Returns
    /// whether it logged.
    fn logged_store(cell: &TCell<i64>, v: i64) -> bool {
        RT.with(|rt| {
            let first = cell.store(rt.slot.dense, v, Some(rt.stamp.get()));
            if first {
                rt.log_op(|log| log.push(cell));
            }
            first
        })
    }

    fn poll_revocation() {
        RT.with(ThreadRt::poll_revocation);
    }

    #[test]
    fn rollback_restores_newest_first_and_empties_the_log() {
        reset_thread();
        let a = TCell::new(1i64);
        let b = TCell::new(2i64);
        let ctx = begin_section(1);
        assert!(logged_store(&a, 10));
        assert!(logged_store(&b, 20));
        assert!(!logged_store(&a, 100), "a repeat write logs nothing");
        assert_eq!(rollback_section(&ctx), 2, "one entry per cell, not per store");
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
        logged_store(&c, 1);
        let inner = begin_section(2);
        assert!(logged_store(&c, 2), "the inner section logs the cell again");
        // Inner commit: not outermost, entries stay revocable.
        assert!(!commit_top_section(&inner));
        assert_eq!(log_len(), 2);
        // Outer rollback undoes the inner section's committed write too.
        assert_eq!(rollback_section(&outer), 2);
        assert_eq!(c.read_unsynchronized(), 0);
        abandon_section(&outer);
    }

    #[test]
    fn inner_rollback_restores_the_value_at_inner_entry() {
        reset_thread();
        let c = TCell::new(0i64);
        let outer = begin_section(1);
        logged_store(&c, 1);
        let inner = begin_section(2);
        logged_store(&c, 2);
        logged_store(&c, 3);
        assert_eq!(rollback_section(&inner), 1);
        exit_section(&inner);
        assert_eq!(c.read_unsynchronized(), 1, "the outer section's write survives");
        assert!(!logged_store(&c, 4), "and the outer section's entry is still the newest");
        assert_eq!(rollback_section(&outer), 1);
        assert_eq!(c.read_unsynchronized(), 0);
        abandon_section(&outer);
    }

    #[test]
    fn outermost_commit_retires_entries() {
        reset_thread();
        let c = TCell::new(0i64);
        let ctx = begin_section(1);
        logged_store(&c, 5);
        assert!(commit_top_section(&ctx));
        assert_eq!(log_len(), 0);
        assert_eq!(c.read_unsynchronized(), 5, "committed value stands");
        // The saved 0 is still in the cell, stale; the next section's
        // first write replaces it and a rollback restores 5, not 0.
        assert_eq!(c.saved_len(), 1);
        let next = begin_section(1);
        assert!(logged_store(&c, 6));
        assert_eq!(c.saved_len(), 1);
        assert_eq!(rollback_section(&next), 1);
        assert_eq!(c.read_unsynchronized(), 5);
        abandon_section(&next);
    }

    #[test]
    fn the_log_takes_over_the_handles_it_remembers_without_cloning() {
        reset_thread();
        let (a, b, c) = (TCell::new(1i64), TCell::new(2i64), TCell::new(3i64));
        let handles = || (a.handles(), b.handles(), c.handles());
        let section = |first: &TCell<i64>, second: &TCell<i64>| {
            let ctx = begin_section(1);
            assert!(logged_store(first, 10) && logged_store(second, 20));
            ctx
        };
        assert!(commit_top_section(&section(&a, &b)));
        assert_eq!((log_len(), handles()), (0, (2, 2, 1)), "committed, and still stored");
        // The same cells in the same order: live again, no handle made.
        let again = section(&a, &b);
        assert_eq!((log_len(), handles()), (2, (2, 2, 1)));
        // Restored by reference; the retry takes the same handles over.
        assert_eq!(rollback_section(&again), 2);
        assert_eq!((a.read_unsynchronized(), b.read_unsynchronized()), (10, 20));
        exit_section(&again);
        assert!(commit_top_section(&section(&a, &b)));
        assert_eq!(handles(), (2, 2, 1));
        // Another cell in `b`'s place: `b`'s handle goes, `c` gets one.
        assert!(commit_top_section(&section(&a, &c)));
        assert_eq!(handles(), (2, 1, 2));
        // And in `a`'s place, everything from there on.
        assert!(commit_top_section(&section(&b, &a)));
        assert_eq!(handles(), (2, 2, 1));
    }

    #[test]
    fn the_stamp_follows_the_innermost_live_section() {
        reset_thread();
        let stamp = || RT.with(|rt| rt.stamp.get());
        assert_eq!(stamp(), Stamp::NONE);
        let outer = begin_section(1);
        assert_eq!(stamp(), Stamp { tx: outer.id, section: outer.id });
        let inner = begin_section(2);
        assert_eq!(stamp(), Stamp { tx: outer.id, section: inner.id });
        assert!(!commit_top_section(&inner));
        assert_eq!(stamp(), Stamp { tx: outer.id, section: outer.id });
        assert!(commit_top_section(&outer));
        assert_eq!(stamp(), Stamp::NONE);
    }

    #[test]
    fn section_ids_cross_block_boundaries_without_repeating() {
        reset_thread();
        // Leave this thread one id short of its block's end.
        let last = RT.with(|rt| {
            rt.fresh_id();
            let last = rt.id_end.get() - 1;
            rt.next_id.set(last);
            last
        });
        let a = begin_section(1);
        abandon_section(&a);
        let b = begin_section(1);
        abandon_section(&b);
        assert_eq!(a.id, last);
        assert!(b.id != 0 && b.id != a.id);
        assert_eq!(b.id % ID_BLOCK, 1, "a fresh block, claimed from the shared counter");
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
