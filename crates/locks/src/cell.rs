//! Transactional data cells.
//!
//! [`TCell`] is the library's unit of revocable shared state: the
//! analogue of a monitor-protected Java field. It is **only readable and
//! writable through a [`Tx`](crate::tx::Tx)** obtained from
//! [`RevocableMonitor::enter`](crate::monitor::RevocableMonitor::enter),
//! and a `Tx` cannot leave the thread that entered: it borrows that
//! thread's runtime state (stamp, undo log), so it is `!Send`, and a
//! store through it is always logged where the owning section's rollback
//! will find it. Together these give statically what the paper's
//! JMM-consistency guard (§2.2) enforces dynamically: no other thread can
//! observe a speculative value, so rollback can never manufacture
//! out-of-thin-air reads.
//!
//! Storage is a single small mutex around the live value *and* the old
//! values a rollback would put back, and every `Tx` access is **one
//! hold** of it — `update` included: the caller's closure runs under the
//! lock, between the clone and the store. The write barrier logs a cell
//! **once per section**, not once per store: each saved old value
//! carries a `Stamp` — the ids of the writing thread's outermost and
//! innermost live sections — and a store whose stamp matches the newest
//! saved entry only swaps the value in. That is a deliberate divergence
//! from the paper (§3.1.2 logs every store, and so does `revmon-vm`): a
//! rollback to a section's mark needs the value the cell held when the
//! section first wrote it, and nothing in between.
//!
//! | operation | called from | work (one cell-lock hold each) |
//! |---|---|---|
//! | read | `Tx::read` | clone the value |
//! | first write in a section | `Tx::write`/`update` | top entry is this transaction's but another section's (or none): push `(stamp, old)`; one undo-log entry — the log advances over the handle it already stores at that position if it is this cell's (`TCell::is_entry`), else drops its stored tail from there and pushes a clone |
//! | first write over a stale entry | same | top entry is another transaction's: drop every saved entry, push `(stamp, old)`; one undo-log entry, as above |
//! | repeat write | same | top entry is this section's: swap the value, nothing saved, nothing logged |
//! | update | `Tx::update` | clone the value, set `busy`, run the closure on the clone, clear `busy`, then store the result as a first or repeat write; a closure that unwinds has changed nothing |
//! | rollback | `tx::rollback_section`, once per live log entry | pop the top entry back into the value if it is this transaction's, else nothing; the log keeps its handle for the retry |
//! | commit | `tx::commit_top_section` | **no cell is visited and no handle dropped**: the log's live length goes back to the section's mark; the saved entries go stale and are dropped by the cell's next first write (or with the cell), the log's handles by the first write that differs at their position (or with the thread) |
//!
//! Both the saved-entry buffer and the thread's undo log retain their
//! capacity across sections, so a logged write performs **no heap
//! allocation** in steady state. Correct use keeps each cell
//! consistently protected by one monitor (the paper's
//! data-protected-by-its-lock discipline) — misuse is memory-safe but,
//! exactly as with the previous `Arc<Mutex<T>>` storage, can observe
//! speculative values; a rollback that finds another transaction's
//! entry on top (two monitors guarding one cell) restores nothing
//! rather than someone else's value.
//!
//! Because `update` runs user code under the cell's lock, the cell
//! carries one more word, `busy`: the dense id of the thread that is
//! inside an `update` closure on it (0 = nobody). Every lock acquisition
//! is preceded by one relaxed load of it, so a closure that touches the
//! cell it is updating — which would otherwise wait for itself forever —
//! panics with a message instead; another thread just waits for the
//! closure on the mutex. A cell guarded by *two* monitors (the misuse
//! above) could race before; it can now also deadlock, two closures each
//! waiting for the other's cell.
//!
//! [`VolatileCell`] is the deliberate escape hatch, mirroring Java
//! `volatile` (Fig. 3): it is readable *without* a monitor at any time.
//! Consequently, writing one inside a synchronized section immediately
//! publishes the value, and the library responds exactly as the paper
//! prescribes — the enclosing sections become **non-revocable**.

use crate::tx::UndoSink;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};
use std::sync::Arc;

/// Who saved an old value: the process-unique ids (never reused — see
/// [`SectionCtx::id`](crate::tx::SectionCtx)) of the writing thread's
/// outermost live section (`tx`, the unit that commits) and of its
/// innermost one (`section`, the unit a rollback can target). Section
/// ids start at 1, so [`Stamp::NONE`] matches no entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stamp {
    pub(crate) tx: u64,
    pub(crate) section: u64,
}

impl Stamp {
    /// The stamp of a thread that is in no section.
    pub(crate) const NONE: Stamp = Stamp { tx: 0, section: 0 };
}

/// An old value and the section that displaced it.
struct Saved<T> {
    stamp: Stamp,
    old: T,
}

/// Live value plus the saved old values (oldest first): one per run of
/// writes by one section (a section that writes the cell again after a
/// nested one wrote it saves again). All entries belong to one
/// transaction: a first write that finds another transaction's entry on
/// top drops them all. The buffer's capacity is the pool that makes
/// logged writes allocation-free.
struct CellState<T> {
    value: T,
    saved: Vec<Saved<T>>,
}

impl<T> CellState<T> {
    /// The write barrier's storage half: swap `v` in and — unless
    /// `stamp`'s section already saved this cell's old value — save the
    /// displaced one under `stamp`. Returns whether it saved (the caller
    /// then appends the undo-log entry). No allocation once the buffer
    /// has warmed up.
    ///
    /// `None` is the barrier-free write of policies that never roll back
    /// (the owning section is pinned non-revocable, so no rollback can
    /// ever look for an old value here): a plain store that leaves stale
    /// saved entries for the next logged write.
    #[inline]
    fn store(&mut self, v: T, stamp: Option<Stamp>) -> bool {
        let Some(stamp) = stamp else {
            self.value = v;
            return false;
        };
        let first = match self.saved.last() {
            Some(top) if top.stamp.section == stamp.section => false,
            Some(top) if top.stamp.tx != stamp.tx => {
                // A committed (or foreign) transaction's leftovers.
                self.saved.clear();
                true
            }
            _ => true,
        };
        let old = std::mem::replace(&mut self.value, v);
        if first {
            self.saved.push(Saved { stamp, old });
        }
        first
    }
}

/// Shared storage behind a [`TCell`]; doubles as its own undo-log entry
/// (the log records an `Arc<CellCore>` per first write — a refcount
/// bump, not a boxed closure).
struct CellCore<T> {
    state: Mutex<CellState<T>>,
    /// Dense id of the thread inside an `update` closure on this cell,
    /// 0 when there is none. Written only with `state` locked (set after
    /// the lock, cleared before the unlock). `Relaxed` throughout: the
    /// only reader that acts on it is the thread that wrote it, asking
    /// "am I about to wait for myself?", and a thread sees its own
    /// stores in program order; to every other thread it is a number
    /// that is not theirs.
    busy: AtomicU32,
}

/// Clears [`CellCore::busy`] when the `update` closure returns or
/// unwinds.
struct Busy<'a>(&'a AtomicU32);

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

#[cold]
#[inline(never)]
fn reentered() -> ! {
    panic!("a TCell was accessed from inside its own update closure");
}

impl<T: Send> UndoSink for CellCore<T> {
    fn restore_one(&self, tx: u64) {
        let mut s = self.state.lock();
        if s.saved.last().is_some_and(|e| e.stamp.tx == tx) {
            let e = s.saved.pop().expect("checked by last()");
            s.value = e.old;
        }
    }
}

/// A revocable cell holding a `T`. Cheap to clone (shared handle).
///
/// All access goes through [`Tx::read`](crate::tx::Tx::read) /
/// [`Tx::write`](crate::tx::Tx::write); the cell itself exposes only
/// construction and (for tests/reporting) a post-synchronization snapshot.
///
/// **Deferred drop.** The value a section's first write displaced is
/// kept for rollback, and a commit visits no cell — so after the commit
/// that value stays in the cell until the cell's next logged first write
/// (which drops it) or until the cell itself is dropped: one retained
/// `T` per section of the committed transaction that logged the cell,
/// never leaked. For a large `T` (e.g.
/// [`BoundedQueue`](crate::collections::BoundedQueue)'s
/// `TCell<VecDeque<T>>`) that is one extra copy held between sections.
///
/// The cell itself can outlive its last `TCell` handle: the writing
/// thread's undo log keeps a handle to each cell of its latest write
/// set (at most 256 per thread), so that a loop writing the same cells
/// logs them without touching a reference count. Such a cell — value,
/// retained old value and all — is dropped when that thread's first
/// write at the same log position is to a different cell, or when the
/// thread exits. Either way it is dropped outside the log's own
/// bookkeeping and while the thread's runtime state is usable, so a `T`
/// whose destructor enters a monitor is fine.
pub struct TCell<T> {
    core: Arc<CellCore<T>>,
}

impl<T> Clone for TCell<T> {
    fn clone(&self) -> Self {
        TCell { core: Arc::clone(&self.core) }
    }
}

impl<T> TCell<T> {
    /// A new cell with the given initial value.
    pub fn new(value: T) -> Self {
        TCell {
            core: Arc::new(CellCore {
                state: Mutex::new(CellState { value, saved: Vec::new() }),
                busy: AtomicU32::new(0),
            }),
        }
    }

    /// Lock the cell on behalf of thread `me` (its dense id) — unless
    /// `me` is inside an `update` closure on this very cell, where
    /// locking would wait for itself: that is a panic, which leaves the
    /// section as any user panic does.
    #[inline]
    fn lock(&self, me: u32) -> MutexGuard<'_, CellState<T>> {
        if self.core.busy.load(Ordering::Relaxed) == me {
            reentered();
        }
        self.core.state.lock()
    }
}

impl<T: Clone> TCell<T> {
    /// Read the committed value from *outside* any synchronized section.
    ///
    /// Intended for after-the-fact inspection (assertions, reporting)
    /// once the threads using the cell have quiesced. Unlike a Java
    /// unsynchronized read this cannot observe a torn value, but it *can*
    /// observe a speculative one if misused while a section is live —
    /// which is why it is named the way it is.
    ///
    /// While another thread is inside a [`Tx::update`](crate::tx::Tx::update)
    /// closure on this cell the call waits for the closure.
    pub fn read_unsynchronized(&self) -> T {
        // No `Tx` to take the caller's id from, so it is looked up — but
        // only while somebody is inside a closure here.
        let busy = self.core.busy.load(Ordering::Relaxed);
        if busy != 0 && busy == crate::tx::my_dense() {
            reentered();
        }
        self.core.state.lock().value.clone()
    }

    /// Current value, for thread `me` (barrier internals; the caller is
    /// the yield point).
    #[inline]
    pub(crate) fn get(&self, me: u32) -> T {
        self.lock(me).value.clone()
    }

    /// Store `v` for thread `me` ([`CellState::store`]).
    #[inline]
    pub(crate) fn store(&self, me: u32, v: T, stamp: Option<Stamp>) -> bool {
        self.lock(me).store(v, stamp)
    }

    /// Read-modify-write in one lock hold: run `f` on a clone of the
    /// value, then store what it returns ([`CellState::store`]). `f`
    /// runs before anything is mutated, so one that unwinds — a user
    /// panic, or a revocation caught at a yield point inside it — leaves
    /// value and saved entries exactly as they were.
    #[inline]
    pub(crate) fn update(&self, me: u32, f: impl FnOnce(T) -> T, stamp: Option<Stamp>) -> bool {
        let mut s = self.lock(me);
        let v = {
            self.core.busy.store(me, Ordering::Relaxed);
            let _clear = Busy(&self.core.busy);
            f(s.value.clone())
        };
        s.store(v, stamp)
    }

    /// Number of saved old values, stale ones included — test visibility.
    #[cfg(test)]
    pub(crate) fn saved_len(&self) -> usize {
        self.core.state.lock().saved.len()
    }

    /// Number of handles to this cell's storage, `TCell`s and undo-log
    /// entries alike — test visibility.
    #[cfg(test)]
    pub(crate) fn handles(&self) -> usize {
        Arc::strong_count(&self.core)
    }
}

impl<T: Send + 'static> TCell<T> {
    /// This cell's undo-log entry: just a refcount bump.
    pub(crate) fn undo_entry(&self) -> crate::tx::UndoEntry {
        Arc::clone(&self.core) as crate::tx::UndoEntry
    }

    /// Whether `entry` is a handle to this very cell: the two `Arc`s
    /// point at the same data. It cannot alias — `entry` keeps its
    /// allocation alive, so no other cell can be at that address while
    /// the comparison is made, and an `Arc` allocation starts with its
    /// two counters, so even zero-sized data has an address of its own.
    #[inline]
    pub(crate) fn is_entry(&self, entry: &crate::tx::UndoEntry) -> bool {
        std::ptr::addr_eq(Arc::as_ptr(entry), Arc::as_ptr(&self.core))
    }
}

impl<T: Clone + std::fmt::Debug> std::fmt::Debug for TCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TCell").field(&self.read_unsynchronized()).finish()
    }
}

impl<T: Default> Default for TCell<T> {
    fn default() -> Self {
        TCell::new(T::default())
    }
}

/// A Java-`volatile`-like integer cell: readable lock-free from anywhere,
/// at the price that a transactional write to it pins the enclosing
/// synchronized sections non-revocable (the paper's volatile rule).
#[derive(Debug, Default)]
pub struct VolatileCell {
    pub(crate) value: Arc<AtomicI64>,
}

impl Clone for VolatileCell {
    fn clone(&self) -> Self {
        VolatileCell { value: Arc::clone(&self.value) }
    }
}

impl VolatileCell {
    /// A new volatile cell.
    pub fn new(v: i64) -> Self {
        VolatileCell { value: Arc::new(AtomicI64::new(v)) }
    }

    /// Lock-free read, allowed anywhere (this is the point of volatile).
    pub fn load(&self) -> i64 {
        self.value.load(Ordering::SeqCst)
    }

    /// Unmonitored write (outside any section). For writes inside a
    /// section use [`Tx::write_volatile`](crate::tx::Tx::write_volatile),
    /// which applies the non-revocability rule.
    pub fn store_unsynchronized(&self, v: i64) {
        self.value.store(v, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcell_clone_shares_storage() {
        let a = TCell::new(1);
        let b = a.clone();
        a.core.state.lock().value = 5;
        assert_eq!(b.read_unsynchronized(), 5);
    }

    /// The dense id the tests access cells under.
    const ME: u32 = 1;
    const OUTER: Stamp = Stamp { tx: 1, section: 1 };
    const INNER: Stamp = Stamp { tx: 1, section: 2 };
    const LATER: Stamp = Stamp { tx: 3, section: 3 };

    #[test]
    fn one_entry_per_section_and_restore_round_trip() {
        let c = TCell::new(1i64);
        assert!(c.store(ME, 2, Some(OUTER)), "first write saves");
        assert!(!c.store(ME, 3, Some(OUTER)), "repeat write does not");
        assert!(c.store(ME, 4, Some(INNER)), "an inner section's first write saves again");
        assert!(!c.store(ME, 5, Some(INNER)));
        assert_eq!(c.saved_len(), 2);
        c.core.restore_one(1);
        assert_eq!(c.read_unsynchronized(), 3, "value at inner entry");
        c.core.restore_one(1);
        assert_eq!(c.read_unsynchronized(), 1, "value at outer entry");
        // Nothing saved: restore is a no-op, not a panic.
        c.core.restore_one(1);
        assert_eq!(c.read_unsynchronized(), 1);
    }

    #[test]
    fn stale_entries_are_dropped_by_the_next_first_write() {
        let c = TCell::new(1i64);
        c.store(ME, 2, Some(OUTER));
        c.store(ME, 3, Some(INNER));
        // The transaction committed without visiting the cell; a later
        // one finds its two entries and replaces them with its own.
        assert!(c.store(ME, 4, Some(LATER)));
        assert_eq!(c.saved_len(), 1);
        c.core.restore_one(3);
        assert_eq!(c.read_unsynchronized(), 3);
        assert_eq!(c.saved_len(), 0);
    }

    #[test]
    fn foreign_entries_are_not_restored() {
        let c = TCell::new(1i64);
        c.store(ME, 2, Some(OUTER));
        c.core.restore_one(3);
        assert_eq!(c.read_unsynchronized(), 2, "another transaction's entry stays put");
        assert_eq!(c.saved_len(), 1);
    }

    #[test]
    fn plain_set_leaves_stale_entries_for_the_next_logged_write() {
        let c = TCell::new(1i64);
        c.store(ME, 2, Some(OUTER));
        c.store(ME, 7, None);
        assert_eq!(c.saved_len(), 1);
        assert!(c.store(ME, 8, Some(LATER)));
        c.core.restore_one(3);
        assert_eq!(c.read_unsynchronized(), 7, "the plain store's value, not the stale entry's");
    }

    #[test]
    fn update_stores_like_a_write_and_logs_once_per_section() {
        let c = TCell::new(1i64);
        assert!(c.update(ME, |v| v + 1, Some(OUTER)), "first write saves");
        assert!(!c.update(ME, |v| v + 1, Some(OUTER)), "repeat write does not");
        assert!(c.update(ME, |v| v * 10, Some(INNER)));
        assert_eq!((c.read_unsynchronized(), c.saved_len()), (30, 2));
        c.core.restore_one(1);
        c.core.restore_one(1);
        assert_eq!(c.read_unsynchronized(), 1);
        // Barrier-free: stored, nothing saved.
        assert!(!c.update(ME, |v| v + 6, None));
        assert_eq!((c.read_unsynchronized(), c.saved_len()), (7, 0));
    }

    #[test]
    fn an_update_closure_that_unwinds_changes_nothing() {
        let c = TCell::new(1i64);
        c.store(ME, 2, Some(OUTER));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.update(ME, |_| panic!("closure"), Some(INNER))
        }));
        assert!(unwound.is_err());
        assert_eq!((c.read_unsynchronized(), c.saved_len()), (2, 1));
        // Lock released and `busy` cleared: the next access is ordinary.
        assert!(c.store(ME, 3, Some(INNER)));
    }

    #[test]
    fn touching_a_cell_from_its_own_update_closure_panics() {
        let c = TCell::new(1i64);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.update(ME, |v| v + c.get(ME), Some(OUTER))
        }));
        let msg = *r.expect_err("must not hang, must not succeed").downcast::<&str>().unwrap();
        assert_eq!(msg, "a TCell was accessed from inside its own update closure");
        assert_eq!((c.read_unsynchronized(), c.saved_len()), (1, 0));
    }

    #[test]
    fn volatile_cell_is_shared_and_atomic() {
        let v = VolatileCell::new(3);
        let w = v.clone();
        v.store_unsynchronized(9);
        assert_eq!(w.load(), 9);
    }

    #[test]
    fn tcell_default() {
        let c: TCell<i64> = TCell::default();
        assert_eq!(c.read_unsynchronized(), 0);
    }
}
