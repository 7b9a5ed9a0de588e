//! Transactional data cells.
//!
//! [`TCell`] is the library's unit of revocable shared state: the
//! analogue of a monitor-protected Java field. It is **only readable and
//! writable through a [`Tx`](crate::tx::Tx)** obtained from
//! [`RevocableMonitor::enter`](crate::monitor::RevocableMonitor::enter) —
//! Rust's ownership discipline statically guarantees what the paper's
//! JMM-consistency guard (§2.2) enforces dynamically: no other thread can
//! observe a speculative value, so rollback can never manufacture
//! out-of-thin-air reads.
//!
//! Storage is a single small mutex around the live value *and* the old
//! values a rollback would put back. The write barrier logs a cell
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
//! | first write in a section | `Tx::write`/`update` | top entry is this transaction's but another section's (or none): push `(stamp, old)`; one undo-log entry |
//! | first write over a stale entry | same | top entry is another transaction's: drop every saved entry, push `(stamp, old)`; one undo-log entry |
//! | repeat write | same | top entry is this section's: swap the value, nothing saved, nothing logged |
//! | rollback | `tx::rollback_section`, once per log entry | pop the top entry back into the value if it is this transaction's, else nothing |
//! | commit | `tx::commit_top_section` | **no cell is visited**: the log drops its `Arc`s; the entries go stale and are dropped by the cell's next first write (or with the cell) |
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
//! [`VolatileCell`] is the deliberate escape hatch, mirroring Java
//! `volatile` (Fig. 3): it is readable *without* a monitor at any time.
//! Consequently, writing one inside a synchronized section immediately
//! publishes the value, and the library responds exactly as the paper
//! prescribes — the enclosing sections become **non-revocable**.

use crate::tx::UndoSink;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, Ordering};
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
pub(crate) struct CellState<T> {
    pub(crate) value: T,
    saved: Vec<Saved<T>>,
}

/// Shared storage behind a [`TCell`]; doubles as its own undo-log entry
/// (the log records an `Arc<CellCore>` per first write — a refcount
/// bump, not a boxed closure).
pub(crate) struct CellCore<T> {
    pub(crate) state: Mutex<CellState<T>>,
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
pub struct TCell<T> {
    pub(crate) core: Arc<CellCore<T>>,
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
            core: Arc::new(CellCore { state: Mutex::new(CellState { value, saved: Vec::new() }) }),
        }
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
    pub fn read_unsynchronized(&self) -> T {
        self.core.state.lock().value.clone()
    }

    /// Current value (barrier internals; the caller is the yield point).
    pub(crate) fn get(&self) -> T {
        self.core.state.lock().value.clone()
    }

    /// The write barrier's storage half, in one uncontended lock hold:
    /// swap `v` in and — unless `stamp`'s section already saved this
    /// cell's old value — save the displaced one under `stamp`. Returns
    /// whether it saved (the caller then appends the undo-log entry). No
    /// allocation once the buffer has warmed up.
    pub(crate) fn store(&self, v: T, stamp: Stamp) -> bool {
        let mut s = self.core.state.lock();
        let first = match s.saved.last() {
            Some(top) if top.stamp.section == stamp.section => false,
            Some(top) if top.stamp.tx != stamp.tx => {
                // A committed (or foreign) transaction's leftovers.
                s.saved.clear();
                true
            }
            _ => true,
        };
        let old = std::mem::replace(&mut s.value, v);
        if first {
            s.saved.push(Saved { stamp, old });
        }
        first
    }

    /// Plain store, nothing saved: the barrier-free write used by
    /// policies that never roll back (the owning section is pinned
    /// non-revocable, so no rollback can ever look for an old value
    /// here). Stale saved entries are left for the next logged write.
    pub(crate) fn set(&self, v: T) {
        self.core.state.lock().value = v;
    }

    /// Number of saved old values, stale ones included — test visibility.
    #[cfg(test)]
    pub(crate) fn saved_len(&self) -> usize {
        self.core.state.lock().saved.len()
    }
}

impl<T: Send + 'static> TCell<T> {
    /// This cell's undo-log entry: just a refcount bump.
    pub(crate) fn undo_entry(&self) -> crate::tx::UndoEntry {
        Arc::clone(&self.core) as crate::tx::UndoEntry
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

    const OUTER: Stamp = Stamp { tx: 1, section: 1 };
    const INNER: Stamp = Stamp { tx: 1, section: 2 };
    const LATER: Stamp = Stamp { tx: 3, section: 3 };

    #[test]
    fn one_entry_per_section_and_restore_round_trip() {
        let c = TCell::new(1i64);
        assert!(c.store(2, OUTER), "first write saves");
        assert!(!c.store(3, OUTER), "repeat write does not");
        assert!(c.store(4, INNER), "an inner section's first write saves again");
        assert!(!c.store(5, INNER));
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
        c.store(2, OUTER);
        c.store(3, INNER);
        // The transaction committed without visiting the cell; a later
        // one finds its two entries and replaces them with its own.
        assert!(c.store(4, LATER));
        assert_eq!(c.saved_len(), 1);
        c.core.restore_one(3);
        assert_eq!(c.read_unsynchronized(), 3);
        assert_eq!(c.saved_len(), 0);
    }

    #[test]
    fn foreign_entries_are_not_restored() {
        let c = TCell::new(1i64);
        c.store(2, OUTER);
        c.core.restore_one(3);
        assert_eq!(c.read_unsynchronized(), 2, "another transaction's entry stays put");
        assert_eq!(c.saved_len(), 1);
    }

    #[test]
    fn plain_set_leaves_stale_entries_for_the_next_logged_write() {
        let c = TCell::new(1i64);
        c.store(2, OUTER);
        c.set(7);
        assert_eq!(c.saved_len(), 1);
        assert!(c.store(8, LATER));
        c.core.restore_one(3);
        assert_eq!(c.read_unsynchronized(), 7, "the plain store's value, not the stale entry's");
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
