//! The JMM-consistency guard (§2.1–2.2).
//!
//! Rolling back a synchronized section is only legal if no other thread
//! has observed its speculative updates; otherwise a value another thread
//! already used would retroactively appear "out of thin air" (Figs. 2–3).
//! The paper's remedy: *"disable the revocability of monitors whose
//! rollback could create inconsistencies with respect to the JMM. […] We
//! mark a monitor M non-revocable when a read-write dependency is created
//! between a write performed within M and a read performed by another
//! thread."*
//!
//! The guard keeps, beside every heap word, a *stamp* naming the latest
//! *speculative* write to it (one performed inside a still-active
//! synchronized section): the writing thread and the write's position in
//! that thread's undo log. The stamps live in the heap itself
//! ([`crate::heap`]: a vector parallel to each object's slots, a field of
//! each static slot), so the barriers reach them by the index the access
//! has already computed — the paper's write barrier is a fast-path test
//! plus a sequential log append (§3.1.2), and a hash-table probe per
//! access would dwarf both. Stamps are set by the write-barrier slow
//! path ([`Heap::record_write`]) and dropped when the writer's outermost
//! section commits or when the entries are rolled back
//! ([`Heap::clear_speculative`]). A read by a different thread that hits
//! a live stamp ([`Heap::check_read`]) marks every enclosing active
//! section of the writer non-revocable.
//!
//! This single rule covers both problem cases in the paper:
//!
//! * **Fig. 2 (nesting):** T writes `v` under `inner` nested in `outer`,
//!   exits `inner` (entries stay live — `outer` is still active), then T′
//!   reads `v` under `inner`. The read hits the live entry and `outer`
//!   becomes non-revocable.
//! * **Fig. 3 (volatile):** volatile reads take the same read-barrier
//!   path, so an unmonitored volatile read of a speculative volatile
//!   write flags the writer's sections identically.
//!
//! Reads by the writer itself never flag anything (a thread may always
//! observe its own speculative state), and reads of committed data find
//! no entry — so the common "same data guarded by the same monitor"
//! discipline never forfeits revocability, matching the paper's
//! intuition.

#[cfg(doc)]
use crate::heap::Heap;
use revmon_core::ThreadId;

/// Information about the latest speculative write to a location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpeculativeWrite {
    /// Writing thread.
    pub writer: ThreadId,
    /// Undo-log position of the write in the writer's log: every active
    /// section of the writer whose mark is ≤ this position encloses the
    /// write.
    pub log_pos: usize,
}

/// The guard's state for one heap word: a [`SpeculativeWrite`] or none,
/// packed into 8 bytes (half a [`Value`](crate::value::Value)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Stamp {
    /// Writing thread's id, or [`Stamp::NO_WRITER`].
    writer: u32,
    log_pos: u32,
}

impl Stamp {
    /// Thread ids index the VM's thread vector, so this one is never
    /// issued.
    const NO_WRITER: u32 = u32::MAX;

    /// No speculative write to this word is live.
    pub(crate) const NONE: Stamp = Stamp { writer: Self::NO_WRITER, log_pos: 0 };

    /// The stamp of a write by `writer` at undo-log position `log_pos`.
    #[inline]
    pub(crate) fn new(writer: ThreadId, log_pos: usize) -> Self {
        assert!(writer.0 != Self::NO_WRITER, "thread id reserved for the empty stamp");
        // A log that long could not be held in memory.
        let log_pos = u32::try_from(log_pos).expect("undo-log position fits in 32 bits");
        Stamp { writer: writer.0, log_pos }
    }

    /// The write this stamp records, if any.
    #[inline]
    pub(crate) fn get(self) -> Option<SpeculativeWrite> {
        (self.writer != Self::NO_WRITER).then_some(SpeculativeWrite {
            writer: ThreadId(self.writer),
            log_pos: self.log_pos as usize,
        })
    }
}

impl Default for Stamp {
    fn default() -> Self {
        Stamp::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{Heap, Location};

    /// A heap with one 3-slot object and one static; `loc(i)` is slot `i`.
    fn heap() -> Heap {
        let mut h = Heap::new(1);
        h.alloc(0, 3);
        h
    }

    fn loc(i: u32) -> Location {
        Location::Obj(crate::value::ObjRef(0), i)
    }

    #[test]
    fn own_reads_never_flag() {
        let mut g = heap();
        g.record_write(loc(0), ThreadId(1), 0);
        assert_eq!(g.check_read(loc(0), ThreadId(1)), None);
    }

    #[test]
    fn cross_thread_read_flags() {
        let mut g = heap();
        g.record_write(loc(0), ThreadId(1), 7);
        let w = g.check_read(loc(0), ThreadId(2)).expect("flagged");
        assert_eq!(w.writer, ThreadId(1));
        assert_eq!(w.log_pos, 7);
    }

    #[test]
    fn committed_entries_no_longer_flag() {
        let mut g = heap();
        g.record_write(loc(0), ThreadId(1), 0);
        g.clear_speculative(loc(0), ThreadId(1));
        assert_eq!(g.check_read(loc(0), ThreadId(2)), None);
        assert_eq!(g.speculative_len(), 0);
    }

    #[test]
    fn clear_ignores_entries_superseded_by_another_writer() {
        let mut g = heap();
        g.record_write(loc(0), ThreadId(1), 0);
        // Thread 2 later writes the same location speculatively (it could
        // do so after thread 1 committed but before 1's per-entry clears
        // run — clears must not wipe 2's entry).
        g.record_write(loc(0), ThreadId(2), 3);
        g.clear_speculative(loc(0), ThreadId(1));
        assert_eq!(
            g.check_read(loc(0), ThreadId(1)),
            Some(SpeculativeWrite { writer: ThreadId(2), log_pos: 3 })
        );
    }

    #[test]
    fn later_write_supersedes_position() {
        let mut g = heap();
        g.record_write(loc(0), ThreadId(1), 2);
        g.record_write(loc(0), ThreadId(1), 9);
        assert_eq!(g.check_read(loc(0), ThreadId(2)).unwrap().log_pos, 9);
        assert_eq!(g.speculative_len(), 1);
    }

    #[test]
    fn distinct_locations_tracked_independently() {
        let mut g = heap();
        g.record_write(Location::Static(0), ThreadId(1), 0);
        g.record_write(loc(1), ThreadId(1), 1);
        assert!(g.check_read(Location::Static(0), ThreadId(2)).is_some());
        assert!(g.check_read(loc(2), ThreadId(2)).is_none());
        assert_eq!(g.speculative_len(), 2);
        // Listed in `Location` order: object slots before statics.
        let locs: Vec<Location> = g.speculative_writes().map(|(l, _)| l).collect();
        assert_eq!(locs, [loc(1), Location::Static(0)]);
    }

    #[test]
    fn reads_outside_the_heap_observe_nothing() {
        let mut g = heap();
        g.record_write(loc(0), ThreadId(1), 0);
        assert_eq!(g.check_read(loc(3), ThreadId(2)), None);
        assert_eq!(g.check_read(Location::Static(1), ThreadId(2)), None);
    }
}
