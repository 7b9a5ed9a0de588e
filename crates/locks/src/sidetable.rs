//! Pooled, generation-stamped side table for fat-monitor state.
//!
//! *Compact Java Monitors*-style monitor shrinking: an idle or deflated
//! monitor is exactly one `AtomicU64` lock word. The full `MState`
//! (entry queue and wait set) only exists while the monitor is
//! inflated, **leased** from this global pool and returned at deflation
//! — so a process with millions of mostly-idle monitors pays for fat
//! state proportional to *contended* monitors, not allocated ones.
//!
//! # Leases and generations
//!
//! A lease is identified by `(index, generation)`; both are packed into
//! the monitor's inflated lock word. The generation stamp defeats ABA:
//! it is bumped **at pool return, under the record's mutex**, so
//!
//! * a thread that read an inflated word, locked the record, and then
//!   finds the packed generation still equal to the record's knows the
//!   lease that packed that word is still active — the record was never
//!   returned, hence never re-leased to a different monitor;
//! * a stale word naming a recycled record fails the generation check
//!   and the reader re-reads the word (the monitor has deflated).
//!
//! # Storage
//!
//! Records live in append-only chunks (chunk *k* holds `1024 << k`
//! records), so a record's address never moves and access is safe
//! indexing — no unsafe code, no global growth lock on the lease path.
//! Free indices sit in one freelist under one lock: a leaser takes a
//! retired record before it allocates a fresh one, whichever thread
//! retired it, so inflations and deflations split across threads cannot
//! strand records (the leak the churn test pins down).

use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Generation bits preserved by lease/validate: lock words only have
/// room for this many, so comparisons are masked. Wrap needs ~5.5e11
/// retires of one record between a reader's word load and its record
/// lock — unreachable in practice.
pub(crate) const GEN_BITS: u32 = 39;
pub(crate) const GEN_MASK: u64 = (1 << GEN_BITS) - 1;

/// Chunk 0 capacity; chunk `k` holds `CHUNK0 << k` records.
const CHUNK0: usize = 1024;
/// Chunk count: total capacity `CHUNK0 * (2^15 - 1)` ≈ 33.5M concurrent
/// leases, comfortably above the 2^24 the lock-word index field allows.
const CHUNKS: usize = 15;

/// One pooled record: the generation stamp and the leased state.
#[derive(Debug)]
struct Record<S> {
    /// Bumped at pool return, under `state`'s lock (see module docs).
    gen: AtomicU64,
    state: Mutex<S>,
}

/// A generation-stamped record pool. `S` is the leased state
/// (fat-monitor `MState` in practice); records are created on demand
/// with `S::default()` and *recycled as-is* — the protocol returns them
/// empty, and reuse keeps their internal capacity (entry-queue classes,
/// wait-set vectors) warm.
#[derive(Debug)]
pub(crate) struct SideTable<S> {
    chunks: [OnceLock<Box<[Record<S>]>>; CHUNKS],
    /// High-water record count (next fresh index).
    allocated: AtomicU32,
    /// Free record indices.
    free: Mutex<Vec<u32>>,
}

/// Chunk holding `idx`, and the offset within it.
#[inline]
fn locate(idx: u32) -> (usize, usize) {
    let mut base = 0usize;
    for k in 0..CHUNKS {
        let len = CHUNK0 << k;
        if (idx as usize) < base + len {
            return (k, idx as usize - base);
        }
        base += len;
    }
    panic!("side-table index {idx} beyond capacity");
}

impl<S: Default> SideTable<S> {
    /// An empty pool (const: usable as a `static`).
    pub(crate) const fn new() -> Self {
        SideTable {
            chunks: [const { OnceLock::new() }; CHUNKS],
            allocated: AtomicU32::new(0),
            free: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, idx: u32) -> &Record<S> {
        let (k, off) = locate(idx);
        let chunk = self.chunks[k].get_or_init(|| {
            (0..CHUNK0 << k)
                .map(|_| Record { gen: AtomicU64::new(0), state: Mutex::new(S::default()) })
                .collect()
        });
        &chunk[off]
    }

    /// Lease a record: its index, its current generation, and its state
    /// guard (already locked, so the caller can publish the packed word
    /// and migrate state into it before anyone else can look).
    pub(crate) fn lease(&self) -> (u32, u64, MutexGuard<'_, S>) {
        let free = self.free.lock().pop();
        let idx = free.unwrap_or_else(|| self.allocated.fetch_add(1, Ordering::Relaxed));
        let rec = self.record(idx);
        (idx, rec.gen.load(Ordering::Acquire) & GEN_MASK, rec.state.lock())
    }

    /// Return a leased record to the pool. The generation bump happens
    /// under the record's lock (the guard the caller still holds), so a
    /// validator that locks the record afterwards is guaranteed to see
    /// the new generation and reject its stale word.
    pub(crate) fn retire(&self, idx: u32, guard: MutexGuard<'_, S>) {
        self.record(idx).gen.fetch_add(1, Ordering::Release);
        drop(guard);
        self.free.lock().push(idx);
    }

    /// Lock record `idx` and validate the lease `gen` (masked to
    /// [`GEN_BITS`]) against the record's current generation. `None`
    /// means the lease was returned (and possibly re-issued) since the
    /// caller read its word — re-read the word and start over.
    pub(crate) fn lock_validated(&self, idx: u32, gen: u64) -> Option<MutexGuard<'_, S>> {
        let rec = self.record(idx);
        let guard = rec.state.lock();
        if rec.gen.load(Ordering::Acquire) & GEN_MASK == gen & GEN_MASK {
            Some(guard)
        } else {
            None
        }
    }

    /// High-water record count (leases ever created simultaneously).
    /// The leak test's invariant: churn with ≤ N concurrent inflations
    /// keeps this O(N), regardless of total inflation count.
    pub(crate) fn allocated(&self) -> u32 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Records currently sitting in the freelist (not leased).
    pub(crate) fn pooled(&self) -> usize {
        self.free.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_retire_recycles_the_same_record() {
        static T: SideTable<Vec<u8>> = SideTable::new();
        let (idx, gen, mut g) = T.lease();
        g.push(7);
        g.clear();
        T.retire(idx, g);
        let (idx2, gen2, g2) = T.lease();
        assert_eq!(idx, idx2, "single-threaded churn reuses the record");
        assert_eq!(gen2, gen + 1, "retire bumps the generation");
        drop(g2);
        assert_eq!(T.allocated(), 1);
    }

    #[test]
    fn stale_generation_is_rejected() {
        static T: SideTable<u32> = SideTable::new();
        let (idx, gen, g) = T.lease();
        drop(g);
        // Lease still active: validation succeeds.
        assert!(T.lock_validated(idx, gen).is_some());
        let g = T.record(idx).state.lock();
        T.retire(idx, g);
        // Returned: the old (idx, gen) word must be rejected.
        assert!(T.lock_validated(idx, gen).is_none());
        // Re-leased under a fresh generation: old word still rejected.
        let (idx2, gen2, g2) = T.lease();
        assert_eq!(idx, idx2);
        drop(g2);
        assert!(T.lock_validated(idx, gen).is_none());
        assert!(T.lock_validated(idx, gen2).is_some());
    }

    #[test]
    fn chunk_addressing_is_stable() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(1024 + 2048), (2, 0));
        assert_eq!(locate(1024 + 2048 + 4095), (2, 4095));
    }
}
