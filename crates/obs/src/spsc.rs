//! Per-thread single-producer / single-consumer event rings.
//!
//! One [`SpscRing`] is owned (logically) by exactly one producing thread
//! and drained by exactly one consumer at a time (the sink's collector,
//! serialized by a collect lock). The producer path is wait-free: a
//! full-check against the consumer cursor, six relaxed slot stores, and
//! one release store of the tail — no locks, no shared `fetch_add`, no
//! cache line written by more than one thread.
//!
//! The crate forbids `unsafe`, so slots are arrays of `AtomicU64`s
//! rather than `UnsafeCell`s: every field store/load is `Relaxed`, and
//! cross-thread visibility is carried entirely by the `tail` (producer →
//! consumer) and `head` (consumer → producer) release/acquire pair —
//! the classic bounded SPSC protocol:
//!
//! * producer: `tail - head.load(Acquire) >= cap` ⇒ full (drop-newest,
//!   counted); otherwise write `slots[tail & mask]`, then
//!   `tail.store(tail+1, Release)`;
//! * consumer: `t = tail.load(Acquire)`; read `slots[head..t]`, then
//!   `head.store(t, Release)`.
//!
//! The release store of `tail` happens-after the slot writes, and the
//! consumer's acquire load of `tail` happens-before its slot reads, so a
//! published slot is never torn; the producer's acquire load of `head`
//! happens-after the consumer finished reading a slot, so a slot is
//! never overwritten while being read. `tests/spsc_model.rs` checks this
//! protocol exhaustively over every interleaving of those atomic steps.
//!
//! When full the ring drops the **newest** event (the push fails) rather
//! than overwriting the oldest: overwrite-oldest would require the
//! producer to move the consumer's cursor, which is exactly the shared
//! mutation this design exists to remove. Every push attempt consumes a
//! per-thread sequence number whether or not it lands, so a drain can
//! detect loss as gaps in the `seq` stream and the drop counter is
//! exact.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::{Event, EventKind, NKINDS};

/// One fixed-width slot: the per-thread sequence number plus the event
/// encoded into six words ([`EventKind::encode`]). The kind tag only
/// needs the low 32 bits of its word, so the event's core id rides in
/// the high 32 bits of `tag` — no eighth word, no layout change. Plain
/// relaxed atomics — ordering lives on the ring's head/tail.
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    thread: AtomicU64,
    monitor: AtomicU64,
    tag: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            thread: AtomicU64::new(0),
            monitor: AtomicU64::new(0),
            tag: AtomicU64::new(u64::MAX),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// Fixed-capacity SPSC ring of `(seq, Event)` pairs with drop-newest
/// overflow, per-kind tallies, and per-ring drop/sample accounting.
pub struct SpscRing {
    slots: Box<[Slot]>,
    mask: u64,
    /// Producer cursor: index of the next slot to write.
    tail: AtomicU64,
    /// Consumer cursor: index of the next slot to read.
    head: AtomicU64,
    /// Push attempts (accepted + dropped + nothing else): the per-thread
    /// sequence counter. Producer-written, relaxed.
    attempts: AtomicU64,
    /// Push attempts that found the ring full.
    dropped: AtomicU64,
    /// High-rate events thinned away by the sampling knob (never pushed,
    /// never a seq gap — sampling happens before the seq is taken).
    sampled_out: AtomicU64,
    /// Exact per-kind event counts, including sampled-out ones — the
    /// tallies that keep `--trace-sample` lossless for counting.
    tallies: [AtomicU64; NKINDS],
    /// Dense id of the producing thread within its sink (registration
    /// order), used by the per-producer drop breakdown.
    producer: u64,
}

impl SpscRing {
    /// Ring holding at most `cap` events; `cap` is rounded up to a power
    /// of two (min 2). `producer` is the dense per-sink producer id.
    pub(crate) fn new(cap: usize, producer: u64) -> Self {
        let cap = cap.max(2).next_power_of_two();
        SpscRing {
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            mask: cap as u64 - 1,
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            tallies: [const { AtomicU64::new(0) }; NKINDS],
            producer,
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Dense per-sink id of the producing thread.
    pub fn producer(&self) -> u64 {
        self.producer
    }

    /// Producer side: tally `kind` and decide whether the sampling knob
    /// keeps this event. Keeps the first of every `n` occurrences of
    /// each high-rate kind (so a burst shorter than `n` still leaves a
    /// trace), everything else always. `n <= 1` keeps everything.
    pub(crate) fn sample_keep(&self, kind: &EventKind, n: u64) -> bool {
        let seen = self.tallies[kind.index()].fetch_add(1, Ordering::Relaxed);
        if n <= 1 || !kind.high_rate() || seen.is_multiple_of(n) {
            true
        } else {
            self.sampled_out.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Producer side: append one event, taking the next per-thread
    /// sequence number. Returns `false` (and counts a drop) when the
    /// ring is full. Wait-free; only the producing thread may call this.
    pub fn push(&self, ev: Event) -> bool {
        let seq = self.attempts.fetch_add(1, Ordering::Relaxed);
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Acquire);
        if t.wrapping_sub(h) > self.mask {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let slot = &self.slots[(t & self.mask) as usize];
        let (tag, a, b) = ev.kind.encode();
        let tag = tag | ((ev.core as u64) << 32);
        slot.seq.store(seq, Ordering::Relaxed);
        slot.ts.store(ev.ts, Ordering::Relaxed);
        slot.thread.store(ev.thread, Ordering::Relaxed);
        slot.monitor.store(ev.monitor, Ordering::Relaxed);
        slot.tag.store(tag, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        self.tail.store(t.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side: hand every published event to `f` as
    /// `(seq, event)`, oldest first — one decode per slot, no
    /// intermediate vector. Only one consumer may run at a time (the
    /// sink's collect lock enforces this). Returns the number of events
    /// handed over.
    pub fn drain_with(&self, mut f: impl FnMut(u64, Event)) -> usize {
        let t = self.tail.load(Ordering::Acquire);
        let mut h = self.head.load(Ordering::Relaxed);
        let n = t.wrapping_sub(h) as usize;
        while h != t {
            let slot = &self.slots[(h & self.mask) as usize];
            let raw_tag = slot.tag.load(Ordering::Relaxed);
            let kind = EventKind::decode(
                raw_tag & 0xFFFF_FFFF,
                slot.a.load(Ordering::Relaxed),
                slot.b.load(Ordering::Relaxed),
            )
            .expect("published slot holds an encodable kind");
            f(
                slot.seq.load(Ordering::Relaxed),
                Event {
                    ts: slot.ts.load(Ordering::Relaxed),
                    thread: slot.thread.load(Ordering::Relaxed),
                    monitor: slot.monitor.load(Ordering::Relaxed),
                    core: (raw_tag >> 32) as u32,
                    kind,
                },
            );
            h = h.wrapping_add(1);
        }
        self.head.store(h, Ordering::Release);
        n
    }

    /// [`SpscRing::drain_with`] into a vector of `(seq, event)` pairs:
    /// the sequence numbers let a consumer see drops as gaps.
    pub fn drain_into(&self, out: &mut Vec<(u64, Event)>) -> usize {
        out.reserve(self.len());
        self.drain_with(|seq, ev| out.push((seq, ev)))
    }

    /// Events currently published and not yet drained.
    pub fn len(&self) -> usize {
        let t = self.tail.load(Ordering::Acquire);
        let h = self.head.load(Ordering::Relaxed);
        t.wrapping_sub(h) as usize
    }

    /// Whether the ring holds no undrained events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push attempts that were dropped because the ring was full.
    /// Cumulative for the ring's lifetime — draining does not reset it.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events accepted into the ring (attempts minus drops); the number
    /// of distinct sequence numbers a complete drain would observe.
    pub fn recorded(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed) - self.dropped()
    }

    /// High-rate events thinned away by sampling. Cumulative.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out.load(Ordering::Relaxed)
    }

    /// Exact per-kind tallies (including sampled-out events), visited as
    /// `(kind name, count)` for non-zero kinds.
    pub fn for_each_tally(&self, mut f: impl FnMut(&'static str, u64)) {
        for ((name, ..), t) in crate::event::SCHEMA.iter().zip(&self.tallies) {
            let n = t.load(Ordering::Relaxed);
            if n > 0 {
                f(name, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> Event {
        Event { ts, thread: 1, monitor: 1, core: 0, kind: EventKind::Acquire }
    }

    #[test]
    fn push_then_drain_preserves_order_and_seq() {
        let r = SpscRing::new(8, 0);
        for i in 0..5 {
            assert!(r.push(ev(i)));
        }
        assert_eq!(r.len(), 5);
        let mut out = Vec::new();
        assert_eq!(r.drain_into(&mut out), 5);
        assert!(r.is_empty());
        let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        let ts: Vec<u64> = out.iter().map(|(_, e)| e.ts).collect();
        assert_eq!(ts, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_ring_drops_newest_and_leaves_seq_gaps() {
        let r = SpscRing::new(2, 0);
        assert!(r.push(ev(0)));
        assert!(r.push(ev(1)));
        assert!(!r.push(ev(2)), "full ring must refuse");
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.recorded(), 2);
        let mut out = Vec::new();
        r.drain_into(&mut out);
        assert_eq!(out.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![0, 1]);
        // After the drain there is room again; the next seq shows the gap.
        assert!(r.push(ev(3)));
        out.clear();
        r.drain_into(&mut out);
        assert_eq!(out[0].0, 3, "dropped attempt still consumed seq 2");
        // Drop accounting is cumulative: the drain did not reset it.
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn wraparound_reuses_slots_correctly() {
        let r = SpscRing::new(4, 0);
        let mut out = Vec::new();
        for round in 0..10u64 {
            for i in 0..3 {
                assert!(r.push(ev(round * 10 + i)));
            }
            out.clear();
            assert_eq!(r.drain_into(&mut out), 3);
            let ts: Vec<u64> = out.iter().map(|(_, e)| e.ts).collect();
            assert_eq!(ts, vec![round * 10, round * 10 + 1, round * 10 + 2]);
        }
        assert_eq!(r.recorded(), 30);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn payload_kinds_survive_the_slot_encoding() {
        let r = SpscRing::new(8, 0);
        let kinds = [
            EventKind::Rollback { entries: 42, duration: 7 },
            EventKind::RevokeRequest { by: 3 },
            EventKind::DelegateSubmit { holder: Event::NO_THREAD, token: 9 },
        ];
        for (i, k) in kinds.iter().enumerate() {
            r.push(Event { ts: i as u64, thread: 2, monitor: 5, core: i as u32, kind: *k });
        }
        let mut out = Vec::new();
        r.drain_into(&mut out);
        for ((i, (_, got)), want) in out.iter().enumerate().zip(kinds) {
            assert_eq!(got.kind, want);
            assert_eq!(got.thread, 2);
            assert_eq!(got.monitor, 5);
            assert_eq!(got.core, i as u32, "core id lost by the tag-word packing");
        }
    }

    #[test]
    fn sampling_keeps_first_of_each_n_and_tallies_exactly() {
        let r = SpscRing::new(64, 0);
        let mut kept = 0;
        for _ in 0..20 {
            if r.sample_keep(&EventKind::Acquire, 4) {
                kept += 1;
            }
        }
        assert_eq!(kept, 5, "keep 1/4 of 20");
        assert_eq!(r.sampled_out(), 15);
        // Rare kinds are never thinned.
        for _ in 0..10 {
            assert!(r.sample_keep(&EventKind::Rollback { entries: 1, duration: 1 }, 4));
        }
        let mut tallies = std::collections::BTreeMap::new();
        r.for_each_tally(|name, n| {
            tallies.insert(name, n);
        });
        assert_eq!(tallies.get("Acquire"), Some(&20), "tally counts sampled-out events too");
        assert_eq!(tallies.get("Rollback"), Some(&10));
    }

    #[test]
    fn concurrent_producer_consumer_loses_nothing_in_order() {
        let r = std::sync::Arc::new(SpscRing::new(1024, 0));
        const N: u64 = 200_000;
        let producer = {
            let r = std::sync::Arc::clone(&r);
            std::thread::spawn(move || {
                let mut pushed = 0u64;
                for i in 0..N {
                    if r.push(ev(i)) {
                        pushed += 1;
                    }
                }
                pushed
            })
        };
        let mut got = Vec::new();
        loop {
            r.drain_into(&mut got);
            if producer.is_finished() {
                r.drain_into(&mut got);
                break;
            }
        }
        let pushed = producer.join().unwrap();
        assert_eq!(got.len() as u64, pushed);
        assert_eq!(pushed + r.dropped(), N);
        // Sequence numbers strictly increase (order kept, nothing
        // duplicated) and ts matches seq-free order.
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "seq went backwards");
        assert!(got.windows(2).all(|w| w[0].1.ts < w[1].1.ts), "event order lost");
    }
}
