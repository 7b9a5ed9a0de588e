//! Prioritized monitor entry queues.
//!
//! §4: *"we implemented prioritized monitor queues. […] When a thread
//! releases a monitor, another thread is scheduled from the queue. If it
//! is a high-priority thread, it is allowed to acquire the monitor. If it
//! is a low-priority thread, it is allowed to run only if there are no
//! other waiting high-priority threads."*
//!
//! [`PrioritizedQueue`] generalizes this to the full priority range:
//! highest priority class first, FIFO within a class. A [`QueueDiscipline`]
//! switch turns it into a plain FIFO for the ablation benches.
//!
//! # Representation
//!
//! One `VecDeque` per Java priority level 1..=10, each in arrival order,
//! plus a **class bitmap** — a `u16` with bit *c* set exactly when class
//! *c* has waiters. Every entry carries its arrival sequence number, so
//! arrival order across classes is a merge of at most ten class heads.
//! This gives:
//!
//! * `push` — append to the class tail: **O(1)** amortized;
//! * `pop` / `peek` — under the priority discipline, the head of the
//!   highest set bit's class (one leading-zeros instruction); under FIFO,
//!   the class head with the smallest sequence number: **O(1)**;
//! * [`max_waiting`](PrioritizedQueue::max_waiting) — the head of the
//!   highest class under either discipline: **O(1)**;
//! * `iter` / `iter_entries` — the merge of the class heads by sequence
//!   number, which is arrival order;
//! * `remove_where` / `reprioritize` — walk arrival order to the first
//!   match, take it out of its class, and (for `reprioritize`) insert it
//!   into the new class at its arrival rank, found by binary search.
//!
//! The classes are allocated by the first `push`, so a queue that never
//! held a waiter stays small and allocation-free. The seed scanned one
//! `VecDeque` on every `pop` — O(n) in the number of waiters, which falls
//! over at server scale (see `benches/scale.rs` for the two curves).

use crate::policy::QueueDiscipline;
use crate::priority::Priority;
use std::collections::VecDeque;

/// Java priorities 1..=10, one class each (class `level - 1`).
const CLASSES: usize = 10;

/// A queued item, the priority it waits at, and its arrival sequence
/// number (FIFO within a class, arrival order across classes).
#[derive(Debug)]
struct Entry<T> {
    seq: u64,
    priority: Priority,
    item: T,
}

/// A monitor entry queue honouring a [`QueueDiscipline`].
///
/// ```
/// use revmon_core::{PrioritizedQueue, Priority, QueueDiscipline};
///
/// let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
/// q.push("low", Priority::LOW);
/// q.push("high", Priority::HIGH);
/// assert_eq!(q.pop(), Some("high")); // high-priority waiters first
/// assert_eq!(q.pop(), Some("low"));
/// ```
#[derive(Debug)]
pub struct PrioritizedQueue<T> {
    /// One FIFO per priority class; empty until the first `push`.
    classes: Vec<VecDeque<Entry<T>>>,
    /// Bit `c` set ⇔ class `c` is non-empty. `u16::leading_zeros` on
    /// this is the whole "find the best waiter" computation.
    mask: u16,
    len: usize,
    next_seq: u64,
    discipline: QueueDiscipline,
}

impl<T> Default for PrioritizedQueue<T> {
    /// An empty queue under the default discipline
    /// ([`QueueDiscipline::Priority`]).
    fn default() -> Self {
        PrioritizedQueue::new(QueueDiscipline::default())
    }
}

/// Priority class of a queued-at priority. `Priority::new` clamps into
/// 1..=10, so for every priority the runtimes can produce this is just
/// the raw level less one; a hand-rolled out-of-range `Priority` is
/// classified by its clamped level.
#[inline]
fn class_of(p: Priority) -> usize {
    (p.level().clamp(1, 10) - 1) as usize
}

impl<T> PrioritizedQueue<T> {
    /// An empty queue under the given discipline.
    pub fn new(discipline: QueueDiscipline) -> Self {
        PrioritizedQueue { classes: Vec::new(), mask: 0, len: 0, next_seq: 0, discipline }
    }

    /// Highest non-empty class, if any (one `leading_zeros`).
    #[inline]
    fn top_class(&self) -> Option<usize> {
        (self.mask != 0).then(|| 15 - self.mask.leading_zeros() as usize)
    }

    /// Class whose head [`pop`](Self::pop) would return.
    #[inline]
    fn pop_class(&self) -> Option<usize> {
        match self.discipline {
            QueueDiscipline::Priority => self.top_class(),
            QueueDiscipline::Fifo => self.arrival().next().map(|(c, _, _)| c),
        }
    }

    /// Head of the non-empty class `c`.
    #[inline]
    fn head(&self, c: usize) -> (&T, Priority) {
        let e = self.classes[c].front().expect("a set bit names a non-empty class");
        (&e.item, e.priority)
    }

    /// Enqueue `item` waiting at `priority`. O(1) amortized.
    pub fn push(&mut self, item: T, priority: Priority) {
        if self.classes.is_empty() {
            self.classes.resize_with(CLASSES, VecDeque::new);
        }
        let c = class_of(priority);
        self.classes[c].push_back(Entry { seq: self.next_seq, priority, item });
        self.next_seq += 1;
        self.mask |= 1 << c;
        self.len += 1;
    }

    /// Dequeue the next waiter according to the discipline: under
    /// [`QueueDiscipline::Priority`], the earliest-arrived waiter of the
    /// highest waiting priority class; under [`QueueDiscipline::Fifo`],
    /// the earliest-arrived waiter outright. O(1).
    pub fn pop(&mut self) -> Option<T> {
        let c = self.pop_class()?;
        let e = self.classes[c].pop_front().expect("a set bit names a non-empty class");
        self.unmark_if_empty(c);
        self.len -= 1;
        Some(e.item)
    }

    /// The waiter [`pop`](Self::pop) would return, with its queued-at
    /// priority, without dequeuing it. O(1).
    pub fn peek(&self) -> Option<(&T, Priority)> {
        self.pop_class().map(|c| self.head(c))
    }

    /// The earliest-arrived waiter of the highest waiting priority class,
    /// with its priority, regardless of discipline. Priority inheritance
    /// reads the boost from it, and the background scan its requester.
    /// O(1).
    pub fn max_waiting(&self) -> Option<(&T, Priority)> {
        self.top_class().map(|c| self.head(c))
    }

    /// Remove the earliest-arrived waiter matching `pred` (e.g. a thread
    /// revoked while queued). Returns true if one was present.
    pub fn remove_where(&mut self, pred: impl FnMut(&T) -> bool) -> bool {
        let Some((c, i)) = self.find(pred) else {
            return false;
        };
        self.classes[c].remove(i);
        self.unmark_if_empty(c);
        self.len -= 1;
        true
    }

    /// Change the queued-at priority of an already-waiting item *in
    /// place*, preserving its arrival order. Priority inheritance must
    /// use this rather than remove + re-push: a re-push assigns a fresh
    /// arrival sequence, which silently demotes the boosted waiter
    /// behind later arrivals of the same priority class. Returns true
    /// if a matching waiter was found.
    pub fn reprioritize(&mut self, pred: impl FnMut(&T) -> bool, priority: Priority) -> bool {
        let Some((c, i)) = self.find(pred) else {
            return false;
        };
        let new = class_of(priority);
        if new == c {
            self.classes[c][i].priority = priority;
            return true;
        }
        let mut e = self.classes[c].remove(i).expect("found in its class");
        self.unmark_if_empty(c);
        e.priority = priority;
        let at = self.classes[new].partition_point(|x| x.seq < e.seq);
        self.classes[new].insert(at, e);
        self.mask |= 1 << new;
        true
    }

    /// Number of waiters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over queued items in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.iter_entries().map(|(t, _)| t)
    }

    /// Iterate over `(item, queued-at priority)` pairs in arrival order
    /// (invariant checking and state fingerprinting).
    pub fn iter_entries(&self) -> impl Iterator<Item = (&T, Priority)> {
        self.arrival().map(|(_, _, e)| (&e.item, e.priority))
    }

    /// Internal-consistency check: each class holds only its own
    /// priority; the class bitmap has a bit set exactly for the non-empty
    /// classes; and the arrival-order walk is strictly increasing, below
    /// the next sequence number, and visits `len` entries — which also
    /// puts each class in increasing sequence order, since the walk takes
    /// every class front to back. Allocates nothing.
    pub fn is_well_formed(&self) -> bool {
        if self.classes.is_empty() {
            return self.mask == 0 && self.len == 0;
        }
        if self.classes.len() != CLASSES || self.mask >> CLASSES != 0 {
            return false;
        }
        for (c, class) in self.classes.iter().enumerate() {
            let own = class.iter().all(|e| class_of(e.priority) == c);
            if !own || (self.mask & (1 << c) != 0) == class.is_empty() {
                return false;
            }
        }
        let mut walked = 0;
        let mut last = None;
        for (_, _, e) in self.arrival() {
            if e.seq >= self.next_seq || last.is_some_and(|s| e.seq <= s) {
                return false;
            }
            last = Some(e.seq);
            walked += 1;
        }
        walked == self.len
    }

    /// The queue in arrival order.
    fn arrival(&self) -> Arrival<'_, T> {
        Arrival { classes: &self.classes, pos: [0; CLASSES], live: self.mask }
    }

    /// Class and index of the earliest-arrived waiter matching `pred`.
    fn find(&self, mut pred: impl FnMut(&T) -> bool) -> Option<(usize, usize)> {
        self.arrival().find(|(_, _, e)| pred(&e.item)).map(|(c, i, _)| (c, i))
    }

    /// Clear class `c`'s bit once its last entry has left.
    fn unmark_if_empty(&mut self, c: usize) {
        if self.classes[c].is_empty() {
            self.mask &= !(1 << c);
        }
    }
}

/// Arrival-order walk over the classes: each step yields the unvisited
/// class head with the smallest sequence number, as `(class, index,
/// entry)`.
struct Arrival<'a, T> {
    classes: &'a [VecDeque<Entry<T>>],
    /// Next unvisited index of each class.
    pos: [usize; CLASSES],
    /// Bit `c` set ⇔ class `c` has unvisited entries.
    live: u16,
}

impl<'a, T> Iterator for Arrival<'a, T> {
    type Item = (usize, usize, &'a Entry<T>);

    fn next(&mut self) -> Option<Self::Item> {
        let mut best: Option<(usize, &'a Entry<T>)> = None;
        let mut bits = self.live;
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let e = &self.classes[c][self.pos[c]];
            if best.is_none_or(|(_, b)| e.seq < b.seq) {
                best = Some((c, e));
            }
        }
        let (c, e) = best?;
        let i = self.pos[c];
        self.pos[c] += 1;
        if self.pos[c] == self.classes[c].len() {
            self.live &= !(1 << c);
        }
        Some((c, i, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_discipline_pops_high_first() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push("low1", Priority::LOW);
        q.push("high1", Priority::HIGH);
        q.push("low2", Priority::LOW);
        q.push("high2", Priority::HIGH);
        assert_eq!(q.pop(), Some("high1"));
        assert_eq!(q.pop(), Some("high2"));
        assert_eq!(q.pop(), Some("low1"));
        assert_eq!(q.pop(), Some("low2"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_discipline_ignores_priority() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Fifo);
        q.push("low", Priority::LOW);
        q.push("high", Priority::HIGH);
        assert_eq!(q.pop(), Some("low"));
        assert_eq!(q.pop(), Some("high"));
    }

    #[test]
    fn next_priority_matches_pop_order() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push(1, Priority::LOW);
        assert_eq!(q.peek(), Some((&1, Priority::LOW)));
        q.push(2, Priority::HIGH);
        assert_eq!(q.peek(), Some((&2, Priority::HIGH)));
    }

    /// `peek` must describe the exact waiter `pop` returns — the
    /// FIFO-within-class head of the top class — not merely the maximum
    /// priority value.
    #[test]
    fn peek_names_the_exact_waiter_pop_returns() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push("h1", Priority::HIGH);
        q.push("h2", Priority::HIGH);
        q.push("l", Priority::LOW);
        assert_eq!(q.peek(), Some((&"h1", Priority::HIGH)));
        assert_eq!(q.pop(), Some("h1"), "peek and pop agree on the waiter");
        assert_eq!(q.peek(), Some((&"h2", Priority::HIGH)));
        q.pop();
        assert_eq!(q.peek(), Some((&"l", Priority::LOW)));
        // Under FIFO the announced waiter is the arrival head.
        let mut f = PrioritizedQueue::new(QueueDiscipline::Fifo);
        f.push("first", Priority::LOW);
        f.push("second", Priority::HIGH);
        assert_eq!(f.peek(), Some((&"first", Priority::LOW)));
        assert_eq!(f.pop(), Some("first"));
    }

    #[test]
    fn max_waiting_independent_of_discipline() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Fifo);
        q.push(1, Priority::LOW);
        q.push(2, Priority::MAX);
        q.push(3, Priority::NORM);
        q.push(4, Priority::MAX);
        assert_eq!(q.max_waiting(), Some((&2, Priority::MAX)));
        assert_eq!(q.peek(), Some((&1, Priority::LOW)));
    }

    #[test]
    fn remove_where_extracts_matching_waiter() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push(1, Priority::LOW);
        q.push(2, Priority::HIGH);
        assert!(q.remove_where(|&x| x == 2));
        assert!(!q.remove_where(|&x| x == 2));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn three_priority_classes_ordered() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push("n", Priority::NORM);
        q.push("l", Priority::MIN);
        q.push("h", Priority::MAX);
        assert_eq!(q.pop(), Some("h"));
        assert_eq!(q.pop(), Some("n"));
        assert_eq!(q.pop(), Some("l"));
    }

    #[test]
    fn reprioritize_preserves_arrival_order_within_class() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push("a", Priority::LOW);
        q.push("b", Priority::HIGH);
        q.push("c", Priority::HIGH);
        // Boost "a" to HIGH in place: it arrived first, so it must now
        // be served before both b and c. A remove + re-push would have
        // pushed it behind c.
        assert!(q.reprioritize(|&x| x == "a", Priority::HIGH));
        assert!(q.is_well_formed());
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), Some("c"));
        // Missing items report false without disturbing the queue.
        assert!(!q.reprioritize(|&x| x == "zzz", Priority::MAX));
    }

    #[test]
    fn reprioritize_splices_between_class_members() {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        q.push("h1", Priority::HIGH);
        q.push("mid", Priority::LOW);
        q.push("h2", Priority::HIGH);
        // Boost "mid" between h1 and h2 by arrival order.
        assert!(q.reprioritize(|&x| x == "mid", Priority::HIGH));
        assert!(q.is_well_formed());
        assert_eq!(q.pop(), Some("h1"));
        assert_eq!(q.pop(), Some("mid"));
        assert_eq!(q.pop(), Some("h2"));
        // And demotion out of a class keeps both lists consistent.
        q.push("x", Priority::HIGH);
        q.push("y", Priority::HIGH);
        assert!(q.reprioritize(|&x| x == "x", Priority::MIN));
        assert!(q.is_well_formed());
        assert_eq!(q.pop(), Some("y"));
        assert_eq!(q.pop(), Some("x"));
    }

    /// Every VM monitor holds two queues (entry and submissions) and
    /// every fat record of `revmon-locks` one. An inline array of the
    /// class `VecDeque`s makes a queue over 340 bytes, and that slowed the
    /// benchmark's `explore_bounded` `delegated_adders` item by ≈ 11 %;
    /// so the classes live behind one pointer, allocated by the first
    /// `push`.
    #[test]
    fn an_empty_queue_is_small_and_allocation_free() {
        use crate::priority::ThreadId;
        assert!(std::mem::size_of::<PrioritizedQueue<ThreadId>>() <= 48);
        let q: PrioritizedQueue<ThreadId> = PrioritizedQueue::default();
        assert_eq!(q.classes.capacity(), 0);
        assert!(q.is_well_formed());
        assert_eq!(q.iter().count(), 0);
    }

    /// Property test: over randomized interleavings of push / pop /
    /// reprioritize, same-priority waiters always come out in arrival
    /// order. Uses a deterministic LCG so failures are reproducible.
    #[test]
    fn fifo_within_class_holds_under_random_operations() {
        let mut rng: u64 = 0x9e3779b97f4a7c15;
        let mut next = |bound: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        for _round in 0..200 {
            let mut q: PrioritizedQueue<u64> = PrioritizedQueue::new(QueueDiscipline::Priority);
            // Model: per item, (priority, arrival stamp).
            let mut model: Vec<(u64, Priority, u64)> = Vec::new();
            let mut stamp = 0u64;
            let mut next_item = 0u64;
            for _op in 0..64 {
                match next(4) {
                    0 | 1 => {
                        let p = Priority::new(1 + next(3) as u8);
                        let item = next_item;
                        next_item += 1;
                        q.push(item, p);
                        model.push((item, p, stamp));
                        stamp += 1;
                    }
                    2 if !model.is_empty() => {
                        // Reprioritize a random queued item in place:
                        // priority changes, arrival stamp must not.
                        let i = next(model.len() as u64) as usize;
                        let p = Priority::new(1 + next(3) as u8);
                        let (item, _, s) = model[i];
                        assert!(q.reprioritize(|&x| x == item, p));
                        model[i] = (item, p, s);
                    }
                    _ => {
                        let expect = model
                            .iter()
                            .enumerate()
                            .max_by_key(|(_, &(_, p, s))| (p, std::cmp::Reverse(s)))
                            .map(|(i, _)| i);
                        let got = q.pop();
                        match expect {
                            Some(i) => {
                                let (item, _, _) = model.remove(i);
                                assert_eq!(got, Some(item), "pop violated FIFO-within-class");
                            }
                            None => assert_eq!(got, None),
                        }
                    }
                }
                assert!(q.is_well_formed());
            }
            // Drain: remaining items must come out priority-major,
            // arrival-minor.
            while let Some(got) = q.pop() {
                let i = model
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &(_, p, s))| (p, std::cmp::Reverse(s)))
                    .map(|(i, _)| i)
                    .expect("queue had more items than the model");
                let (item, _, _) = model.remove(i);
                assert_eq!(got, item, "drain violated FIFO-within-class");
            }
            assert!(model.is_empty());
        }
    }
}
