//! Property-based tests for the core data structures, checked against
//! straightforward reference models.

use proptest::prelude::*;
use revmon_core::{PrioritizedQueue, Priority, QueueDiscipline, ThreadId, UndoLog, WaitsForGraph};
use std::collections::HashMap;

// ---------------------------------------------------------------- UndoLog

proptest! {
    /// Rolling back to a mark restores exactly the suffix, newest first.
    #[test]
    fn undo_rollback_is_reverse_suffix(
        prefix in proptest::collection::vec(any::<u32>(), 0..50),
        suffix in proptest::collection::vec(any::<u32>(), 0..50),
    ) {
        let mut log = UndoLog::new();
        for &e in &prefix { log.push(e); }
        let mark = log.mark();
        for &e in &suffix { log.push(e); }
        let mut restored = Vec::new();
        log.rollback_to(mark, |e| restored.push(e));
        let mut expect = suffix.clone();
        expect.reverse();
        prop_assert_eq!(restored, expect);
        prop_assert_eq!(log.len(), prefix.len());
    }

    /// Applying logged old-values in reverse restores an array to its
    /// initial state no matter the write sequence — the paper's §3.1.2
    /// invariant.
    #[test]
    fn logged_writes_invert_exactly(
        initial in proptest::collection::vec(-100i64..100, 1..20),
        writes in proptest::collection::vec((0usize..20, -100i64..100), 0..200),
    ) {
        let mut state = initial.clone();
        let mut log = UndoLog::new();
        let mark = log.mark();
        for &(i, v) in &writes {
            let i = i % state.len();
            log.push((i, state[i])); // log the OLD value
            state[i] = v;
        }
        log.rollback_to(mark, |(i, old)| state[i] = old);
        prop_assert_eq!(state, initial);
    }

    /// Nested marks compose: rolling back inner then outer equals rolling
    /// back outer directly.
    #[test]
    fn nested_rollback_composes(
        a in proptest::collection::vec((0usize..8, -50i64..50), 0..40),
        b in proptest::collection::vec((0usize..8, -50i64..50), 0..40),
    ) {
        let initial = vec![0i64; 8];
        // Path 1: rollback inner then outer.
        let mut s1 = initial.clone();
        let mut l1 = UndoLog::new();
        let outer = l1.mark();
        for &(i, v) in &a { l1.push((i, s1[i])); s1[i] = v; }
        let inner = l1.mark();
        for &(i, v) in &b { l1.push((i, s1[i])); s1[i] = v; }
        l1.rollback_to(inner, |(i, old)| s1[i] = old);
        l1.rollback_to(outer, |(i, old)| s1[i] = old);
        // Path 2: rollback outer directly.
        let mut s2 = initial.clone();
        let mut l2 = UndoLog::new();
        let outer2 = l2.mark();
        for &(i, v) in &a { l2.push((i, s2[i])); s2[i] = v; }
        for &(i, v) in &b { l2.push((i, s2[i])); s2[i] = v; }
        l2.rollback_to(outer2, |(i, old)| s2[i] = old);
        prop_assert_eq!(&s1, &initial);
        prop_assert_eq!(&s2, &initial);
    }
}

// ---------------------------------------------------- PrioritizedQueue

proptest! {
    /// Under the priority discipline, pops are sorted by (priority desc,
    /// arrival asc).
    #[test]
    fn priority_queue_pop_order(
        items in proptest::collection::vec(1u8..=10, 1..60),
    ) {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        for (i, &p) in items.iter().enumerate() {
            q.push(i, Priority::new(p));
        }
        let mut popped = Vec::new();
        while let Some(x) = q.pop() { popped.push(x); }
        // reference: stable sort by priority desc
        let mut expect: Vec<usize> = (0..items.len()).collect();
        expect.sort_by_key(|&i| std::cmp::Reverse(items[i]));
        // stable sort keeps arrival order within a class
        prop_assert_eq!(popped, expect);
    }

    /// FIFO discipline ignores priorities entirely.
    #[test]
    fn fifo_queue_pop_order(items in proptest::collection::vec(1u8..=10, 0..40)) {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Fifo);
        for (i, &p) in items.iter().enumerate() {
            q.push(i, Priority::new(p));
        }
        let mut popped = Vec::new();
        while let Some(x) = q.pop() { popped.push(x); }
        let expect: Vec<usize> = (0..items.len()).collect();
        prop_assert_eq!(popped, expect);
    }

    /// peek always names the waiter, and its priority, that pop delivers.
    #[test]
    fn next_priority_matches_pop(
        items in proptest::collection::vec(1u8..=10, 1..40),
    ) {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        for (i, &p) in items.iter().enumerate() {
            q.push(i, Priority::new(p));
        }
        while !q.is_empty() {
            let (&announced, priority) = q.peek().unwrap();
            let popped = q.pop().unwrap();
            prop_assert_eq!(announced, popped);
            prop_assert_eq!(priority, Priority::new(items[popped]));
        }
    }
}

// ---------------------------------------------------- WaitsForGraph

/// Reference cycle detector: brute-force walk from every node.
fn has_cycle_reference(edges: &HashMap<u32, u32>) -> bool {
    for &start in edges.keys() {
        let mut seen = vec![start];
        let mut cur = start;
        while let Some(&next) = edges.get(&cur) {
            if seen.contains(&next) {
                return true;
            }
            seen.push(next);
            cur = next;
        }
    }
    false
}

proptest! {
    /// Graph cycle detection agrees with the brute-force reference on
    /// random functional graphs (each waiter has one outgoing edge).
    #[test]
    fn cycle_detection_matches_reference(
        raw_edges in proptest::collection::vec((0u32..12, 0u32..12), 0..12),
    ) {
        let mut g = WaitsForGraph::new();
        let mut edges: HashMap<u32, u32> = HashMap::new();
        for &(w, o) in &raw_edges {
            if w == o { continue; } // a thread cannot wait on itself here
            edges.insert(w, o);
            g.add_wait(ThreadId(w), revmon_core::MonitorId(w), ThreadId(o));
        }
        let expect = has_cycle_reference(&edges);
        prop_assert_eq!(g.find_any_cycle().is_some(), expect);
    }

    /// Every reported cycle is a real cycle: following edges from any
    /// member returns to it.
    #[test]
    fn reported_cycles_are_genuine(
        raw_edges in proptest::collection::vec((0u32..10, 0u32..10), 0..10),
    ) {
        let mut g = WaitsForGraph::new();
        let mut edges: HashMap<u32, u32> = HashMap::new();
        for &(w, o) in &raw_edges {
            if w == o { continue; }
            edges.insert(w, o);
            g.add_wait(ThreadId(w), revmon_core::MonitorId(w), ThreadId(o));
        }
        if let Some(cycle) = g.find_any_cycle() {
            prop_assert!(cycle.len() >= 2);
            // each member's edge points at the next member (cyclically)
            for (i, &t) in cycle.iter().enumerate() {
                let next = cycle[(i + 1) % cycle.len()];
                prop_assert_eq!(edges.get(&t.0).copied(), Some(next.0));
            }
        }
    }
}

proptest! {
    /// The deadlock victim is the minimum of (priority, youngest first)
    /// over the members whose holder lookup succeeds, each asked about
    /// the monitor its predecessor waits for — on random rings entered
    /// through a random tail, with random priorities and revocability.
    #[test]
    fn victim_matches_reference_rule(
        members in proptest::collection::vec((1u8..=10, any::<bool>()), 2..8),
        tail in 0u32..3,
        rotate in 0usize..8,
    ) {
        // Thread t holds monitor t and waits on its successor's; `rotate`
        // picks the member the walk enters the ring at, so cycle order
        // and id order differ. Tail threads chain into the ring and are
        // never asked about.
        let n = members.len() as u32;
        let id = |i: u32| ThreadId((i + rotate as u32) % n);
        let mut g = WaitsForGraph::new();
        for i in 0..n {
            let next = id((i + 1) % n);
            g.add_wait(id(i), revmon_core::MonitorId(next.0), next);
        }
        for k in 0..tail {
            let owner = if k == 0 { id(0) } else { ThreadId(100 + k - 1) };
            g.add_wait(ThreadId(100 + k), revmon_core::MonitorId(owner.0), owner);
        }
        let start = if tail > 0 { ThreadId(100 + tail - 1) } else { id(0) };
        let cycle = g.find_cycle_from(start).expect("ring");
        prop_assert_eq!(cycle.len(), members.len());

        let victim = g.choose_victim(&cycle, |t, m| {
            assert_eq!(m.0, t.0, "asked about a monitor the member does not hold");
            let (level, revocable) = members[t.0 as usize];
            revocable.then_some((Priority::new(level), t.0 + 1000))
        });
        let expect = (0..n)
            .filter(|&t| members[t as usize].1)
            .min_by_key(|&t| (members[t as usize].0, std::cmp::Reverse(t)));
        prop_assert_eq!(victim.map(|v| v.thread.0), expect);
        if let Some(v) = victim {
            prop_assert_eq!(v.monitor.0, v.thread.0);
            prop_assert_eq!(v.section, v.thread.0 + 1000);
        }
    }
}

// ---------------------------------------------------- statistics helpers

proptest! {
    /// CI half-width is nonnegative and zero for constant samples.
    #[test]
    fn ci_halfwidth_sane(xs in proptest::collection::vec(-1e6f64..1e6, 2..30)) {
        let hw = revmon_core::metrics::ci90_half_width(&xs);
        prop_assert!(hw >= 0.0);
    }

    /// Mean lies within [min, max].
    #[test]
    fn mean_bounded(xs in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let m = revmon_core::metrics::mean(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }
}
