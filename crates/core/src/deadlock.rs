//! Waits-for graph: deadlock detection and victim selection.
//!
//! §1.1: *"the same technique can also be used to detect and resolve
//! deadlock. […] Using our techniques, such deadlocks can be detected and
//! resolved automatically, permitting the application to make progress."*
//!
//! The graph records, for each blocked thread, the monitor it waits on and
//! that monitor's owner. A cycle in the thread→thread relation is a
//! deadlock. Resolution revokes a *victim*
//! ([`WaitsForGraph::choose_victim`], the one rule both runtimes run):
//! the lowest-priority thread in the cycle (ties broken by highest thread
//! id, i.e. youngest) among those holding a revocable section on the
//! monitor their predecessor in the cycle waits for. The paper notes that
//! repeated revocation can livelock; callers guard against that by
//! bounding revocations (`max_consecutive_revocations`, the governor).

use crate::priority::{MonitorId, Priority, ThreadId};
use std::collections::HashMap;

/// One waits-for edge: `waiter` is blocked acquiring `monitor`, currently
/// owned by `owner`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// The blocked thread.
    pub waiter: ThreadId,
    /// The monitor it is trying to acquire.
    pub monitor: MonitorId,
    /// The thread currently holding `monitor`.
    pub owner: ThreadId,
}

/// A deadlock victim: which thread to revoke, and which of its sections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim<H> {
    /// Thread chosen for revocation.
    pub thread: ThreadId,
    /// The monitor `thread` holds that its predecessor in the cycle waits
    /// for; revoking `thread`'s section on it breaks the cycle.
    pub monitor: MonitorId,
    /// What the runtime's holder lookup returned for that section — its
    /// handle for flagging the revocation.
    pub section: H,
}

/// Waits-for graph over blocked threads.
///
/// ```
/// use revmon_core::{MonitorId, ThreadId, WaitsForGraph};
///
/// let mut g = WaitsForGraph::new();
/// g.add_wait(ThreadId(1), MonitorId(2), ThreadId(2)); // T1 waits on T2
/// g.add_wait(ThreadId(2), MonitorId(1), ThreadId(1)); // T2 waits on T1
/// let cycle = g.find_any_cycle().expect("deadlock");
/// assert_eq!(cycle.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct WaitsForGraph {
    /// waiter -> (monitor, owner)
    edges: HashMap<ThreadId, (MonitorId, ThreadId)>,
}

impl WaitsForGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `waiter` blocked acquiring `monitor` held by `owner`.
    /// A thread can wait on at most one monitor, so this replaces any
    /// previous edge for `waiter`.
    pub fn add_wait(&mut self, waiter: ThreadId, monitor: MonitorId, owner: ThreadId) {
        self.edges.insert(waiter, (monitor, owner));
    }

    /// Remove `waiter`'s edge (it acquired the monitor, was revoked, or
    /// stopped waiting).
    pub fn remove_wait(&mut self, waiter: ThreadId) {
        self.edges.remove(&waiter);
    }

    /// Current number of blocked threads.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no thread is blocked.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The monitor `waiter` is blocked on, if any.
    pub fn waiting_on(&self, waiter: ThreadId) -> Option<MonitorId> {
        self.edges.get(&waiter).map(|&(m, _)| m)
    }

    /// The full edge for `waiter`, if blocked.
    pub fn edge_of(&self, waiter: ThreadId) -> Option<Edge> {
        self.edges.get(&waiter).map(|&(monitor, owner)| Edge { waiter, monitor, owner })
    }

    /// Every blocking edge, in unspecified order (observability
    /// snapshots sort on their side).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().map(|(&waiter, &(monitor, owner))| Edge { waiter, monitor, owner })
    }

    /// Re-point every edge on `monitor` at a new owner — called when
    /// monitor ownership transfers while other threads stay queued, so
    /// cycle detection never follows a stale owner.
    pub fn retarget_monitor(&mut self, monitor: MonitorId, new_owner: ThreadId) {
        for (waiter, (m, owner)) in self.edges.iter_mut() {
            if *m == monitor && *waiter != new_owner {
                *owner = new_owner;
            }
        }
        // The new owner itself no longer waits on this monitor.
        if self.edges.get(&new_owner).map(|&(m, _)| m) == Some(monitor) {
            self.edges.remove(&new_owner);
        }
    }

    /// Find the cycle (if any) reachable from `start` by following
    /// waiter→owner edges. Returns the threads in the cycle, in order.
    ///
    /// Since each thread has at most one outgoing edge the walk is a
    /// simple chase: O(n) with a visited set.
    pub fn find_cycle_from(&self, start: ThreadId) -> Option<Vec<ThreadId>> {
        let mut path: Vec<ThreadId> = Vec::new();
        let mut cur = start;
        loop {
            if let Some(pos) = path.iter().position(|&t| t == cur) {
                return Some(path[pos..].to_vec());
            }
            path.push(cur);
            match self.edges.get(&cur) {
                Some(&(_, owner)) => cur = owner,
                None => return None, // chain ends at a runnable thread
            }
        }
    }

    /// Detect any deadlock cycle in the whole graph.
    pub fn find_any_cycle(&self) -> Option<Vec<ThreadId>> {
        let mut keys: Vec<ThreadId> = self.edges.keys().copied().collect();
        keys.sort_unstable(); // deterministic iteration
        for &t in &keys {
            if let Some(c) = self.find_cycle_from(t) {
                return Some(c);
            }
        }
        None
    }

    /// Choose a victim for a detected cycle: the lowest-priority member
    /// (ties broken by the *highest* thread id — the youngest thread has
    /// done the least work) among those holding a revocable section on
    /// the monitor their predecessor in the cycle waits for.
    ///
    /// `holder(thread, monitor)` is the runtime's lookup: `Some` with the
    /// holder's priority and a section handle when `thread` holds a
    /// section on `monitor` that can still be revoked, `None` otherwise.
    /// Returns `None` if no member qualifies — the deadlock cannot be
    /// broken (all sections non-revocable), matching the paper's fallback
    /// to unresolvable cases.
    pub fn choose_victim<H>(
        &self,
        cycle: &[ThreadId],
        mut holder: impl FnMut(ThreadId, MonitorId) -> Option<(Priority, H)>,
    ) -> Option<Victim<H>> {
        let mut best: Option<(Priority, Victim<H>)> = None;
        for &thread in cycle {
            // predecessor = the cycle member whose edge points at `thread`
            let Some(pred) =
                cycle.iter().filter_map(|&p| self.edge_of(p)).find(|e| e.owner == thread)
            else {
                continue;
            };
            let Some((priority, section)) = holder(thread, pred.monitor) else { continue };
            let better = best.as_ref().is_none_or(|(best_priority, b)| {
                priority < *best_priority || (priority == *best_priority && thread > b.thread)
            });
            if better {
                best = Some((priority, Victim { thread, monitor: pred.monitor, section }));
            }
        }
        best.map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId(i)
    }
    fn m(i: u32) -> MonitorId {
        MonitorId(i)
    }

    #[test]
    fn two_thread_cycle_detected() {
        // T1 holds M1 waits M2; T2 holds M2 waits M1.
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(2), t(2));
        g.add_wait(t(2), m(1), t(1));
        let c = g.find_cycle_from(t(1)).expect("cycle");
        assert_eq!(c.len(), 2);
        assert!(c.contains(&t(1)) && c.contains(&t(2)));
    }

    #[test]
    fn chain_without_cycle_is_clean() {
        // T1 waits on T2; T2 runnable.
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(9), t(2));
        assert!(g.find_cycle_from(t(1)).is_none());
        assert!(g.find_any_cycle().is_none());
    }

    #[test]
    fn three_thread_cycle_detected_from_any_entry() {
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(2), t(2));
        g.add_wait(t(2), m(3), t(3));
        g.add_wait(t(3), m(1), t(1));
        for start in [1, 2, 3] {
            let c = g.find_cycle_from(t(start)).expect("cycle");
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn tail_leading_into_cycle_excluded_from_cycle() {
        // T0 -> T1 -> T2 -> T1 : cycle is {T1, T2}.
        let mut g = WaitsForGraph::new();
        g.add_wait(t(0), m(1), t(1));
        g.add_wait(t(1), m(2), t(2));
        g.add_wait(t(2), m(3), t(1));
        let c = g.find_cycle_from(t(0)).expect("cycle");
        assert_eq!(c.len(), 2);
        assert!(!c.contains(&t(0)));
    }

    /// T1 holds M1 and waits on M2; T2 holds M2 and waits on M1.
    fn two_cycle() -> (WaitsForGraph, Vec<ThreadId>) {
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(2), t(2));
        g.add_wait(t(2), m(1), t(1));
        let cycle = g.find_any_cycle().unwrap();
        (g, cycle)
    }

    #[test]
    fn victim_is_lowest_priority_revocable() {
        let (g, cycle) = two_cycle();
        let v = g
            .choose_victim(&cycle, |th, mon| {
                Some((if th == t(1) { Priority::HIGH } else { Priority::LOW }, mon.0 * 10))
            })
            .unwrap();
        assert_eq!(v.thread, t(2));
        // T2's predecessor T1 waits on M2: that is the section to revoke,
        // and the handle the lookup returned for it rides along.
        assert_eq!(v.monitor, m(2));
        assert_eq!(v.section, 20);
    }

    #[test]
    fn victim_skips_non_revocable_members() {
        let (g, cycle) = two_cycle();
        let v =
            g.choose_victim(&cycle, |th, _| (th == t(1)).then_some((Priority::LOW, ()))).unwrap();
        assert_eq!(v.thread, t(1));
        assert_eq!(v.monitor, m(1));
    }

    #[test]
    fn no_victim_when_all_non_revocable() {
        let (g, cycle) = two_cycle();
        assert!(g.choose_victim(&cycle, |_, _| None::<(Priority, ())>).is_none());
    }

    #[test]
    fn equal_priority_tie_breaks_to_youngest() {
        let (g, cycle) = two_cycle();
        let v = g.choose_victim(&cycle, |_, _| Some((Priority::NORM, ()))).unwrap();
        assert_eq!(v.thread, t(2));
    }

    #[test]
    fn holder_is_asked_about_the_monitor_the_predecessor_waits_for() {
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(2), t(2));
        g.add_wait(t(2), m(3), t(3));
        g.add_wait(t(3), m(1), t(1));
        let cycle = g.find_cycle_from(t(1)).unwrap();
        let mut asked = Vec::new();
        g.choose_victim(&cycle, |th, mon| {
            asked.push((th, mon));
            None::<(Priority, ())>
        });
        asked.sort();
        assert_eq!(asked, [(t(1), m(1)), (t(2), m(2)), (t(3), m(3))]);
    }

    #[test]
    fn retarget_monitor_follows_ownership_transfer() {
        let mut g = WaitsForGraph::new();
        // T1 and T2 wait on M5 owned by T3.
        g.add_wait(t(1), m(5), t(3));
        g.add_wait(t(2), m(5), t(3));
        // T3 releases; M5 transfers to T1.
        g.retarget_monitor(m(5), t(1));
        // T1 no longer waits; T2 now waits on T1.
        assert_eq!(g.waiting_on(t(1)), None);
        assert_eq!(g.edge_of(t(2)).unwrap().owner, t(1));
        // A fresh cycle through the new owner is detectable.
        g.add_wait(t(1), m(9), t(2));
        assert!(g.find_cycle_from(t(1)).is_some());
    }

    #[test]
    fn retarget_leaves_other_monitors_alone() {
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(5), t(3));
        g.add_wait(t(2), m(6), t(3));
        g.retarget_monitor(m(5), t(7));
        assert_eq!(g.edge_of(t(1)).unwrap().owner, t(7));
        assert_eq!(g.edge_of(t(2)).unwrap().owner, t(3), "edge on m6 untouched");
    }

    #[test]
    fn remove_wait_clears_edge() {
        let mut g = WaitsForGraph::new();
        g.add_wait(t(1), m(2), t(2));
        assert_eq!(g.waiting_on(t(1)), Some(m(2)));
        g.remove_wait(t(1));
        assert!(g.is_empty());
        assert_eq!(g.waiting_on(t(1)), None);
    }
}
