//! Global registry: the waits-for graph over OS threads, for deadlock
//! detection and victim revocation, and the list of every monitor's
//! counters.
//!
//! The graph holds one edge per queued thread: the monitor it waits on
//! and that monitor's holder — or, between a release and the grantee's
//! wake-up, its grantee. A monitor's edges change only under its fat
//! record's lock: a thread that queues adds its edge there
//! ([`on_block`], with the holder it read from the record), a grant
//! re-points the monitor's edges at the grantee ([`on_grant`]), and a
//! thread that leaves the queue removes its own ([`on_unblock`]). So
//! while a monitor is held or granted, every thread queued on it has an
//! edge to the holder or grantee, and the grantee has none on it.
//!
//! The registry keeps no copy of who holds what. The breaker and
//! [`wait_graph_snapshot`] read a cycle member's section on a monitor
//! from the member's own section stack ([`ThreadSlot::outermost_on`],
//! through the dense-id slot table), and rank it by the priority its
//! acquisition deposited ([`SectionCtx::priority`]).
//!
//! Thread ids are the runtime's dense per-thread ids
//! ([`ThreadSlot::dense`], the same nonzero ids packed into thin lock
//! words), used directly as graph [`ThreadId`]s.
//!
//! Lock order: **record ≺ graph ≺ slot table ≺ section stack**. No
//! registry lock is held while a record lock is taken, and victim
//! flagging touches only the victim's `SectionCtx` atomics and its
//! `Thread` handle (unpark).

use crate::obs;
use crate::stats::{MonitorStats, StatsSnapshot};
use crate::tx::{self, SectionCtx, ThreadSlot};
use parking_lot::Mutex;
use revmon_core::{MonitorId, Priority, ThreadId, Victim, WaitsForGraph};
use revmon_obs::{Event, EventKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Global deadlock counters (library-wide, since cycles span monitors).
pub static DEADLOCKS_DETECTED: AtomicU64 = AtomicU64::new(0);
/// Deadlocks broken by revoking a victim.
pub static DEADLOCKS_BROKEN: AtomicU64 = AtomicU64::new(0);

/// Whole-graph cycle detection plus the blocked-thread priority
/// annotations, which are only written on block/unblock anyway.
#[derive(Default)]
struct GraphState {
    graph: WaitsForGraph,
    /// `waiter_prios[dense - 1]`: declared priority level of a currently
    /// blocked thread, `0` = not blocked (dense ids are nonzero; levels
    /// are 1..=10).
    waiter_prios: Vec<u8>,
}

impl GraphState {
    fn set_waiting(&mut self, t: ThreadId, p: Priority) {
        let i = t.0 as usize - 1;
        if self.waiter_prios.len() <= i {
            self.waiter_prios.resize(i + 1, 0);
        }
        self.waiter_prios[i] = p.0;
    }

    fn clear_waiting(&mut self, t: ThreadId) {
        if let Some(slot) = self.waiter_prios.get_mut(t.0 as usize - 1) {
            *slot = 0;
        }
    }

    fn waiting_prio(&self, t: ThreadId) -> u8 {
        self.waiter_prios.get(t.0 as usize - 1).copied().unwrap_or(0)
    }
}

fn graph_state() -> &'static Mutex<GraphState> {
    static G: OnceLock<Mutex<GraphState>> = OnceLock::new();
    G.get_or_init(|| Mutex::new(GraphState::default()))
}

fn mid(monitor_id: u64) -> MonitorId {
    MonitorId(monitor_id as u32)
}

/// `thread`'s outermost live section on `monitor`, if it has one.
fn section_of(thread: ThreadId, monitor: MonitorId) -> Option<(Arc<ThreadSlot>, Arc<SectionCtx>)> {
    let slot = tx::slot_by_dense(thread.0)?;
    let ctx = slot.outermost_on(monitor.0 as u64)?;
    Some((slot, ctx))
}

/// Record, under `monitor_id`'s record lock, that ownership was granted
/// to the thread with dense id `grantee`: every edge on the monitor now
/// points at it, and its own edge there goes.
pub(crate) fn on_grant(monitor_id: u64, grantee: u32) {
    graph_state().lock().graph.retarget_monitor(mid(monitor_id), ThreadId(grantee));
}

/// Record, under `monitor_id`'s record lock, that `slot`'s thread (the
/// caller) queued on it behind `holder` — the owner or grantee the
/// record names; detect and break any deadlock cycle this closes.
/// Returns whether a victim was flagged (diagnostics).
pub(crate) fn on_block(
    monitor_id: u64,
    slot: &ThreadSlot,
    priority: Priority,
    holder: u32,
) -> bool {
    let me = ThreadId(slot.dense);
    debug_assert_ne!(me.0, holder, "a thread never queues behind itself");
    let mut g = graph_state().lock();
    g.set_waiting(me, priority);
    g.graph.add_wait(me, mid(monitor_id), ThreadId(holder));
    let Some(cycle) = g.graph.find_cycle_from(me) else {
        return false;
    };
    DEADLOCKS_DETECTED.fetch_add(1, Ordering::Relaxed);
    obs::emit(Event::NO_MONITOR, EventKind::DeadlockDetected { cycle_len: cycle.len() as u64 });
    // A member with no live section on the monitor its predecessor waits
    // for (a grantee not yet awake) is not a candidate.
    let victim = g.graph.choose_victim(&cycle, |v, monitor| {
        let (slot, ctx) = section_of(v, monitor)?;
        let revocable = ctx.revocable() && !ctx.revoke.load(Ordering::Acquire);
        revocable.then(|| (ctx.priority, (ctx, slot)))
    });
    let Some(Victim { monitor: victim_monitor, section: (ctx, victim), .. }) = victim else {
        return false; // unbreakable (all non-revocable): threads stay blocked
    };
    victim.signal_revoke(&ctx);
    DEADLOCKS_BROKEN.fetch_add(1, Ordering::Relaxed);
    obs::emit_for(victim.obs, victim_monitor.0 as u64, EventKind::DeadlockBroken);
    true
}

/// Monitors register their counters here so library-wide aggregates stay
/// available without keeping dropped monitors alive.
static STATS_REGISTRY: Mutex<Vec<Weak<MonitorStats>>> = Mutex::new(Vec::new());

/// Register a monitor's counters for [`aggregate_snapshot`].
pub(crate) fn register_stats(stats: &Arc<MonitorStats>) {
    STATS_REGISTRY.lock().push(Arc::downgrade(stats));
}

/// Sum of the counters of every live monitor in the process, plus the
/// library-wide deadlock-detected count (a global, since cycles span
/// monitors). Dropped monitors are pruned on the way through.
pub fn aggregate_snapshot() -> StatsSnapshot {
    let mut reg = STATS_REGISTRY.lock();
    reg.retain(|w| w.strong_count() > 0);
    let mut total = StatsSnapshot::default();
    for w in reg.iter() {
        if let Some(s) = w.upgrade() {
            total.merge(&s.reconciled_snapshot());
        }
    }
    total
}

/// Record, under the record lock of the monitor it was queued on, that
/// the calling thread stopped waiting (granted, or revoked out of the
/// queue).
pub(crate) fn on_unblock() {
    let me = ThreadId(tx::my_dense());
    let mut g = graph_state().lock();
    g.graph.remove_wait(me);
    g.clear_waiting(me);
}

/// A deterministic snapshot of the process-wide wait-for graph: every
/// thread→monitor→holder blocking edge, annotated with the waiter's
/// declared priority and the priority the holder's section on the
/// monitor deposited (0 while the holder is a grantee not yet awake).
///
/// Thread ids are the runtime's dense per-process ids (stable for a
/// thread's lifetime, and the same ids thin lock words carry in their
/// owner field); monitor ids are obs ids
/// ([`RevocableMonitor::obs_id`](crate::RevocableMonitor::obs_id)), so
/// [`crate::obs::monitor_names`] labels them. `governor_streak` is
/// always 0 in this runtime — its revocation governors are per-monitor
/// and not visible from the global registry.
///
/// This is the `revmon serve` live `/graph` payload; render with
/// [`GraphSnapshot::to_dot`](revmon_obs::GraphSnapshot::to_dot) or
/// [`to_json`](revmon_obs::GraphSnapshot::to_json).
pub fn wait_graph_snapshot() -> revmon_obs::GraphSnapshot {
    let g = graph_state().lock();
    let edges = g
        .graph
        .edges()
        .map(|e| revmon_obs::GraphEdge {
            waiter: e.waiter.0 as u64,
            waiter_priority: g.waiting_prio(e.waiter),
            monitor: e.monitor.0 as u64,
            holder: e.owner.0 as u64,
            holder_priority: section_of(e.owner, e.monitor).map_or(0, |(_, c)| c.priority.0),
            governor_streak: 0,
        })
        .collect();
    revmon_obs::GraphSnapshot::new(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RevocableMonitor;
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn waiter_prio_table_grows_and_clears() {
        let mut g = GraphState::default();
        g.set_waiting(ThreadId(5), Priority::HIGH);
        assert_eq!(g.waiting_prio(ThreadId(5)), Priority::HIGH.0);
        assert_eq!(g.waiting_prio(ThreadId(4)), 0);
        assert_eq!(g.waiting_prio(ThreadId(100)), 0, "beyond the table = not blocked");
        g.clear_waiting(ThreadId(5));
        assert_eq!(g.waiting_prio(ThreadId(5)), 0);
        g.clear_waiting(ThreadId(200)); // never-seen id: no-op, no growth
        assert!(g.waiter_prios.len() <= 5);
    }

    /// The handoff state: `w1` and `w2` queued on a monitor, its holder
    /// releases, and `w1` is granted it but has not woken. Every waiter
    /// must by then wait for the grantee, and the grantee for nothing
    /// there — a thread that queues next reads the record's grantee, so
    /// no queued thread is ever left without an edge. The grantee locks
    /// its own section stack before it takes the monitor; holding that
    /// lock keeps it in the window while the snapshot is read. A snapshot
    /// read after the window (another test took the graph lock in the
    /// meantime) finds the same edge: `w1` holds `m` until it is read.
    #[test]
    fn a_grant_points_every_waiter_at_the_grantee() {
        let m = &RevocableMonitor::new();
        thread::scope(|s| {
            // A thread that reports its slot, enters `m` when told, and
            // leaves it when told again.
            let waiter = || {
                let (slot, go) = (mpsc::channel(), mpsc::channel::<()>());
                s.spawn(move || {
                    slot.0.send(tx::my_slot()).unwrap();
                    go.1.recv().unwrap();
                    m.enter(Priority::NORM, |_| {
                        let _ = go.1.recv();
                    });
                });
                (slot.1.recv().unwrap(), go.0)
            };
            let ((w1, go1), (w2, go2)) = (waiter(), waiter());
            let mut w1_stack = None;
            m.enter(Priority::NORM, |_| {
                // `w1` queues first, so it is the one granted.
                for (n, go) in [(1, &go1), (2, &go2)] {
                    go.send(()).unwrap();
                    while m.stats().contended < n {
                        thread::yield_now();
                    }
                }
                w1_stack = Some(w1.sections.lock());
            });
            let snapshot = s.spawn(wait_graph_snapshot);
            // Let `w1` go once the snapshot holds the graph (or is done).
            while !snapshot.is_finished() && graph_state().try_lock().is_some() {
                thread::yield_now();
            }
            drop(w1_stack);
            let on_m: Vec<_> = snapshot
                .join()
                .unwrap()
                .edges
                .into_iter()
                .filter(|e| e.monitor == m.obs_id())
                .map(|e| (e.waiter, e.holder))
                .collect();
            assert_eq!(on_m, [(w2.dense as u64, w1.dense as u64)]);
            go1.send(()).unwrap();
            go2.send(()).unwrap();
        });
    }
}
