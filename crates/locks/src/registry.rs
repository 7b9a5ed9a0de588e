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
//! The registry keeps no copy of who holds what, nor of who waits at
//! which priority. The breaker and [`wait_graph_snapshot`] read a cycle
//! member's section on a monitor from the member's own section stack
//! ([`ThreadSlot::outermost_on`], through the dense-id slot table), and
//! rank it by the priority its acquisition deposited
//! ([`SectionCtx::priority`]); the snapshot reads the level a waiter
//! queued at from its slot ([`ThreadSlot::blocked_at`], stored by
//! [`on_block`] and cleared by [`on_unblock`] under the graph lock).
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

/// The process-wide waits-for graph.
fn graph() -> &'static Mutex<WaitsForGraph> {
    static G: OnceLock<Mutex<WaitsForGraph>> = OnceLock::new();
    G.get_or_init(|| Mutex::new(WaitsForGraph::new()))
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
    graph().lock().retarget_monitor(mid(monitor_id), ThreadId(grantee));
}

/// Record, under `monitor_id`'s record lock, that `slot`'s thread (the
/// caller) queued on it at `priority` behind `holder` — the owner or
/// grantee the record names; detect and break any deadlock cycle this
/// closes. Returns whether a victim was flagged (diagnostics).
pub(crate) fn on_block(
    monitor_id: u64,
    slot: &ThreadSlot,
    priority: Priority,
    holder: u32,
) -> bool {
    let me = ThreadId(slot.dense);
    debug_assert_ne!(me.0, holder, "a thread never queues behind itself");
    let mut g = graph().lock();
    slot.blocked_at.store(priority.0, Ordering::Relaxed);
    g.add_wait(me, mid(monitor_id), ThreadId(holder));
    let Some(cycle) = g.find_cycle_from(me) else {
        return false;
    };
    DEADLOCKS_DETECTED.fetch_add(1, Ordering::Relaxed);
    obs::emit(Event::NO_MONITOR, EventKind::DeadlockDetected { cycle_len: cycle.len() as u64 });
    // A member with no live section on the monitor its predecessor waits
    // for (a grantee not yet awake) is not a candidate.
    let victim = g.choose_victim(&cycle, |v, monitor| {
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
/// `slot`'s thread (the caller) stopped waiting (granted, or revoked out
/// of the queue).
pub(crate) fn on_unblock(slot: &ThreadSlot) {
    let mut g = graph().lock();
    g.remove_wait(ThreadId(slot.dense));
    slot.blocked_at.store(0, Ordering::Relaxed);
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
    let g = graph().lock();
    let edges = g
        .edges()
        .map(|e| revmon_obs::GraphEdge {
            waiter: e.waiter.0 as u64,
            waiter_priority: tx::slot_by_dense(e.waiter.0)
                .map_or(0, |w| w.blocked_at.load(Ordering::Relaxed)),
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

    /// `m`'s edges in `snapshot`: waiter, the level it queued at, holder.
    fn edges_on(m: &RevocableMonitor, snapshot: revmon_obs::GraphSnapshot) -> Vec<(u64, u8, u64)> {
        let on_m = snapshot.edges.into_iter().filter(|e| e.monitor == m.obs_id());
        on_m.map(|e| (e.waiter, e.waiter_priority, e.holder)).collect()
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
    /// Each edge carries the level its waiter queued at, and once the
    /// last waiter has taken the monitor none is left.
    #[test]
    fn a_grant_points_every_waiter_at_the_grantee() {
        let m = &RevocableMonitor::new();
        thread::scope(|s| {
            // A thread that reports its slot, enters `m` at `priority`
            // when told, and leaves it when told again.
            let waiter = |priority| {
                let (slot, go) = (mpsc::channel(), mpsc::channel::<()>());
                s.spawn(move || {
                    slot.0.send(tx::my_slot()).unwrap();
                    go.1.recv().unwrap();
                    m.enter(priority, |_| {
                        let _ = go.1.recv();
                    });
                });
                (slot.1.recv().unwrap(), go.0)
            };
            let ((w1, go1), (w2, go2)) = (waiter(Priority::HIGH), waiter(Priority::LOW));
            let (w1_id, w2_id, me) = (w1.dense as u64, w2.dense as u64, tx::my_dense() as u64);
            let mut w1_stack = None;
            // Entered above both waiters, so neither asks for a revocation.
            m.enter(Priority::MAX, |_| {
                // `w1` queues first and higher, so it is the one granted.
                for (n, go) in [(1, &go1), (2, &go2)] {
                    go.send(()).unwrap();
                    while edges_on(m, wait_graph_snapshot()).len() < n {
                        thread::yield_now();
                    }
                }
                let (high, low) = (Priority::HIGH.0, Priority::LOW.0);
                let queued = edges_on(m, wait_graph_snapshot());
                assert_eq!(queued, [(w1_id, high, me), (w2_id, low, me)]);
                w1_stack = Some(w1.sections.lock());
            });
            let snapshot = s.spawn(wait_graph_snapshot);
            // Let `w1` go once the snapshot holds the graph (or is done).
            while !snapshot.is_finished() && graph().try_lock().is_some() {
                thread::yield_now();
            }
            drop(w1_stack);
            let handed = edges_on(m, snapshot.join().unwrap());
            assert_eq!(handed, [(w2_id, Priority::LOW.0, w1_id)]);
            go1.send(()).unwrap();
            go2.send(()).unwrap();
        });
        assert_eq!(edges_on(m, wait_graph_snapshot()), [], "the last waiter took the monitor");
    }
}
