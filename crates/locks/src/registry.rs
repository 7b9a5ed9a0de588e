//! Global registry: waits-for graph over OS threads for deadlock
//! detection and victim revocation.
//!
//! The registry is consulted only on the slow paths (blocking,
//! acquisition handoff) and never while a monitor's own state lock is
//! held, which gives a simple global lock order (monitor state ≺
//! registry) and keeps the fast path lock-free of global state.
//!
//! # Sharding
//!
//! At millions of monitors the old single `Mutex<Registry>` serialized
//! every slow path in the process. The registry is now split:
//!
//! * **thread ids** — the runtime's dense per-thread ids
//!   ([`ThreadSlot::dense`], the same nonzero ids packed into thin lock
//!   words) are used directly as graph [`ThreadId`]s, so the old
//!   `ThreadId → dense` `HashMap` (and its lock traffic on every call)
//!   is gone entirely;
//! * **holders** — the monitor → holder map is sharded
//!   [`HOLDER_SHARDS`]-ways by monitor id, so acquisitions and releases
//!   of unrelated monitors never contend;
//! * **graph** — the waits-for graph and the blocked-thread priority
//!   annotations (a dense `Vec` indexed by thread id) stay under one
//!   leaf mutex: cycle detection is inherently whole-graph, and only
//!   *blocking* paths touch it.
//!
//! Lock order: **graph ≺ holder shard** — `on_block` and the snapshot
//! walk shards while holding the graph lock; writers that touch both
//! (`on_acquire`) release the shard before taking the graph.
//!
//! Victim flagging touches only the victim's `SectionCtx` atomics and its
//! `Thread` handle (unpark), so the breaker never needs another monitor's
//! state lock.

use crate::obs;
use crate::stats::{MonitorStats, StatsSnapshot};
use crate::tx::{self, SectionCtx, ThreadSlot};
use parking_lot::Mutex;
use revmon_core::{MonitorId, Priority, ThreadId, Victim, WaitsForGraph};
use revmon_obs::{Event, EventKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Global deadlock counters (library-wide, since cycles span monitors).
pub static DEADLOCKS_DETECTED: AtomicU64 = AtomicU64::new(0);
/// Deadlocks broken by revoking a victim.
pub static DEADLOCKS_BROKEN: AtomicU64 = AtomicU64::new(0);

/// Holder-map shards (power of two).
const HOLDER_SHARDS: usize = 16;

struct HolderInfo {
    thread: ThreadId,
    /// The holder's runtime slot: park handle, observability id, and the
    /// cached revocation flag the breaker raises alongside the section's.
    slot: Arc<ThreadSlot>,
    priority: Priority,
    /// Outermost section of the holder on this monitor — the revocation
    /// target for deadlock breaking.
    ctx: Arc<SectionCtx>,
}

/// The graph half: whole-graph cycle detection plus the blocked-thread
/// priority annotations, which are only written on block/unblock anyway.
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

/// One shard of the holder map: monitor id → current outermost holder.
type HolderShard = Mutex<HashMap<u64, HolderInfo>>;

fn holder_shard(monitor_id: u64) -> &'static HolderShard {
    static SHARDS: OnceLock<Box<[HolderShard]>> = OnceLock::new();
    let shards =
        SHARDS.get_or_init(|| (0..HOLDER_SHARDS).map(|_| Mutex::new(HashMap::new())).collect());
    &shards[monitor_id as usize & (HOLDER_SHARDS - 1)]
}

fn mid(monitor_id: u64) -> MonitorId {
    MonitorId(monitor_id as u32)
}

/// Record that `slot`'s thread took ownership of `monitor_id`
/// (outermost acquisition only), and re-point stale waiter edges.
pub(crate) fn on_acquire(
    monitor_id: u64,
    slot: Arc<ThreadSlot>,
    priority: Priority,
    ctx: Arc<SectionCtx>,
) {
    let me = ThreadId(slot.dense);
    holder_shard(monitor_id)
        .lock()
        .insert(monitor_id, HolderInfo { thread: me, slot, priority, ctx });
    // Shard guard dropped before the graph lock (order: graph ≺ shard).
    // A concurrent `on_block` that reads the new holder in between
    // records the correct edge already; the retarget is idempotent.
    graph_state().lock().graph.retarget_monitor(mid(monitor_id), me);
}

/// Record full release of `monitor_id` by the calling thread. The owner
/// guard closes a race with the next acquirer: the releaser reports here
/// after dropping the monitor's state lock, by which time a successor
/// may already have registered — removing unconditionally would erase
/// the successor's entry.
pub(crate) fn on_release(monitor_id: u64) {
    let me = ThreadId(tx::my_dense());
    let mut shard = holder_shard(monitor_id).lock();
    if shard.get(&monitor_id).is_some_and(|h| h.thread == me) {
        shard.remove(&monitor_id);
    }
}

/// Record that `slot`'s thread (the caller) blocked on `monitor_id`;
/// detect and break any deadlock cycle this closes. Returns whether a
/// victim was flagged (diagnostics).
pub(crate) fn on_block(monitor_id: u64, slot: &Arc<ThreadSlot>, priority: Priority) -> bool {
    let me = ThreadId(slot.dense);
    let mut g = graph_state().lock();
    g.set_waiting(me, priority);
    let owner = holder_shard(monitor_id).lock().get(&monitor_id).map(|h| h.thread);
    let Some(owner) = owner else {
        // Monitor between owners (grant in flight): no edge to record;
        // the next on_acquire will retarget if we are still queued.
        return false;
    };
    if owner == me {
        return false;
    }
    g.graph.add_wait(me, mid(monitor_id), owner);
    let Some(cycle) = g.graph.find_cycle_from(me) else {
        return false;
    };
    DEADLOCKS_DETECTED.fetch_add(1, Ordering::Relaxed);
    obs::emit(Event::NO_MONITOR, EventKind::DeadlockDetected { cycle_len: cycle.len() as u64 });
    // The flagging handles are cloned during the scan: holder shards are
    // not pinned by the graph lock, so the chosen entry must not be
    // re-fetched after the scan.
    let victim = g.graph.choose_victim(&cycle, |v, monitor| {
        let held_monitor = monitor.0 as u64;
        let shard = holder_shard(held_monitor).lock();
        let h = shard.get(&held_monitor)?;
        let revocable = h.thread == v && h.ctx.revocable() && !h.ctx.revoke.load(Ordering::Acquire);
        revocable.then(|| (h.priority, (Arc::clone(&h.ctx), Arc::clone(&h.slot))))
    });
    let Some(Victim { monitor: victim_monitor, section: (ctx, victim), .. }) = victim else {
        return false; // unbreakable (all non-revocable): threads stay blocked
    };
    // Section flag before the cached thread flag (both Release): the
    // victim's slow poll consumes the cached flag and then scans, so
    // this order guarantees the scan sees the flagged section.
    ctx.revoke.store(true, Ordering::Release);
    victim.pending_revoke.store(true, Ordering::Release);
    victim.handle.unpark();
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

/// Record that the calling thread stopped waiting (granted, or revoked
/// out of the queue).
pub(crate) fn on_unblock() {
    let me = ThreadId(tx::my_dense());
    let mut g = graph_state().lock();
    g.graph.remove_wait(me);
    g.clear_waiting(me);
}

/// A deterministic snapshot of the process-wide wait-for graph: every
/// thread→monitor→holder blocking edge, annotated with the waiter's
/// declared priority and the holder's deposited priority.
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
    // Holder priorities come from the shards (graph ≺ shard: safe to
    // walk them here). The snapshot is best-effort consistent, as before
    // — edges and holder entries move on their own locks.
    let mut holder_prio: HashMap<ThreadId, u8> = HashMap::new();
    for shard_id in 0..HOLDER_SHARDS as u64 {
        for h in holder_shard(shard_id).lock().values() {
            holder_prio.insert(h.thread, h.priority.0);
        }
    }
    let edges = g
        .graph
        .edges()
        .map(|e| revmon_obs::GraphEdge {
            waiter: e.waiter.0 as u64,
            waiter_priority: g.waiting_prio(e.waiter),
            monitor: e.monitor.0 as u64,
            holder: e.owner.0 as u64,
            holder_priority: holder_prio.get(&e.owner).copied().unwrap_or(0),
            governor_streak: 0,
        })
        .collect();
    revmon_obs::GraphSnapshot::new(edges)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn holder_shards_cover_all_monitor_ids() {
        // Distinct shards for ids in distinct residue classes; stable
        // routing for the same id.
        assert!(std::ptr::eq(holder_shard(3), holder_shard(3 + HOLDER_SHARDS as u64)));
        assert!(!std::ptr::eq(holder_shard(3), holder_shard(4)));
    }
}
