//! Per-monitor counters.
//!
//! One field list generates both the internal atomic counters
//! (`MonitorStats`) and the public point-in-time copy
//! ([`StatsSnapshot`]), so `snapshot`, `merge`, and the by-name export
//! can never drift out of sync with the counter set.

impl MonitorStats {
    /// Snapshot with the fast-path split folded back together.
    ///
    /// The thin-lock fast path bumps only `thin_acquires` (one counter
    /// RMW per acquire instead of two); the internal `acquires` atomic
    /// counts fat-path acquisitions alone. `commits` is derived rather
    /// than counted: every counted acquisition ends in exactly one
    /// commit or rollback (revocation retries re-count the acquisition),
    /// so at quiescence `commits = acquires − rollbacks` — and the
    /// uncontended exit path touches no shared counter at all. Every
    /// external read goes through here so the public fields keep their
    /// documented meanings.
    pub(crate) fn reconciled_snapshot(&self) -> StatsSnapshot {
        let mut s = self.snapshot();
        s.acquires += s.thin_acquires;
        s.commits = s.acquires.saturating_sub(s.rollbacks);
        s
    }
}

revmon_core::define_counters! {
    /// A point-in-time copy of a monitor's counters.
    pub struct StatsSnapshot {
        /// Successful acquisitions (uncontended + granted + reentrant).
        acquires,
        /// Acquisitions that completed on the thin-lock fast path (one CAS,
        /// no state lock). `acquires - thin_acquires` went through the fat
        /// (inflated) path.
        thin_acquires,
        /// Thin→fat transitions (contention, wait/notify, or revocation).
        inflations,
        /// Fat→thin transitions after the queues drained.
        deflations,
        /// Blocking episodes on the entry queue.
        contended,
        /// Revocation flags raised against holders of this monitor.
        revocations_requested,
        /// Sections of this monitor rolled back.
        rollbacks,
        /// Undo entries restored by those rollbacks: one per cell per
        /// section that wrote it (a cell is logged at a section's first
        /// write to it), not one per store.
        entries_rolled_back,
        /// Sections committed. Derived at snapshot read points as
        /// `acquires − rollbacks` (exact at quiescence); the atomic itself
        /// stays zero so the commit fast path pays no shared-counter RMW.
        commits,
        /// Inversions left unresolved (holder non-revocable).
        inversions_unresolved,
        /// Undo-log entries written: first writes, i.e. distinct cells per
        /// section attempt. Repeat writes to a cell log nothing and are
        /// not counted.
        log_entries,
        /// Sections marked non-revocable.
        nonrevocable_marks,
        /// Deadlocks broken by revoking a holder of this monitor.
        deadlocks_broken,
        /// Priority-inheritance / ceiling boosts applied.
        priority_boosts,
        /// Revocations denied by the governor's retry budget (the contender
        /// blocked on the prioritized queue instead).
        governor_throttles,
        /// Fresh fallback-to-blocking windows the governor opened.
        policy_fallbacks,
    }
    /// Internal atomic counters of one monitor.
    pub(crate) atomic MonitorStats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn merge_cannot_drop_a_field() {
        let mut total = StatsSnapshot::uniform(1);
        total.merge(&StatsSnapshot::uniform(10));
        let mut n = 0;
        total.for_each_field(|name, v| {
            assert_eq!(v, 11, "field {name} dropped by merge");
            n += 1;
        });
        assert!(n >= 11, "field list shrank unexpectedly");
    }

    #[test]
    fn snapshot_reads_the_atomics() {
        let stats = MonitorStats::default();
        stats.acquires.fetch_add(2, Ordering::Relaxed);
        stats.rollbacks.fetch_add(1, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.acquires, 2);
        assert_eq!(snap.rollbacks, 1);
        assert_eq!(snap.commits, 0);
    }
}
