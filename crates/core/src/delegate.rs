//! Shared vocabulary for **delegated critical sections** (the
//! [`InversionPolicy::Delegation`](crate::InversionPolicy::Delegation)
//! combiner).
//!
//! Under delegation a thread never *holds* a contended monitor across an
//! inversion: it submits its critical section to the monitor's combiner
//! queue and the current holder — the *combiner* — executes pending
//! submissions in priority order before releasing. Only the VM
//! implements it (`revmon-locks` treats the policy as blocking); what
//! lives here is [`DelegateConfig`], the combiner handoff rules — most
//! importantly the bounded drain budget that stops the combiner
//! starving.
//!
//! Ordering semantics piggyback on
//! [`PrioritizedQueue`](crate::PrioritizedQueue): the combiner drains
//! the submission queue priority-major, FIFO within a priority class —
//! exactly the paper's prioritized entry-queue discipline, applied to
//! closures instead of parked threads.

/// Combiner handoff rules for a delegation monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelegateConfig {
    /// Maximum number of queued submissions the combiner executes on one
    /// release path before handing the monitor over anyway. Bounds the
    /// time a combiner can be conscripted: without it, a steady stream
    /// of submissions would starve the combiner's own work (the
    /// ActiveMonitor paper's "combining degree"). `0` means unbounded.
    pub drain_budget: u32,
}

impl DelegateConfig {
    /// Default budget: drain at most 8 submissions per release.
    pub const DEFAULT_DRAIN_BUDGET: u32 = 8;

    /// Whether `drained` submissions exhaust this budget.
    pub fn exhausted(self, drained: u32) -> bool {
        self.drain_budget != 0 && drained >= self.drain_budget
    }
}

impl Default for DelegateConfig {
    fn default() -> Self {
        DelegateConfig { drain_budget: Self::DEFAULT_DRAIN_BUDGET }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_bounds_drain() {
        let cfg = DelegateConfig::default();
        assert_eq!(cfg.drain_budget, 8);
        assert!(!cfg.exhausted(7));
        assert!(cfg.exhausted(8));
        let unbounded = DelegateConfig { drain_budget: 0 };
        assert!(!unbounded.exhausted(u32::MAX));
    }
}
