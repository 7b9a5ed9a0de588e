//! Virtual-clock cost model for the simulator.
//!
//! The paper measured wall-clock time on an 800 MHz Pentium III running
//! Jikes RVM 2.2.1. Our substrate executes a mini-bytecode interpreter and
//! charges each operation a configurable number of *ticks* to a virtual
//! clock. Only *ratios* matter for reproducing the figures (they are
//! normalized); the defaults below are calibrated so that:
//!
//! * reads and writes cost the same on the unmodified VM (its curves are
//!   flat versus write ratio, as in Figs. 5–8 dotted lines);
//! * the barrier fast path ("am I in a monitor?") is cheap and charged on
//!   every store in the modified VM;
//! * the slow path (logging) adds a few ticks per logged word, so at 100 %
//!   writes the modified VM's overhead becomes visible (Fig. 6(c));
//! * context switches are ~two orders of magnitude above an instruction,
//!   and the scheduling quantum is large relative to a single instruction
//!   (Jikes used ~20 ms time slices).

/// Tick costs for every chargeable event in the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Base cost of executing one bytecode instruction.
    pub instruction: u64,
    /// Extra cost of the write-barrier fast path (the in-monitor test),
    /// charged on every store when barriers are compiled in.
    pub barrier_fast: u64,
    /// Extra cost of the write-barrier slow path (appending one log
    /// entry), charged on stores executed inside a synchronized section.
    pub barrier_slow: u64,
    /// Cost of restoring one log entry during rollback.
    pub rollback_per_entry: u64,
    /// Fixed cost of initiating a rollback (throwing the rollback
    /// exception, unwinding, restoring frame state).
    pub rollback_fixed: u64,
    /// Cost of a context switch between green threads.
    pub context_switch: u64,
    /// Cost of a monitor acquire/release pair's bookkeeping.
    pub monitor_op: u64,
    /// Scheduling quantum in ticks (time slice between forced yields).
    pub quantum: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            instruction: 1,
            barrier_fast: 1,
            barrier_slow: 4,
            rollback_per_entry: 2,
            rollback_fixed: 200,
            context_switch: 100,
            monitor_op: 20,
            quantum: 20_000,
        }
    }
}

impl CostModel {
    /// Cost model with *all* mechanism overheads zeroed — for tests that
    /// check pure scheduling behaviour.
    pub fn free_mechanism() -> Self {
        CostModel {
            instruction: 1,
            barrier_fast: 0,
            barrier_slow: 0,
            rollback_per_entry: 0,
            rollback_fixed: 0,
            context_switch: 0,
            monitor_op: 0,
            quantum: 20_000,
        }
    }

    /// Cost of rolling back a log of `entries` entries.
    pub fn rollback(&self, entries: usize) -> u64 {
        self.rollback_fixed + self.rollback_per_entry * entries as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_keep_reads_and_writes_equal_without_barriers() {
        let c = CostModel::default();
        // On the unmodified VM a store costs `instruction`, same as a load.
        assert_eq!(c.instruction, 1);
    }

    #[test]
    fn logged_store_costs_more_than_unlogged() {
        // The modified VM charges a store `barrier_fast` on top of its
        // instruction, and `barrier_slow` more when it is logged.
        let c = CostModel::default();
        assert!(c.barrier_slow > 0);
        assert!(c.barrier_fast > 0);
    }

    #[test]
    fn rollback_cost_scales_with_log_length() {
        let c = CostModel::default();
        assert_eq!(c.rollback(0), c.rollback_fixed);
        assert_eq!(c.rollback(10) - c.rollback(0), 10 * c.rollback_per_entry);
    }

    #[test]
    fn free_mechanism_only_charges_instructions() {
        let c = CostModel::free_mechanism();
        assert_eq!((c.barrier_fast, c.barrier_slow), (0, 0));
        assert_eq!(c.rollback(1000), 0);
        assert_eq!(c.context_switch, 0);
    }

    #[test]
    fn quantum_dwarfs_instruction_cost() {
        let c = CostModel::default();
        assert!(c.quantum >= 1000 * c.instruction);
    }
}
