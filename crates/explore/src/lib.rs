//! `revmon-explore`: deterministic schedule exploration, invariant
//! checking, and replayable fuzzing for the revocation protocol.
//!
//! The VM under test (`revmon-vm`) is a deterministic uniprocessor
//! machine whose only source of nondeterminism is the scheduler's choice
//! at each yield point. This crate turns that choice into a search
//! dimension:
//!
//! * [`Runner`] re-executes one program under one decision script,
//!   fingerprinting the machine at every choice point and checking a
//!   library of invariants ([`invariants`]) — monitor-header legality,
//!   prioritized entry-queue order, undo-log restoration (via a
//!   shadow-heap [`Oracle`]), and JMM-guard soundness.
//! * [`explore`] enumerates schedules exhaustively under an iterative
//!   context bound with state-hash deduplication.
//! * [`fuzz()`] samples the schedule space of programs too large to
//!   enumerate, deterministically in a seed.
//! * [`minimize`] delta-debugs a failing schedule down to a locally
//!   minimal reproducer.
//! * [`ScheduleFile`] serializes a schedule (plus the program identity
//!   and config axes replay depends on) as a portable `.schedule.json`.
//! * [`check_cross_policy`] asserts the paper's transparency claim:
//!   revocation and blocking commit the same final state for DRF,
//!   deadlock-free programs.

#![deny(missing_docs)]

pub mod equiv;
pub mod explorer;
pub mod fuzz;
pub mod invariants;
#[cfg(test)]
mod parallel_fold;
mod pool;
pub mod runner;
pub mod schedule;
pub mod shrink;
pub mod testprogs;

pub use equiv::{check_cross_policy, EquivReport};
pub use explorer::{explore, Bounds, ExploreReport, Failure, Stats};
pub use fuzz::{fuzz, FuzzPlan, FuzzReport};
pub use invariants::{check_state, check_terminal, Oracle, OracleState, Violation};
pub use runner::{DecisionPoint, RunOutcome, Runner, Terminal};
pub use schedule::ScheduleFile;
pub use shrink::{minimize, Minimized};
