//! Priority-inversion policies and detection strategies.
//!
//! The paper evaluates **revocation** against an unmodified VM
//! (**blocking**); its related-work section discusses **priority
//! inheritance** and **priority ceiling**, which we implement as ablation
//! baselines (experiment A1 in DESIGN.md).

use crate::priority::Priority;
use std::fmt;
use std::str::FromStr;

/// What a runtime does when a high-priority thread finds the monitor it
/// wants held by a lower-priority thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum InversionPolicy {
    /// The unmodified VM: the requester simply blocks until the holder
    /// leaves the synchronized section. Priority inversion is unaddressed.
    #[default]
    Blocking,
    /// The paper's contribution: the holder is flagged and, at its next
    /// yield point, rolls back the synchronized section (restoring all
    /// logged updates), releases the monitor, and retries after the
    /// high-priority thread has run.
    Revocation,
    /// Classical priority inheritance: the holder temporarily inherits the
    /// requester's priority until it releases the monitor. Transitive.
    PriorityInheritance,
    /// Priority ceiling emulation: every thread that acquires the monitor
    /// runs at the monitor's programmer-declared ceiling priority while
    /// holding it.
    PriorityCeiling(Priority),
    /// ActiveMonitor-style delegation: a contender never waits out (or
    /// revokes) the holder — it *submits* its critical section to the
    /// monitor's combiner queue and the current holder executes pending
    /// submissions in priority order before releasing. Inversion becomes
    /// priority-ordered queue reordering; sections execute exactly once,
    /// so no undo logging is ever needed on this path.
    Delegation,
}

impl InversionPolicy {
    /// Whether this policy ever requires write barriers / undo logging.
    ///
    /// Only revocation does; this mirrors the paper's "unmodified VM"
    /// compiling the benchmark without barriers. Delegation executes each
    /// section exactly once and therefore never rolls back.
    ///
    /// Deliberately an exhaustive match (no `matches!` / wildcard): a new
    /// policy variant must decide its logging story here, at compile time.
    pub fn needs_logging(self) -> bool {
        match self {
            InversionPolicy::Revocation => true,
            InversionPolicy::Blocking
            | InversionPolicy::PriorityInheritance
            | InversionPolicy::PriorityCeiling(_)
            | InversionPolicy::Delegation => false,
        }
    }

    /// Whether this policy can resolve deadlocks by revoking a victim.
    ///
    /// Exhaustive for the same reason as [`needs_logging`](Self::needs_logging).
    pub fn can_break_deadlock(self) -> bool {
        match self {
            InversionPolicy::Revocation => true,
            InversionPolicy::Blocking
            | InversionPolicy::PriorityInheritance
            | InversionPolicy::PriorityCeiling(_)
            | InversionPolicy::Delegation => false,
        }
    }
}

/// The policy's name on the command line (`--policy`) and in schedule
/// files: `blocking`, `revocation`, `inherit`, `ceiling=N`, `delegation`.
impl fmt::Display for InversionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InversionPolicy::Blocking => f.write_str("blocking"),
            InversionPolicy::Revocation => f.write_str("revocation"),
            InversionPolicy::PriorityInheritance => f.write_str("inherit"),
            InversionPolicy::PriorityCeiling(p) => write!(f, "ceiling={}", p.level()),
            InversionPolicy::Delegation => f.write_str("delegation"),
        }
    }
}

/// Why a policy name did not parse; the caller words the message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyNameError {
    /// `ceiling=` followed by something that is not a `u8` level.
    BadCeiling,
    /// Not a policy name at all.
    Unknown,
}

/// Inverse of the [`Display`](fmt::Display) names (a ceiling level is
/// clamped into `1..=10` as [`Priority::new`] does).
impl FromStr for InversionPolicy {
    type Err = PolicyNameError;

    fn from_str(name: &str) -> Result<Self, PolicyNameError> {
        Ok(match name {
            "blocking" => InversionPolicy::Blocking,
            "revocation" => InversionPolicy::Revocation,
            "inherit" => InversionPolicy::PriorityInheritance,
            "delegation" => InversionPolicy::Delegation,
            _ => match name.strip_prefix("ceiling=") {
                Some(level) => {
                    let level: u8 = level.parse().map_err(|_| PolicyNameError::BadCeiling)?;
                    InversionPolicy::PriorityCeiling(Priority::new(level))
                }
                None => return Err(PolicyNameError::Unknown),
            },
        })
    }
}

/// How priority inversion is detected (§1.1: "either at lock acquisition,
/// or periodically in the background").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DetectionStrategy {
    /// Check at every contended acquisition: the acquiring thread compares
    /// its priority against the priority deposited in the monitor header.
    #[default]
    AtAcquisition,
    /// A background scan every `period` virtual-clock ticks walks all
    /// contended monitors looking for inversions.
    Background {
        /// Scan period in virtual-clock ticks.
        period: u64,
    },
}

/// Ordering discipline for a monitor's entry queue.
///
/// The paper implements *prioritized monitor queues* so results do not
/// depend on random arrival order: on release, waiting high-priority
/// threads always beat waiting low-priority threads.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueueDiscipline {
    /// Strict FIFO (Jikes RVM default).
    Fifo,
    /// Highest priority first; FIFO within a priority class (the paper's
    /// addition, used in all measurements).
    #[default]
    Priority,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_revocation_needs_logging() {
        assert!(!InversionPolicy::Blocking.needs_logging());
        assert!(InversionPolicy::Revocation.needs_logging());
        assert!(!InversionPolicy::PriorityInheritance.needs_logging());
        assert!(!InversionPolicy::PriorityCeiling(Priority::MAX).needs_logging());
        assert!(!InversionPolicy::Delegation.needs_logging());
    }

    #[test]
    fn only_revocation_breaks_deadlock() {
        assert!(InversionPolicy::Revocation.can_break_deadlock());
        assert!(!InversionPolicy::PriorityInheritance.can_break_deadlock());
        assert!(!InversionPolicy::Delegation.can_break_deadlock());
    }

    #[test]
    fn names_round_trip_and_misspellings_say_which_part_is_wrong() {
        for (policy, name) in [
            (InversionPolicy::Blocking, "blocking"),
            (InversionPolicy::Revocation, "revocation"),
            (InversionPolicy::PriorityInheritance, "inherit"),
            (InversionPolicy::PriorityCeiling(Priority::new(7)), "ceiling=7"),
            (InversionPolicy::Delegation, "delegation"),
        ] {
            assert_eq!(policy.to_string(), name);
            assert_eq!(name.parse(), Ok(policy));
        }
        assert_eq!("ceiling=200".parse(), Ok(InversionPolicy::PriorityCeiling(Priority::MAX)));
        for bad in ["ceiling=", "ceiling=high", "ceiling=-1", "ceiling=256"] {
            assert_eq!(bad.parse::<InversionPolicy>(), Err(PolicyNameError::BadCeiling), "{bad}");
        }
        for bad in ["", "Blocking", "ceiling", "revocation "] {
            assert_eq!(bad.parse::<InversionPolicy>(), Err(PolicyNameError::Unknown), "{bad}");
        }
    }

    #[test]
    fn defaults_match_paper_setup() {
        assert_eq!(InversionPolicy::default(), InversionPolicy::Blocking);
        assert_eq!(DetectionStrategy::default(), DetectionStrategy::AtAcquisition);
        assert_eq!(QueueDiscipline::default(), QueueDiscipline::Priority);
    }
}
