//! Pluggable scheduling policies.
//!
//! The VM's dispatch loop is fixed (quantum accounting, yield points,
//! revocation checks), but *which* runnable thread gets the next slice is
//! delegated to a [`SchedulePolicy`]. The two classic policies —
//! round-robin (the paper's Jikes RVM 2.2.1 setting) and
//! priority-preemptive (for the ablations) — live here, along with
//! [`Scripted`], which replays an explicit decision sequence. `Scripted`
//! is the substrate of the `revmon-explore` model checker: with the
//! quantum set to one tick, every yield point where more than one thread
//! is runnable becomes an enumerable decision, which the VM records as a
//! [`DecisionRecord`] for the caller to take after the round
//! ([`Vm::take_decision`](crate::Vm::take_decision)).
//!
//! Policies see an immutable candidate list — the Ready threads in run
//! queue (arrival) order, stale entries already pruned — and return the
//! index of the thread to dispatch. They never mutate VM state, which is
//! what makes schedules replayable.

use revmon_core::{Priority, ThreadId};
use std::any::Any;

/// One runnable thread as presented to a policy, in run-queue order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The runnable thread.
    pub tid: ThreadId,
    /// Its current effective priority (base + inheritance/ceiling boosts).
    pub effective_priority: Priority,
    /// Its base (programmer-assigned) priority.
    pub base_priority: Priority,
}

/// Ambient scheduling information passed alongside the candidates.
#[derive(Clone, Copy, Debug)]
pub struct SchedContext {
    /// The thread that held the previous time slice, if any.
    pub last_dispatched: Option<ThreadId>,
    /// Current virtual-clock value.
    pub clock: u64,
}

/// A scheduling decision procedure.
///
/// `choose` is called with a non-empty candidate list; the returned index
/// is clamped to the list by the caller. Implementations must be
/// deterministic functions of their own state plus the arguments —
/// ambient randomness or wall-clock input would break bit-exact replay.
pub trait SchedulePolicy: Any + Send {
    /// The policy as `Any` (implement as `{ self }`), so whoever set it
    /// can downcast what [`Vm::detach_schedule_policy`] returns and take
    /// back its state.
    ///
    /// [`Vm::detach_schedule_policy`]: crate::Vm::detach_schedule_policy
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    /// Short stable name for reports and schedule artifacts.
    fn name(&self) -> &'static str;
    /// Pick the index of the candidate to dispatch next.
    fn choose(&mut self, candidates: &[Candidate], ctx: &SchedContext) -> usize;
}

/// Which built-in scheduler drives runnable threads.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// Plain round-robin, priorities ignored (Jikes RVM 2.2.1; the
    /// paper's setting for all measurements).
    #[default]
    RoundRobin,
    /// Always run the highest effective-priority runnable thread,
    /// round-robin within a priority class. Needed for the priority
    /// inheritance / ceiling ablations to be meaningful.
    PriorityPreemptive,
}

impl SchedulerKind {
    /// Construct the policy implementing this kind.
    pub fn policy(self) -> Box<dyn SchedulePolicy> {
        match self {
            SchedulerKind::RoundRobin => Box::new(RoundRobin),
            SchedulerKind::PriorityPreemptive => Box::new(PriorityPreemptive),
        }
    }
}

/// Round-robin: dispatch the longest-waiting Ready thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobin;

impl SchedulePolicy for RoundRobin {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn name(&self) -> &'static str {
        "round-robin"
    }
    fn choose(&mut self, _candidates: &[Candidate], _ctx: &SchedContext) -> usize {
        0
    }
}

/// Priority-preemptive: highest effective priority wins; FIFO within a
/// priority class.
#[derive(Clone, Copy, Debug, Default)]
pub struct PriorityPreemptive;

impl SchedulePolicy for PriorityPreemptive {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn name(&self) -> &'static str {
        "priority-preemptive"
    }
    fn choose(&mut self, candidates: &[Candidate], _ctx: &SchedContext) -> usize {
        let mut best = 0usize;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if c.effective_priority > candidates[best].effective_priority {
                best = i;
            }
        }
        best
    }
}

/// Sentinel decision value meaning "take the default choice here".
///
/// The default at a choice point is candidate 0 — the front of the run
/// queue, which is exactly what the production [`RoundRobin`] policy
/// dispatches. An all-default schedule therefore reproduces the stock
/// scheduler's fair rotation, and is guaranteed to make global progress
/// (a "continue the last thread" default would livelock on lock-free
/// spin loops, burning the whole round budget on every explored
/// schedule). Shrinking replaces decisions with this sentinel to strip
/// forced switches one by one.
pub const DEFAULT_CHOICE: u32 = u32::MAX;

/// One recorded scheduling decision at a multi-candidate choice point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Number of candidates at this choice point.
    pub n_candidates: u32,
    /// Index actually dispatched.
    pub chosen: u32,
    /// Thread actually dispatched.
    pub chosen_tid: ThreadId,
    /// Index of the previously dispatched thread among the candidates,
    /// if it was still runnable (diagnostic: shows whether the decision
    /// continued, rotated away from, or returned to the previous thread).
    pub cont_index: Option<u32>,
}

impl DecisionRecord {
    /// Whether the recorded choice deviated from the default (candidate
    /// 0, the fair round-robin rotation) — a switch the baseline
    /// scheduler would not have made. These deviations are what the
    /// explorer's context bound counts, in the style of delay-bounded
    /// scheduling (Emmi, Qadeer & Rakamarić, POPL 2011): bounding
    /// deviations from a deterministic fair scheduler rather than raw
    /// context switches keeps the baseline live on programs whose
    /// threads never block (lock-free spin loops).
    pub fn is_preemption(&self) -> bool {
        self.chosen != 0
    }
}

/// Replay policy: consumes an explicit decision sequence at
/// multi-candidate choice points.
///
/// * Single-candidate rounds are **not** choice points: nothing is
///   consumed (and the VM records no decision), so decision indices
///   line up across runs that share a prefix.
/// * Past the end of the script — or on a [`DEFAULT_CHOICE`] / \
///   out-of-range entry — the default choice applies: candidate 0, the
///   stock round-robin rotation. A fully empty script therefore
///   reproduces the production scheduler's schedule.
#[derive(Debug, Default)]
pub struct Scripted {
    script: Vec<u32>,
    cursor: usize,
}

impl Scripted {
    /// Policy replaying `script`.
    pub fn new(script: Vec<u32>) -> Self {
        Scripted { script, cursor: 0 }
    }

    /// The script, handed back for the next run.
    pub fn into_script(self) -> Vec<u32> {
        self.script
    }
}

impl SchedulePolicy for Scripted {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn name(&self) -> &'static str {
        "scripted"
    }

    fn choose(&mut self, candidates: &[Candidate], _ctx: &SchedContext) -> usize {
        if candidates.len() < 2 {
            return 0; // not a choice point
        }
        let scripted = self.script.get(self.cursor).copied();
        self.cursor += 1;
        match scripted {
            Some(i) if (i as usize) < candidates.len() => i as usize,
            _ => 0, // fair rotation, same as RoundRobin
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u32, prio: Priority) -> Candidate {
        Candidate { tid: ThreadId(id), effective_priority: prio, base_priority: prio }
    }

    fn ctx(last: Option<u32>) -> SchedContext {
        SchedContext { last_dispatched: last.map(ThreadId), clock: 0 }
    }

    #[test]
    fn round_robin_always_takes_the_front() {
        let mut p = RoundRobin;
        let cs = [cand(3, Priority::LOW), cand(1, Priority::MAX)];
        assert_eq!(p.choose(&cs, &ctx(None)), 0);
    }

    #[test]
    fn priority_preemptive_takes_highest_earliest() {
        let mut p = PriorityPreemptive;
        let cs = [
            cand(0, Priority::LOW),
            cand(1, Priority::HIGH),
            cand(2, Priority::NORM),
            cand(3, Priority::HIGH),
        ];
        // Ties broken by queue position: thread 1 over thread 3.
        assert_eq!(p.choose(&cs, &ctx(None)), 1);
    }

    #[test]
    fn scripted_skips_single_candidate_rounds() {
        let mut p = Scripted::new(vec![1]);
        assert_eq!(p.choose(&[cand(0, Priority::NORM)], &ctx(None)), 0);
        // The script entry is still unconsumed: first real choice uses it.
        let cs = [cand(0, Priority::NORM), cand(1, Priority::NORM)];
        assert_eq!(p.choose(&cs, &ctx(Some(0))), 1);
        assert_eq!(p.choose(&cs, &ctx(Some(0))), 0, "script used up");
        assert_eq!(p.into_script(), [1]);
    }

    #[test]
    fn scripted_defaults_to_the_fair_rotation() {
        let mut p = Scripted::new(vec![]);
        let cs = [cand(0, Priority::NORM), cand(1, Priority::NORM)];
        assert_eq!(p.choose(&cs, &ctx(Some(1))), 0, "front of queue, like RoundRobin");
        assert_eq!(p.choose(&cs, &ctx(None)), 0);
    }

    #[test]
    fn scripted_treats_out_of_range_as_default() {
        let mut p = Scripted::new(vec![DEFAULT_CHOICE, 7, 1]);
        let cs = [cand(0, Priority::NORM), cand(1, Priority::NORM)];
        assert_eq!(p.choose(&cs, &ctx(Some(1))), 0);
        assert_eq!(p.choose(&cs, &ctx(Some(1))), 0);
        assert_eq!(p.choose(&cs, &ctx(Some(1))), 1, "each call consumed one entry");
    }

    #[test]
    fn a_detached_policy_downcasts_to_its_type() {
        let p: Box<dyn SchedulePolicy> = Box::new(Scripted::new(vec![2, 3]));
        let back = p.into_any().downcast::<Scripted>().expect("a Scripted");
        assert_eq!(back.into_script(), [2, 3]);
    }

    #[test]
    fn kind_constructs_matching_policy() {
        assert_eq!(SchedulerKind::RoundRobin.policy().name(), "round-robin");
        assert_eq!(SchedulerKind::PriorityPreemptive.policy().name(), "priority-preemptive");
    }
}
