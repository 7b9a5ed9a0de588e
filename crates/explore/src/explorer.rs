//! Exhaustive bounded schedule enumeration.
//!
//! Stateless depth-first search over decision prefixes, in the style of
//! CHESS: each explored schedule is a *prefix* of explicit decisions; the
//! run continues past the prefix with the default choice — the fair
//! round-robin rotation, i.e. the production scheduler's own schedule.
//! Every decision point the run passes spawns sibling prefixes, one per
//! alternative candidate.
//!
//! Two prunes keep the search tractable:
//!
//! * **Context bounding** — an alternative that deviates from the fair
//!   default (forcing a switch the stock scheduler would not make)
//!   consumes one unit of the budget; prefixes that would exceed
//!   [`Bounds::max_preemptions`] are cut. Most concurrency bugs manifest
//!   within two such forced switches (Musuvathi & Qadeer, PLDI 2007);
//!   bounding deviations from a deterministic fair scheduler rather
//!   than raw context switches (delay bounding — Emmi, Qadeer &
//!   Rakamarić, POPL 2011) keeps the baseline live even on lock-free
//!   spin loops.
//! * **State dedup** — a choice point whose (state fingerprint,
//!   deviations-spent) pair has been expanded before contributes no new
//!   siblings: the same futures were already scheduled from its first
//!   visit.

use crate::runner::{RunOutcome, Runner, Terminal};
use revmon_core::FxSet;

/// Search limits.
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    /// Maximum forced deviations from the fair default schedule per run
    /// (the context bound).
    pub max_preemptions: u32,
    /// Maximum schedules to execute (0 = unlimited). When the cap stops
    /// the search early, [`Stats::capped`] is set — never silently.
    pub max_schedules: u64,
    /// Stop at the first invariant violation instead of cataloguing all.
    pub stop_on_first_failure: bool,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds { max_preemptions: 2, max_schedules: 0, stop_on_first_failure: true }
    }
}

/// Search statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Schedules fully executed.
    pub schedules: u64,
    /// Decision points encountered across all runs.
    pub decision_points: u64,
    /// Decision points at or past a run's prefix edge — the choice points
    /// the search tried to expand, i.e. lookups in the visited-state set.
    pub expansions: u64,
    /// Sibling expansions skipped because the state was already expanded
    /// (the lookups that hit).
    pub pruned_visited: u64,
    /// Sibling expansions skipped by the preemption bound.
    pub pruned_preemption: u64,
    /// Runs that ended in a stall (blocked machine, no runnable thread).
    pub stalls: u64,
    /// Runs that hit the per-run round budget.
    pub budget_exhausted: u64,
    /// Rollbacks verified by the oracle across all runs.
    pub rollbacks: u64,
    /// True when `max_schedules` stopped the search before the frontier
    /// drained — the enumeration is then a *sample*, not a proof.
    pub capped: bool,
}

impl Stats {
    /// Share of attempted expansions that state dedup cut short:
    /// `pruned_visited / expansions` (0 before any expansion).
    pub fn dedup_hit_ratio(&self) -> f64 {
        if self.expansions == 0 {
            0.0
        } else {
            self.pruned_visited as f64 / self.expansions as f64
        }
    }
}

/// A schedule that violated an invariant.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The decision prefix that was explicitly scheduled.
    pub prefix: Vec<u32>,
    /// The full decision sequence actually taken (prefix + defaults),
    /// suitable for bit-exact replay.
    pub schedule: Vec<u32>,
    /// The complete outcome of the failing run.
    pub outcome: RunOutcome,
}

/// Result of one exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Search statistics.
    pub stats: Stats,
    /// Schedules that violated invariants, in discovery order.
    pub failures: Vec<Failure>,
    /// Distinct terminal-state fingerprints among completed runs — a
    /// measure of how many observably different outcomes the program has.
    pub terminal_states: Vec<u64>,
}

impl ExploreReport {
    /// Whether every explored schedule satisfied every invariant.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Exhaustively enumerate schedules of `runner`'s program within
/// `bounds`.
pub fn explore(runner: &Runner, bounds: Bounds) -> ExploreReport {
    let mut report = ExploreReport::default();
    // Both sets are keyed by state fingerprints — 64-bit hashes already.
    let mut terminal_fps: FxSet<u64> = FxSet::default();
    // (fingerprint at choice point, preemptions spent reaching it).
    let mut expanded: FxSet<(u64, u32)> = FxSet::default();
    let mut frontier: Vec<Vec<u32>> = vec![Vec::new()];

    while let Some(prefix) = frontier.pop() {
        if bounds.max_schedules != 0 && report.stats.schedules >= bounds.max_schedules {
            report.stats.capped = true;
            break;
        }
        let out = runner.run(&prefix);
        report.stats.schedules += 1;
        report.stats.decision_points += out.decisions.len() as u64;
        report.stats.rollbacks += out.rollbacks;
        match out.terminal {
            Terminal::Stalled => report.stats.stalls += 1,
            Terminal::Budget => report.stats.budget_exhausted += 1,
            Terminal::Completed => {
                terminal_fps.insert(out.fingerprint);
            }
            _ => {}
        }
        let failed = !out.violations.is_empty();
        let choices = out.choices();

        // Expand siblings of every decision at or past the prefix edge.
        // Decisions inside the prefix were expanded when the ancestor run
        // first passed them.
        let mut preemptions = 0u32;
        for (d, dp) in out.decisions.iter().enumerate() {
            let this_preempts = dp.record.is_preemption() as u32;
            if d >= prefix.len() {
                report.stats.expansions += 1;
                if !expanded.insert((dp.fingerprint, preemptions)) {
                    report.stats.pruned_visited += 1;
                    preemptions += this_preempts;
                    continue;
                }
                for alt in 0..dp.record.n_candidates {
                    if alt == dp.record.chosen {
                        continue;
                    }
                    let alt_preempts = (alt != 0) as u32;
                    if preemptions + alt_preempts > bounds.max_preemptions {
                        report.stats.pruned_preemption += 1;
                        continue;
                    }
                    let mut next = Vec::with_capacity(d + 1);
                    next.extend_from_slice(&choices[..d]);
                    next.push(alt);
                    frontier.push(next);
                }
            }
            preemptions += this_preempts;
        }

        if failed {
            report.failures.push(Failure { prefix, schedule: choices, outcome: out });
            if bounds.stop_on_first_failure {
                break;
            }
        }
    }

    let mut fps: Vec<u64> = terminal_fps.into_iter().collect();
    fps.sort_unstable();
    report.terminal_states = fps;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testprogs;

    #[test]
    fn counter_is_clean_under_two_preemptions() {
        let report = explore(&testprogs::two_incrementers(2), Bounds::default());
        assert!(report.clean(), "failures: {:?}", report.failures.first());
        assert!(!report.stats.capped);
        assert!(report.stats.schedules > 1, "search must branch");
        assert!(report.stats.decision_points > 0);
        // Every schedule but the first came from an expansion, and only
        // decisions past a prefix edge are expanded.
        let s = report.stats;
        assert!(s.pruned_visited <= s.expansions && s.expansions <= s.decision_points);
        assert!(s.pruned_visited > 0, "a counter revisits states");
        assert!(s.dedup_hit_ratio() > 0.0 && s.dedup_hit_ratio() < 1.0);
    }

    #[test]
    fn deeper_bounds_explore_at_least_as_much() {
        let s1 = explore(
            &testprogs::two_incrementers(1),
            Bounds { max_preemptions: 0, ..Bounds::default() },
        );
        let s2 = explore(
            &testprogs::two_incrementers(1),
            Bounds { max_preemptions: 2, ..Bounds::default() },
        );
        assert!(s2.stats.schedules >= s1.stats.schedules);
        assert!(s1.stats.pruned_preemption > 0, "bound 0 must prune preemptive siblings");
    }

    #[test]
    fn schedule_cap_is_reported_not_silent() {
        let report = explore(
            &testprogs::two_incrementers(3),
            Bounds { max_schedules: 2, ..Bounds::default() },
        );
        assert_eq!(report.stats.schedules, 2);
        assert!(report.stats.capped);
    }

    #[test]
    fn delegated_sections_execute_exactly_once_under_every_schedule() {
        let runner = testprogs::delegated_adders();
        let report = explore(&runner, Bounds::default());
        assert!(report.clean(), "failures: {:?}", report.failures.first());
        assert!(report.stats.schedules > 1, "search must branch");
        // Exactly-once in action: under any replayed schedule the three
        // bumps commit once each (s0 == 3) and the emitted return values
        // are the multiset {1, 2, 3} — duplicated or dropped submissions
        // would change both.
        for schedule in [vec![], vec![1], vec![2, 1]] {
            let out = runner.run(&schedule);
            assert_eq!(out.terminal, Terminal::Completed);
            assert_eq!(out.statics[0], revmon_vm::value::Value::Int(3));
            let mut emitted: Vec<String> = out.output.iter().map(|v| format!("{v:?}")).collect();
            emitted.sort();
            assert_eq!(emitted, ["Int(1)", "Int(2)", "Int(3)"]);
        }
    }

    #[test]
    fn injected_fault_is_found_and_replayable() {
        let report = explore(&testprogs::faulty_inversion_pair(1), Bounds::default());
        assert!(!report.clean(), "fault must surface under exploration");
        let failure = &report.failures[0];
        assert!(failure.outcome.violates("rollback-restoration"));
        // The recorded schedule reproduces the violation bit-for-bit.
        let replay = testprogs::faulty_inversion_pair(1).run(&failure.schedule);
        assert!(replay.violates("rollback-restoration"));
        assert_eq!(replay.fingerprint, failure.outcome.fingerprint);
    }

    #[test]
    fn every_counter_schedule_commits_both_increments() {
        let runner = testprogs::two_incrementers(1);
        let report = explore(&runner, Bounds::default());
        assert!(report.clean());
        // Exhaustiveness in action: replay a few distinct prefixes and
        // confirm the committed counter is always 2.
        for schedule in [vec![], vec![1], vec![1, 1]] {
            let out = runner.run(&schedule);
            assert_eq!(out.statics[0], revmon_vm::value::Value::Int(2));
        }
    }
}
