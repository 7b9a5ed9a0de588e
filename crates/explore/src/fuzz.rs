//! Seeded random schedule fuzzing.
//!
//! Where exhaustive exploration proves properties of *small* programs,
//! the fuzzer samples the schedule space of *large* ones: each iteration
//! draws a random decision script, runs it through the same
//! invariant-checked runner, and keeps the first failing schedule. Runs
//! are deterministic functions of the seed, so `FuzzReport::failure`
//! always replays.
//!
//! No draw reads an outcome, so the scripts are drawn ahead, a batch at
//! a time, and run on every core the host offers (see `pool.rs`);
//! their outcomes are folded in draw order up to the first violation, so
//! the report does not depend on the core count.

use crate::pool;
use crate::runner::{Runner, Terminal};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Scripts drawn ahead of the fold at a time.
const BATCH: u64 = 256;

/// Fuzzing limits and shape.
#[derive(Clone, Copy, Debug)]
pub struct FuzzPlan {
    /// Iterations to run.
    pub iters: u64,
    /// RNG seed; equal seeds produce equal campaigns.
    pub seed: u64,
    /// Length of each random decision script.
    pub script_len: usize,
    /// Exclusive upper bound on drawn decision indices. Values landing
    /// out of a choice point's range fall back to the default choice, so
    /// a bound a little above the expected thread count biases toward
    /// meaningful switches without starving any candidate.
    pub max_choice: u32,
}

impl Default for FuzzPlan {
    fn default() -> Self {
        FuzzPlan { iters: 100, seed: 0xf022, script_len: 64, max_choice: 4 }
    }
}

/// Outcome of a fuzzing campaign.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: u64,
    /// Schedules that completed normally.
    pub completed: u64,
    /// Schedules that stalled.
    pub stalls: u64,
    /// Schedules that ended in a VM fault (the first is the failure).
    pub faults: u64,
    /// Total rollbacks verified across the campaign.
    pub rollbacks: u64,
    /// First failing schedule (full decision sequence) and the violated
    /// invariant's name.
    pub failure: Option<(Vec<u32>, String)>,
    /// Threads the campaign could run schedules on, the folding one
    /// included (see [`crate::ExploreReport::workers`]).
    pub workers: usize,
    /// Wall time of the executed iterations' runs, summed over whichever
    /// threads ran them (see [`crate::ExploreReport::run_time`]).
    pub run_time: Duration,
}

/// Run a fuzzing campaign over `runner`'s program. Stops early at the
/// first invariant violation.
pub fn fuzz(runner: &Runner, plan: FuzzPlan) -> FuzzReport {
    campaign(runner, plan, pool::helpers())
}

/// [`fuzz`] with `helpers` threads running scripts beside the one that
/// folds them.
pub(crate) fn campaign(runner: &Runner, plan: FuzzPlan, helpers: usize) -> FuzzReport {
    pool::with_pool(runner, helpers, |scripts| {
        let mut rng = SmallRng::seed_from_u64(plan.seed);
        let mut report = FuzzReport { workers: scripts.workers(), ..FuzzReport::default() };
        let mut undrawn = plan.iters;
        while undrawn > 0 {
            let batch = undrawn.min(BATCH);
            undrawn -= batch;
            let drawn: Vec<Vec<u32>> = (0..batch)
                .map(|_| {
                    (0..plan.script_len).map(|_| rng.gen_range(0..plan.max_choice.max(1))).collect()
                })
                .collect();
            // Pushed newest-first, so they pop in draw order.
            scripts.push(drawn.into_iter().rev());
            while let Some(ran) = scripts.pop() {
                let out = ran.outcome;
                report.run_time += ran.time;
                report.iters += 1;
                report.rollbacks += out.rollbacks;
                match out.terminal {
                    Terminal::Completed => report.completed += 1,
                    Terminal::Stalled => report.stalls += 1,
                    Terminal::Fault(_) => report.faults += 1,
                    Terminal::Budget | Terminal::CheckFailed => {}
                }
                if let Some(v) = out.violations.first() {
                    report.failure = Some((out.choices(), v.invariant.to_string()));
                    return report;
                }
            }
        }
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testprogs;

    #[test]
    fn fuzzing_a_correct_program_finds_nothing() {
        let report =
            fuzz(&testprogs::inversion_pair(), FuzzPlan { iters: 40, ..Default::default() });
        assert_eq!(report.iters, 40);
        assert!(report.failure.is_none());
        assert!(report.completed > 0);
    }

    #[test]
    fn fuzzing_is_deterministic_in_the_seed() {
        let runner = testprogs::two_incrementers(2);
        let plan = FuzzPlan { iters: 10, seed: 7, ..Default::default() };
        let a = fuzz(&runner, plan);
        let b = fuzz(&runner, plan);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.rollbacks, b.rollbacks);
    }

    #[test]
    fn fuzzing_catches_the_injected_fault() {
        let runner = testprogs::faulty_inversion_pair(1);
        let report = fuzz(&runner, FuzzPlan { iters: 200, ..Default::default() });
        let (schedule, invariant) = report.failure.expect("fault must surface");
        assert_eq!(invariant, "rollback-restoration");
        assert!(runner.run(&schedule).violates("rollback-restoration"), "must replay");
    }
}
