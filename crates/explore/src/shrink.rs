//! Delta-debugging minimization of failing schedules.
//!
//! A failing schedule found by exploration or fuzzing often carries
//! dozens of irrelevant decisions. [`minimize`] reduces it with three
//! passes, re-running the program after each candidate edit and keeping
//! it only if the *same* invariant still fails:
//!
//! 1. **Tail truncation** — decisions after the failure point are dead
//!    weight; binary-search the shortest failing prefix.
//! 2. **ddmin chunk deletion** — remove contiguous chunks at
//!    progressively finer granularity (Zeller & Hildebrandt's ddmin).
//! 3. **Default substitution** — replace surviving decisions with
//!    [`DEFAULT_CHOICE`] one at a time, turning forced switches back
//!    into preemption-free continuations.
//!
//! The result is locally minimal: no single deletion or defaulting
//! preserves the failure.

use crate::runner::{Machine, Runner};
use revmon_vm::DEFAULT_CHOICE;

/// Minimization result.
#[derive(Clone, Debug)]
pub struct Minimized {
    /// The reduced schedule (still reproduces the violation).
    pub schedule: Vec<u32>,
    /// Program runs spent minimizing.
    pub runs: u64,
}

/// Shrink `schedule` while `runner` keeps violating `invariant`.
///
/// `schedule` must already reproduce the violation; panics otherwise
/// (a non-reproducing input indicates the caller lost determinism, which
/// this crate exists to prevent). `max_runs` caps the effort (0 =
/// unlimited).
pub fn minimize(runner: &Runner, schedule: &[u32], invariant: &str, max_runs: u64) -> Minimized {
    let mut runs: u64 = 0;
    let mut machine = Machine::new();
    let mut fails = |s: &[u32], runs: &mut u64| -> bool {
        *runs += 1;
        machine.run(runner, s.to_vec()).0.violates(invariant)
    };
    assert!(
        fails(schedule, &mut runs),
        "schedule does not reproduce `{invariant}` — replay determinism lost"
    );
    let budget = |runs: u64| max_runs == 0 || runs < max_runs;
    let mut best: Vec<u32> = schedule.to_vec();

    // Pass 1: shortest failing prefix, by binary search.
    let mut lo = 0usize; // fails with best[..hi], not known for best[..lo]
    let mut hi = best.len();
    while lo < hi && budget(runs) {
        let mid = (lo + hi) / 2;
        if fails(&best[..mid], &mut runs) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    best.truncate(hi);

    // Pass 2: ddmin — delete chunks, halving granularity down to single
    // decisions. A successful deletion re-tests the same offset (the next
    // chunk slid left into it).
    let mut chunk = (best.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < best.len() && budget(runs) {
            let end = (start + chunk).min(best.len());
            let mut candidate = best.clone();
            candidate.drain(start..end);
            if fails(&candidate, &mut runs) {
                best = candidate;
            } else {
                start = end;
            }
        }
        if chunk == 1 || !budget(runs) {
            break;
        }
        chunk /= 2;
    }

    // Pass 3: neutralize surviving decisions one at a time.
    let mut i = 0;
    while i < best.len() && budget(runs) {
        if best[i] != DEFAULT_CHOICE {
            let mut candidate = best.clone();
            candidate[i] = DEFAULT_CHOICE;
            if fails(&candidate, &mut runs) {
                best = candidate;
            }
        }
        i += 1;
    }
    while best.last() == Some(&DEFAULT_CHOICE) {
        best.pop(); // trailing defaults are implicit
    }

    Minimized { schedule: best, runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, Bounds};
    use crate::testprogs;

    #[test]
    fn minimized_schedule_still_fails_and_is_no_longer() {
        let runner = testprogs::faulty_inversion_pair(1);
        let report = explore(&runner, Bounds::default());
        let failure = &report.failures[0];
        // Pad the failing schedule with junk to give the shrinker work.
        let mut noisy = failure.schedule.clone();
        noisy.extend([0, 1, 0, 1, DEFAULT_CHOICE, 1]);
        let min = minimize(&runner, &noisy, "rollback-restoration", 0);
        assert!(runner.run(&min.schedule).violates("rollback-restoration"));
        assert!(min.schedule.len() <= noisy.len());
        assert!(min.runs > 0);
    }

    #[test]
    #[should_panic(expected = "does not reproduce")]
    fn non_reproducing_input_is_rejected() {
        let runner = testprogs::two_incrementers(1);
        minimize(&runner, &[1], "rollback-restoration", 0);
    }
}
