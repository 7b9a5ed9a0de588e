//! The search on many threads against the search on one.
//!
//! [`search`] and [`campaign`] run their schedules on helper threads but
//! fold the outcomes on one thread in the sequential order, so a search
//! with helpers must conclude exactly what the same search without any
//! does: the same statistics (all but the wall-clock ones), the same
//! failures in the same order — prefix, schedule and violations — and
//! the same terminal states. Each input below is searched with 0, 1 and
//! 3 helpers (3 oversubscribes a small host, which shuffles who runs
//! what even more).

use crate::explorer::{search, Bounds, ExploreReport};
use crate::fuzz::{campaign, FuzzPlan, FuzzReport};
use crate::runner::Runner;
use crate::testprogs;
use revmon_core::GovernorConfig;
use revmon_vm::VmConfig;

const HELPERS: [usize; 3] = [0, 1, 3];

/// Everything a search concludes that does not depend on the clock or
/// the thread count.
fn conclusion(r: &ExploreReport) -> String {
    let s = &r.stats;
    let mut text = format!(
        "schedules={} decision_points={} expansions={} pruned_visited={} \
         pruned_preemption={} stalls={} budget_exhausted={} rollbacks={} capped={} \
         violated={}\nterminal_states={:?}\n",
        s.schedules,
        s.decision_points,
        s.expansions,
        s.pruned_visited,
        s.pruned_preemption,
        s.stalls,
        s.budget_exhausted,
        s.rollbacks,
        s.capped,
        s.first_violation.is_some(),
        r.terminal_states,
    );
    for f in &r.failures {
        text += &format!("failure {:?} {:?} {:?}\n", f.prefix, f.schedule, f.outcome.violations);
    }
    text
}

/// Search `runner` under `bounds` with every helper count; they must
/// agree. Returns the one-thread report.
fn agree(name: &str, runner: &Runner, bounds: Bounds) -> ExploreReport {
    let one = search(runner, bounds, 0);
    assert_eq!(one.workers, 1);
    for helpers in &HELPERS[1..] {
        let many = search(runner, bounds, *helpers);
        assert_eq!(many.workers, helpers + 1);
        assert_eq!(conclusion(&many), conclusion(&one), "{name} {bounds:?} with {helpers} helpers");
    }
    one
}

fn corpus(name: &str) -> Runner {
    let path = format!("{}/../../programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let program = testprogs::assemble_corpus(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
    Runner::new(program, "main", VmConfig::modified()).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn with_fault(runner: &Runner, skip: u32) -> Runner {
    let mut cfg = *runner.config();
    cfg.fault_skip_undo = skip;
    Runner::new(runner.program().clone(), runner.entry_name(), cfg).expect("same program")
}

fn bounds(max_preemptions: u32, max_schedules: u64, stop_on_first_failure: bool) -> Bounds {
    Bounds { max_preemptions, max_schedules, stop_on_first_failure }
}

#[test]
fn every_testprogs_runner_folds_alike_on_any_number_of_threads() {
    // Every run of the ungoverned livelock ends on the round budget, and
    // its search grows by thousands of schedules a bound: capped.
    let mut livelock = testprogs::forced_repeat_revocation(GovernorConfig::disabled());
    livelock.max_rounds = 500;
    let governed = GovernorConfig { k: 1, backoff: 8, decay: 0 };
    let runners = [
        ("two_incrementers(2)", testprogs::two_incrementers(2), 0),
        ("inversion_pair", testprogs::inversion_pair(), 0),
        ("faulty_inversion_pair(1)", testprogs::faulty_inversion_pair(1), 0),
        ("faulty_inversion_pair(1000000)", testprogs::faulty_inversion_pair(1_000_000), 0),
        ("forced_repeat_revocation(k=1)", testprogs::forced_repeat_revocation(governed), 0),
        ("forced_repeat_revocation(ungoverned)", livelock, 40),
        ("delegated_adders", testprogs::delegated_adders(), 0),
        ("deadlock_pair", testprogs::deadlock_pair(), 0),
    ];
    for (name, runner, cap) in &runners {
        for bound in 1..=3 {
            for stop in [true, false] {
                agree(name, runner, bounds(bound, *cap, stop));
            }
        }
    }
}

#[test]
fn the_corpus_folds_alike_on_any_number_of_threads() {
    let names = [
        "counter.rvm",
        "deadlock.rvm",
        "delegation_storm.rvm",
        "nested_wait_revoke.rvm",
        "priority_inversion.rvm",
        "producer_consumer.rvm",
        "repeat_revocation.rvm",
        "volatile_revoke.rvm",
    ];
    for name in names {
        let runner = corpus(name);
        for bound in 1..=3 {
            // The cap keeps the two largest searches short; where it
            // bites it stops the search mid-frontier.
            let report = agree(name, &runner, bounds(bound, 60, true));
            assert!(
                report.clean(),
                "{name} at bound {bound}: {:?}",
                report.failures[0].outcome.violations
            );
        }
    }
}

#[test]
fn failures_caps_and_early_stops_fold_alike_on_any_number_of_threads() {
    // Under a one-word rollback fault the corpus fails on many schedules:
    // every failure, in discovery order, or the first alone.
    let faulty = with_fault(&corpus("priority_inversion.rvm"), 1);
    let all = agree("priority_inversion.rvm skip 1", &faulty, bounds(2, 0, false));
    assert!(all.failures.len() > 1, "the fault must fail more than one schedule");
    let first = agree("priority_inversion.rvm skip 1", &faulty, bounds(2, 0, true));
    assert_eq!(first.failures.len(), 1);
    assert!(first.stats.schedules < all.stats.schedules, "the first failure stops the search");

    // A cap that stops the search with schedules still on the frontier.
    let runner = testprogs::two_incrementers(3);
    let whole = agree("two_incrementers(3)", &runner, bounds(3, 0, true));
    let cap = whole.stats.schedules / 2;
    let capped = agree("two_incrementers(3)", &runner, bounds(3, cap, true));
    assert!(capped.stats.capped && capped.stats.schedules == cap);
}

/// Everything a campaign concludes that does not depend on the clock or
/// the thread count.
fn fuzz_conclusion(r: &FuzzReport) -> String {
    format!(
        "iters={} completed={} stalls={} rollbacks={} failure={:?}",
        r.iters, r.completed, r.stalls, r.rollbacks, r.failure
    )
}

fn fuzz_agree(runner: &Runner, plan: FuzzPlan) -> FuzzReport {
    let one = campaign(runner, plan, 0);
    for helpers in &HELPERS[1..] {
        let many = campaign(runner, plan, *helpers);
        assert_eq!(many.workers, helpers + 1);
        assert_eq!(
            fuzz_conclusion(&many),
            fuzz_conclusion(&one),
            "{plan:?} with {helpers} helpers"
        );
    }
    one
}

#[test]
fn fuzzing_folds_alike_on_any_number_of_threads() {
    // The fault surfaces part-way through the campaign: the helpers have
    // run iterations past it that must not be counted.
    let plan = FuzzPlan { iters: 200, seed: 3, ..FuzzPlan::default() };
    let faulty = fuzz_agree(&testprogs::faulty_inversion_pair(1), plan);
    assert!(faulty.failure.is_some(), "the fault must surface");
    assert!(faulty.iters > 1 && faulty.iters < plan.iters, "stopped at {}", faulty.iters);

    // A clean campaign longer than one batch of drawn scripts.
    let plan = FuzzPlan { iters: 300, seed: 11, ..FuzzPlan::default() };
    let clean = fuzz_agree(&testprogs::two_incrementers(1), plan);
    assert_eq!((clean.iters, clean.failure), (300, None));
}
