//! Exploration-backed integration tests over the `.rvm` corpus.
//!
//! These drive the whole subsystem end to end: assemble a real corpus
//! program, enumerate its schedules under a context bound, check the
//! invariant library on every run, and exercise the failure workflow
//! (catch → minimize → serialize → replay) that the `revmon explore`
//! CLI exposes.

use revmon_core::GovernorConfig;
use revmon_explore::{
    check_cross_policy, explore, fuzz, minimize, Bounds, FuzzPlan, Runner, ScheduleFile, Terminal,
};
use revmon_vm::VmConfig;

fn read(name: &str) -> String {
    let path = format!("{}/../../programs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn corpus_runner(name: &str, cfg: VmConfig) -> Runner {
    let program = revmon_explore::testprogs::assemble_corpus(&read(name))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    Runner::new(program, "main", cfg).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn adversarial_corpus_is_clean_under_bounded_exploration() {
    // The two adversarial programs plus the deadlock benchmark and the
    // repeated revocation, each exhaustively enumerated under a
    // two-deviation bound (the two largest corpus searches at that
    // bound, which `parallel_fold` caps). Every schedule must satisfy
    // every invariant, and the enumeration must actually branch (a
    // single-schedule "search" proves nothing).
    for name in
        ["nested_wait_revoke.rvm", "volatile_revoke.rvm", "deadlock.rvm", "repeat_revocation.rvm"]
    {
        let runner = corpus_runner(name, VmConfig::modified());
        let report = explore(&runner, Bounds::default());
        assert!(
            report.clean(),
            "{name}: {:?}",
            report.failures.first().map(|f| &f.outcome.violations)
        );
        assert!(!report.stats.capped, "{name}: enumeration must complete");
        assert!(report.stats.schedules > 1, "{name}: search must branch");
        assert_eq!(report.stats.budget_exhausted, 0, "{name}: every schedule terminates");
        assert!(!report.terminal_states.is_empty(), "{name}: some schedule completes");
    }
}

#[test]
fn exploration_is_deterministic() {
    // Same program, same bounds — bit-identical search. This is the
    // property everything else (dedup, replay, minimization) rests on.
    let run = || {
        let runner = corpus_runner("volatile_revoke.rvm", VmConfig::modified());
        explore(&runner, Bounds::default())
    };
    let (a, b) = (run(), run());
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
    assert_eq!(a.terminal_states, b.terminal_states);
    assert_eq!(a.failures.len(), b.failures.len());
}

#[test]
fn injected_rollback_fault_is_caught_minimized_and_replayed_from_json() {
    // The acceptance workflow end to end, on the paper's own benchmark:
    // break rollback (skip every undo-entry restore), explore until the
    // oracle objects, shrink the schedule, serialize it, and prove the
    // parsed artifact reproduces the same violation in the same final
    // state.
    let src = read("priority_inversion.rvm");
    let mut cfg = VmConfig::modified();
    cfg.fault_skip_undo = 1_000_000;
    let runner = corpus_runner("priority_inversion.rvm", cfg);

    let report = explore(&runner, Bounds { max_preemptions: 1, ..Bounds::default() });
    assert!(!report.clean(), "defeated rollback must surface under exploration");
    let failure = &report.failures[0];
    assert!(failure.outcome.violates("rollback-restoration"));

    let min = minimize(&runner, &failure.schedule, "rollback-restoration", 0);
    assert!(min.schedule.len() <= failure.schedule.len());
    let reference = runner.run(&min.schedule);
    assert!(reference.violates("rollback-restoration"));

    let file = ScheduleFile::new(
        "priority_inversion.rvm",
        &src,
        "main",
        runner.config(),
        min.schedule.clone(),
        Some("rollback-restoration".to_string()),
    );
    let parsed = ScheduleFile::parse(&file.to_json()).expect("round-trips through JSON");
    assert!(parsed.matches_program(&src), "program hash must survive the round trip");
    assert_eq!(parsed.decisions, min.schedule);
    assert_eq!(parsed.fault_skip_undo, 1_000_000);

    let mut replay_cfg = VmConfig::modified();
    parsed.apply_to(&mut replay_cfg).expect("schedule file applies to a stock config");
    let replayed = corpus_runner("priority_inversion.rvm", replay_cfg).run(&parsed.decisions);
    assert!(replayed.violates("rollback-restoration"), "replay must reproduce the violation");
    assert_eq!(replayed.fingerprint, reference.fingerprint, "replay must be bit-exact");
}

#[test]
fn unfaulted_priority_inversion_explores_clean() {
    // The same benchmark without the fault: rollbacks happen (the
    // oracle verifies them against its shadow heap) and nothing else.
    let runner = corpus_runner("priority_inversion.rvm", VmConfig::modified());
    let report = explore(&runner, Bounds { max_preemptions: 1, ..Bounds::default() });
    assert!(report.clean(), "{:?}", report.failures.first().map(|f| &f.outcome.violations));
    assert!(report.stats.rollbacks > 0, "exploration must exercise revocation");
}

#[test]
fn ungoverned_forced_inversion_livelocks() {
    // The fault-injection mode: every contended acquire is an inversion,
    // so two equal-priority threads revoke each other forever. Without a
    // governor the fair schedule never terminates — the runner's round
    // budget is the only thing that stops it.
    let mut runner =
        revmon_explore::testprogs::forced_repeat_revocation(GovernorConfig::disabled());
    runner.max_rounds = 20_000;
    let out = runner.run(&[]);
    assert_eq!(out.terminal, Terminal::Budget, "ungoverned repeat-revocation must livelock");
    assert!(out.rollbacks > 4, "the livelock is a rollback ping-pong, saw {}", out.rollbacks);
}

#[test]
fn governed_forced_inversion_is_bounded_under_exhaustive_and_fuzzed_schedules() {
    // Same pathological program under a retry budget of 1: every
    // schedule completes, the `bounded-revocation` invariant (checked
    // between every round) holds throughout, and the committed counter
    // is exact — the governor degrades to blocking instead of
    // livelocking.
    let gov = GovernorConfig { k: 1, backoff: 8, decay: 0 };
    let runner = revmon_explore::testprogs::forced_repeat_revocation(gov);

    let report = explore(&runner, Bounds::default());
    assert!(report.clean(), "{:?}", report.failures.first().map(|f| &f.outcome.violations));
    assert!(!report.stats.capped, "enumeration must complete");
    assert!(report.stats.schedules > 1, "search must branch");
    assert_eq!(report.stats.budget_exhausted, 0, "no schedule may livelock under the governor");
    assert!(report.stats.rollbacks > 0, "the budget still permits bounded revocation");
    assert!(!report.terminal_states.is_empty());
    let baseline = runner.run(&[]);
    assert_eq!(baseline.terminal, Terminal::Completed);
    assert_eq!(baseline.statics[0], revmon_vm::value::Value::Int(2));

    // Fuzzed schedules sample far off the fair baseline; the invariant
    // must hold there too, deterministically in the seed.
    let fr = fuzz(&runner, FuzzPlan { iters: 40, ..Default::default() });
    assert!(fr.failure.is_none(), "fuzzing violated an invariant: {:?}", fr.failure);
    assert!(fr.completed > 0, "fuzzed schedules must complete under the governor");
}

#[test]
fn revocation_and_blocking_agree_on_the_counter_corpus() {
    // The paper's transparency claim on a real corpus program: for a
    // data-race-free, deadlock-free program, revocation commits exactly
    // what blocking commits, schedule for schedule.
    let program =
        revmon_explore::testprogs::assemble_corpus(&read("counter.rvm")).expect("assembles");
    let schedules = vec![vec![1], vec![1, 1], vec![0, 1, 0, 1]];
    let report = check_cross_policy(&program, "main", VmConfig::modified(), &schedules)
        .expect("both runners build");
    assert!(report.clean(), "{:?}", report.violations.first());
    assert_eq!(report.schedules, 4, "empty script plus the three forced ones");
}
