//! Cross-core differential and IPI-handshake tests over the `.rvm`
//! corpus.
//!
//! The multi-core VM must be *transparent*: simulating more cores
//! changes the interleaving (and therefore clocks and schedules) but
//! never the committed result of a data-race-free program, and the
//! cross-core revocation handshake must keep every invariant the
//! uniprocessor protocol had. These tests pin both properties: terminal
//! heap fingerprints are identical for 1, 2 and 4 cores across the whole
//! corpus, and exhaustive bounded exploration at 2 and 4 cores — which
//! enumerates the cross-core deviations the IPI path is exposed to —
//! stays clean under the `no-lost-ipi` / `revoke-ack-liveness` /
//! rollback-restoration invariants.

use revmon_explore::{explore, Bounds, Runner, Terminal};
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

const CORPUS: &[&str] = &[
    "counter.rvm",
    "deadlock.rvm",
    "delegation_storm.rvm",
    "nested_wait_revoke.rvm",
    "priority_inversion.rvm",
    "producer_consumer.rvm",
    "repeat_revocation.rvm",
    "volatile_revoke.rvm",
];

/// Config for `name` at `cores` (delegation programs need the combiner
/// policy, mirroring how the CLI corpus loop runs them).
fn config_for(name: &str, cores: usize) -> VmConfig {
    let mut cfg = VmConfig::modified().with_cores(cores);
    if name.starts_with("delegation") {
        cfg.policy = revmon_core::InversionPolicy::Delegation;
        cfg.barriers = false;
    }
    cfg
}

#[test]
fn corpus_heap_fingerprints_agree_across_core_counts() {
    // Every corpus program, run to completion under the scripted
    // policy's fair default on 1, 2 and 4 cores: the committed result
    // (terminal heap: all object slots + statics) and the emitted output
    // must be identical — more cores may only change *when* things
    // happen, never *what* the program computes.
    for name in CORPUS {
        let base = corpus_runner(name, config_for(name, 1)).run(&[]);
        assert_eq!(base.terminal, Terminal::Completed, "{name} on one core");
        for cores in [2usize, 4] {
            let multi = corpus_runner(name, config_for(name, cores)).run(&[]);
            assert_eq!(multi.terminal, Terminal::Completed, "{name} on {cores} cores");
            assert_eq!(
                multi.heap_fingerprint, base.heap_fingerprint,
                "{name}: terminal heap diverged between 1 and {cores} cores"
            );
            // priority_inversion emits a virtual-clock delta (`now` at
            // two points) — a *timing*, which legitimately shifts with
            // the interleaving. Every other program emits computed
            // values, which may not.
            if *name != "priority_inversion.rvm" {
                assert_eq!(
                    multi.output, base.output,
                    "{name}: emitted output diverged between 1 and {cores} cores"
                );
            }
            assert!(multi.violations.is_empty(), "{name} on {cores} cores: {:?}", multi.violations);
            // The same run is bit-identical when repeated: the core
            // interleaving is part of the deterministic machine, not a
            // source of noise.
            let again = corpus_runner(name, config_for(name, cores)).run(&[]);
            assert_eq!(
                again.fingerprint, multi.fingerprint,
                "{name}: {cores}-core run nondeterministic"
            );
            assert_eq!(again.clock, multi.clock);
            assert_eq!(again.ipis, multi.ipis);
        }
    }
}

#[test]
fn cross_core_revocation_actually_posts_ipis() {
    // The differential test above would pass vacuously if multi-core
    // runs never took the IPI path. Pin that the paper's own benchmark
    // — whose priority inversion forces a revocation — resolves it
    // cross-core once holder and contender sit on different cores, and
    // that the handshake completes (posted == acked, none pending).
    let out =
        corpus_runner("priority_inversion.rvm", config_for("priority_inversion.rvm", 2)).run(&[]);
    assert_eq!(out.terminal, Terminal::Completed);
    let (posted, acked, _stale) = out.ipis;
    assert!(posted > 0, "no cross-core revocation was exercised");
    assert_eq!(posted, acked, "IPIs left unacknowledged at termination");
    assert!(out.rollbacks > 0, "the IPI must have driven a verified rollback");
}

#[test]
fn ipi_invariants_hold_under_exhaustive_bounded_search() {
    // Exhaustive enumeration under the default deviation bound, on ≥ 2
    // corpus programs, at 2 and 4 cores. Every reachable state must
    // satisfy `no-lost-ipi` (posted == acked + pending) and every
    // terminal state `revoke-ack-liveness` (no IPI stranded in a
    // mailbox) — both checked by the invariant library the runner
    // applies between rounds — alongside the whole uniprocessor
    // invariant set (monitor headers, rollback restoration, ...).
    let mut branched = false;
    for name in ["nested_wait_revoke.rvm", "priority_inversion.rvm"] {
        for cores in [2usize, 4] {
            let runner = corpus_runner(name, config_for(name, cores));
            let report = explore(&runner, Bounds::default());
            assert!(
                report.clean(),
                "{name} at {cores} cores: {:?}",
                report.failures.first().map(|f| &f.outcome.violations)
            );
            assert!(!report.stats.capped, "{name} at {cores} cores: enumeration must complete");
            branched |= report.stats.schedules > 1;
            assert_eq!(report.stats.budget_exhausted, 0, "{name} at {cores} cores");
            assert!(!report.terminal_states.is_empty(), "{name} at {cores} cores");
        }
    }
    // Choice points need ≥ 2 simultaneously-Ready threads on one core's
    // queue, so pinning shrinks the branch factor: a program whose
    // threads land alone on their cores (or never overlap in readiness)
    // has exactly one schedule. That is itself correct behaviour — but
    // the matrix as a whole must have exercised real cross-core
    // deviations somewhere or the invariant sweep above proved nothing.
    assert!(branched, "no (program, cores) combination produced a branching search");
}

#[test]
fn broken_rollback_is_caught_through_the_ipi_path() {
    // Prove the cross-core invariants have teeth: defeat the undo walk
    // (skip every restore) and the rollback-restoration oracle must
    // object under 2-core exploration, where revocations arrive as
    // delivered IPIs rather than same-core flags.
    let mut cfg = config_for("priority_inversion.rvm", 2);
    cfg.fault_skip_undo = 1_000_000;
    let runner = corpus_runner("priority_inversion.rvm", cfg);
    let report = explore(&runner, Bounds { max_preemptions: 1, ..Bounds::default() });
    assert!(!report.clean(), "defeated rollback must surface across cores");
    assert!(report.failures[0].outcome.violates("rollback-restoration"));
}
