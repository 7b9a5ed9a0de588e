//! Behaviour pin for `Runner::run`.
//!
//! What one scripted run reports — terminal class, whole-machine and
//! heap fingerprints, rollbacks the oracle verified, final virtual clock
//! and the names of the violated invariants — recorded for two corpus
//! programs and two `testprogs` miniatures (one with an injected rollback
//! fault) under a handful of scripts. The golden was captured while the
//! JMM guard was a `HashMap` and the oracle sat behind a `Mutex`, so this
//! is the proof that moving the guard into the heap and handing the
//! oracle's state back by value changed nothing a run can be observed by.
//! Its last program stalls with an entry queue of two priority classes,
//! so its final fingerprints read the order the queue gives its waiters
//! across classes, which no other pinned state does.
//!
//! To re-capture after an *intentional* behaviour change:
//!
//! ```text
//! cargo test -p revmon-explore --test runner_pin -- --ignored bless
//! ```

use revmon_explore::{testprogs, Runner};
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::VmConfig;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/runner_pin.txt")
}

fn corpus_runner(name: &str, cores: usize) -> Runner {
    let path = format!("{}/../../programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let program = testprogs::assemble_corpus(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut cfg = VmConfig::modified();
    cfg.cores = cores;
    Runner::new(program, "main", cfg).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// `main` holds a lock while it starts three workers at priorities 2, 8
/// and 2, each of which queues on the lock, then joins the last one: the
/// run stalls with the lock's entry queue holding both classes, in an
/// arrival order the scripts vary.
fn queue_classes() -> Runner {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let worker = pb.declare_method("worker", 1);
    let mut w = MethodBuilder::new(1, 1);
    w.sync_on_local(0, |b| b.add_static(0, 1));
    w.ret_void();
    pb.implement(worker, w);
    let main = pb.declare_method("main", 0);
    let mut b = MethodBuilder::new(0, 2);
    b.new_object(0, 0);
    b.store(0);
    b.sync_on_local(0, |b| {
        for priority in [2, 8, 2] {
            b.load(0);
            b.const_i(priority);
            b.spawn(worker);
            b.store(1);
        }
        b.load(1);
        b.join();
    });
    b.ret_void();
    pb.implement(main, b);
    Runner::new(pb.finish(), "main", testprogs::explore_config()).expect("verifies")
}

/// The default schedule, single deviations at the first three decision
/// points, and two double deviations.
const SCRIPTS: [&[u32]; 6] = [&[], &[1], &[0, 1], &[1, 1], &[0, 0, 1], &[1, 0, 1]];

fn capture() -> String {
    let runners = [
        ("priority_inversion.rvm", corpus_runner("priority_inversion.rvm", 1)),
        ("repeat_revocation.rvm", corpus_runner("repeat_revocation.rvm", 2)),
        ("inversion_pair", testprogs::inversion_pair()),
        ("faulty_inversion_pair(1)", testprogs::faulty_inversion_pair(1)),
        ("queue_classes", queue_classes()),
    ];
    let mut text = String::new();
    for (name, runner) in &runners {
        for script in SCRIPTS {
            let out = runner.run(script);
            // The oracle reports simultaneous violations in no fixed
            // order; the names are what artifacts assert on.
            let mut names: Vec<&str> = out.violations.iter().map(|v| v.invariant).collect();
            names.sort_unstable();
            let _ = writeln!(
                text,
                "{name} script={script:?} terminal={:?} state={:016x} heap={:016x} \
                 rollbacks={} clock={} decisions={} violations={names:?}",
                out.terminal,
                out.fingerprint,
                out.heap_fingerprint,
                out.rollbacks,
                out.clock,
                out.decisions.len(),
            );
        }
    }
    text
}

#[test]
fn runner_outcomes_match_the_pinned_golden() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden/runner_pin.txt");
    let actual = capture();
    for (got, want) in actual.lines().zip(golden.lines()) {
        assert_eq!(got, want, "Runner::run drifted from the pinned golden");
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "number of pinned runs changed");
}

/// Rewrites the golden file. Run with `--ignored`.
#[test]
#[ignore]
fn bless() {
    std::fs::write(golden_path(), capture()).expect("write golden/runner_pin.txt");
}
