//! Live wait-for-graph snapshots ([`Vm::wait_graph_snapshot`]): DOT
//! output stays well-formed at every scheduling round and the graph is
//! acyclic (in fact empty) once the deadlock breaker has resolved
//! `programs/deadlock.rvm`.
//!
//! The cycle itself is never observable *between* rounds: on this
//! uniprocessor VM the victim always sits at a yield point, so the
//! breaker revokes it synchronously inside the round that closes the
//! cycle (cycle rendering is covered by `revmon-obs`'s own unit tests
//! on synthetic edges).

mod common;

use revmon_core::Priority;
use revmon_vm::{assemble, RoundOutcome, Vm, VmConfig};
use std::path::PathBuf;

fn load(name: &str) -> revmon_vm::bytecode::Program {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs").join(name);
    let src = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
    assemble(&src).expect("assemble")
}

/// Check the invariants any DOT consumer relies on: one digraph, one
/// closing brace, every line inside indented.
fn assert_well_formed_dot(dot: &str) {
    assert!(dot.starts_with("digraph waits_for {\n"), "bad preamble:\n{dot}");
    assert!(dot.ends_with("}\n"), "unterminated digraph:\n{dot}");
    assert_eq!(dot.matches('{').count(), 1, "nested braces:\n{dot}");
    for line in dot.lines().skip(1) {
        assert!(line == "}" || line.starts_with("  "), "stray line {line:?} in:\n{dot}");
    }
}

#[test]
fn deadlock_cycle_appears_in_dot_and_clears_after_the_break() {
    let program = load("deadlock.rvm");
    let entry = program.method_by_name("main").expect("main");
    let mut vm = Vm::try_new(program, VmConfig::modified()).expect("verified");
    vm.spawn("main", entry, vec![], Priority::NORM);

    let mut saw_edges = false;
    loop {
        let outcome = vm.run_round().expect("deadlock must be broken, not stall");
        let snap = vm.wait_graph_snapshot();
        let names = vm.monitor_names();
        assert_well_formed_dot(&snap.to_dot(&names));
        // The break is synchronous with cycle formation, so every
        // between-rounds snapshot must already be acyclic again.
        let json = snap.to_json(&names);
        assert!(
            json.contains("\"deadlock_cycle\": null"),
            "unbroken cycle leaked out of a round:\n{json}"
        );
        if !snap.edges.is_empty() {
            saw_edges = true;
            // Blocked philosophers wait on the named chopstick monitors.
            let dot = snap.to_dot(&names);
            assert!(dot.contains("chopstick"), "unlabeled monitor in:\n{dot}");
        }
        if outcome == RoundOutcome::Done {
            break;
        }
    }
    assert!(saw_edges, "philosophers never blocked");

    let report = vm.report();
    assert!(report.global.deadlocks_broken >= 1, "breaker did not fire");
    let last = vm.wait_graph_snapshot();
    assert!(last.edges.is_empty(), "threads still blocked after completion");
    assert!(last.to_json(&vm.monitor_names()).contains("\"deadlock_cycle\": null"));
}

#[test]
fn snapshot_edges_carry_the_inversion_priorities() {
    // Figure-1 shape: a LOW holder inside a long section, a HIGH waiter
    // blocked behind it. Under the blocking policy the inversion
    // persists across rounds, so the snapshot edge must show the
    // priority gap. (Under revocation the block resolves inside one
    // round and is invisible here — that is the point of the policy.)
    let (p, run) = common::counting_section_program();
    let mut vm = Vm::new(p, VmConfig::unmodified());
    let lock = vm.heap_mut().alloc(0, 0);
    use revmon_vm::value::Value;
    vm.spawn("Tl", run, vec![Value::Ref(lock), Value::Int(5_000)], Priority::LOW);
    vm.spawn("Th", run, vec![Value::Ref(lock), Value::Int(100)], Priority::HIGH);

    let mut saw_inverted_edge = false;
    loop {
        let outcome = vm.run_round().expect("run");
        let snap = vm.wait_graph_snapshot();
        for e in &snap.edges {
            if e.waiter_priority > e.holder_priority {
                saw_inverted_edge = true;
            }
        }
        if outcome == RoundOutcome::Done {
            break;
        }
    }
    assert!(saw_inverted_edge, "high-priority waiter never visible behind the low holder");
}
