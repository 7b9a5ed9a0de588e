//! The fingerprint hasher draws the same partition of states as SipHash.
//!
//! Dedup prunes a choice point whose fingerprint it has seen, so what the
//! explorer decides depends only on which states share a fingerprint —
//! the partition — not on the values. This test replays the explorer's
//! search (context-bounded DFS over decision prefixes, dedup on
//! `(fingerprint, preemptions spent)`) and hashes the machine at every
//! round twice: `Vm::state_fingerprint` ([`revmon_core::FoldHasher`]) and
//! the same field walk, `Vm::hash_state`, through `DefaultHasher`. Both
//! maps, fold → SipHash and SipHash → fold, must be functions: no two
//! states one hasher tells apart share a value under the other. The
//! search must also count exactly the schedules `explore` counts, so it
//! is the search the explorer runs.
//!
//! Covered: every `testprogs` runner at bound 3 (2 for the two whose
//! bound-3 search is large), and every corpus program at bound 1.

use revmon_core::{GovernorConfig, Priority};
use revmon_explore::{explore, testprogs, Bounds, Runner};
use revmon_vm::{RoundOutcome, Scripted, Vm, VmConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;

/// Both hash functions over every state seen, and the maps between them.
#[derive(Default)]
struct Partition {
    fold_to_sip: HashMap<u64, u64>,
    sip_to_fold: HashMap<u64, u64>,
    rounds: u64,
}

impl Partition {
    /// Hash `vm` both ways, check both maps stay functions, and return the
    /// fold fingerprint.
    fn observe(&mut self, vm: &Vm, at: &str) -> u64 {
        let fold = vm.state_fingerprint();
        let mut sip = DefaultHasher::new();
        vm.hash_state(&mut sip);
        let sip = sip.finish();
        let seen = *self.fold_to_sip.entry(fold).or_insert(sip);
        assert_eq!(seen, sip, "{at}: two states SipHash tells apart share fingerprint {fold:016x}");
        let seen = *self.sip_to_fold.entry(sip).or_insert(fold);
        assert_eq!(seen, fold, "{at}: one state (SipHash {sip:016x}) got two fingerprints");
        self.rounds += 1;
        fold
    }
}

/// The explorer's search over `runner` at `bound`, every round of every
/// run observed. Returns the schedules run.
fn search(name: &str, runner: &Runner, bound: u32, p: &mut Partition) -> u64 {
    let program = runner.program();
    let entry = program.method_by_name(runner.entry_name()).expect("entry");
    let mut expanded: HashSet<(u64, u32)> = HashSet::new();
    let mut frontier: Vec<Vec<u32>> = vec![Vec::new()];
    let mut schedules = 0;
    while let Some(prefix) = frontier.pop() {
        let mut vm = Vm::new(program.clone(), *runner.config());
        vm.set_schedule_policy(Box::new(Scripted::new(prefix.clone())));
        vm.spawn(runner.entry_name(), entry, vec![], Priority::NORM);
        let at = format!("{name} prefix={prefix:?}");
        // The dedup key of each round that consumed a decision: the
        // fingerprint before it, or 0 where `Runner` skips the hash (fewer
        // than two threads queued before the round).
        let mut at_decision = Vec::new();
        let mut decisions = Vec::new();
        for _ in 0..runner.max_rounds {
            let fp = p.observe(&vm, &at);
            let fp = if vm.run_queue_len() >= 2 { fp } else { 0 };
            match vm.run_round() {
                Ok(RoundOutcome::Done) | Err(_) => break,
                Ok(_) => {}
            }
            if let Some(rec) = vm.take_decision() {
                at_decision.push(fp);
                decisions.push(rec);
            }
        }
        p.observe(&vm, &at);
        schedules += 1;

        let mut preemptions = 0;
        for (d, rec) in decisions.iter().enumerate() {
            if d >= prefix.len() && expanded.insert((at_decision[d], preemptions)) {
                for alt in 0..rec.n_candidates {
                    if alt == rec.chosen || preemptions + (alt != 0) as u32 > bound {
                        continue;
                    }
                    let mut next: Vec<u32> = decisions[..d].iter().map(|r| r.chosen).collect();
                    next.push(alt);
                    frontier.push(next);
                }
            }
            preemptions += rec.is_preemption() as u32;
        }
    }
    let report = explore(
        runner,
        Bounds { max_preemptions: bound, max_schedules: 0, stop_on_first_failure: false },
    );
    assert_eq!(schedules, report.stats.schedules, "{name}: not the explorer's search");
    schedules
}

#[test]
fn fold_and_siphash_partition_explored_states_alike() {
    let gov = GovernorConfig { k: 1, backoff: 8, decay: 0 };
    let small: [(&str, Runner, u32); 8] = [
        ("two_incrementers(2)", testprogs::two_incrementers(2), 3),
        ("inversion_pair", testprogs::inversion_pair(), 3),
        ("faulty_inversion_pair(1)", testprogs::faulty_inversion_pair(1), 3),
        ("forced_repeat_revocation", testprogs::forced_repeat_revocation(gov), 3),
        ("delegated_adders", testprogs::delegated_adders(), 2),
        ("deadlock_pair", testprogs::deadlock_pair(), 2),
        ("inversion_pair@2", on_two_cores(testprogs::inversion_pair()), 3),
        ("two_incrementers(1)@2", on_two_cores(testprogs::two_incrementers(1)), 3),
    ];
    let mut p = Partition::default();
    let mut schedules = 0;
    for (name, runner, bound) in &small {
        schedules += search(name, runner, *bound, &mut p);
    }
    let dir = format!("{}/../../programs", env!("CARGO_MANIFEST_DIR"));
    for name in [
        "counter.rvm",
        "deadlock.rvm",
        "nested_wait_revoke.rvm",
        "priority_inversion.rvm",
        "producer_consumer.rvm",
        "repeat_revocation.rvm",
        "volatile_revoke.rvm",
    ] {
        let src = std::fs::read_to_string(format!("{dir}/{name}")).expect("readable");
        let program = testprogs::assemble_corpus(&src).expect("assembles");
        let runner = Runner::new(program, "main", VmConfig::modified()).expect("runner");
        schedules += search(name, &runner, 1, &mut p);
    }
    // Distinct states, and some of them revisited: the maps were tested
    // on both sides of every dedup decision.
    assert!(p.fold_to_sip.len() > 2_000, "{} states", p.fold_to_sip.len());
    assert!(p.rounds > p.fold_to_sip.len() as u64 + schedules);
}

fn on_two_cores(r: Runner) -> Runner {
    let cfg = r.config().with_cores(2);
    Runner::new(r.program().clone(), r.entry_name(), cfg).expect("same program")
}
