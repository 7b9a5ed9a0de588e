//! Deterministic re-execution of one program under one decision script.
//!
//! The runner is the explorer's execution substrate: it rewrites and
//! verifies its program once, builds a fresh VM from that prepared
//! program for every schedule (stateless model checking — re-execution
//! instead of checkpointing), installs a [`Scripted`] policy and the
//! invariant [`Oracle`], then drives [`Vm::run_round`] one scheduling
//! round at a time. Once the script is used up it fingerprints the
//! machine before each round; if the round consumed a scheduling decision
//! (≥ 2 runnable candidates), that fingerprint identifies the choice
//! point for deduplication. Rounds replaying the scripted prefix are not
//! fingerprinted: the explorer expanded those choice points when an
//! ancestor run first passed them and never looks at them again.

use crate::invariants::{check_state, check_terminal, Oracle, Violation};
use revmon_vm::bytecode::{MethodId, Program};
use revmon_vm::value::Value;
use revmon_vm::{DecisionRecord, PreparedProgram, RoundOutcome, Scripted, Vm, VmConfig, VmError};

/// How a scripted run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Terminal {
    /// Every thread terminated.
    Completed,
    /// No thread could make progress (undetected/unbroken deadlock or a
    /// lost wakeup). A distinct terminal class, not automatically a bug.
    Stalled,
    /// The round budget ran out before termination.
    Budget,
    /// A state-invariant violation stopped the run early.
    CheckFailed,
    /// The VM faulted.
    Fault(String),
}

/// One multi-candidate choice point passed during a run.
#[derive(Clone, Copy, Debug)]
pub struct DecisionPoint {
    /// State fingerprint immediately before the scheduling round that
    /// consumed this decision — or 0 for a decision inside the scripted
    /// prefix, where nobody reads it and hashing the machine is skipped.
    pub fingerprint: u64,
    /// What was decided.
    pub record: DecisionRecord,
}

/// Everything observable about one scripted run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Choice points in execution order.
    pub decisions: Vec<DecisionPoint>,
    /// How the run ended.
    pub terminal: Terminal,
    /// Fingerprint of the final state.
    pub fingerprint: u64,
    /// Values emitted via the `Emit` native.
    pub output: Vec<Value>,
    /// Final static-slot values (the committed shared state).
    pub statics: Vec<Value>,
    /// Every invariant violation (state checks + oracle).
    pub violations: Vec<Violation>,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Rollbacks the oracle verified.
    pub rollbacks: u64,
    /// Final virtual-clock value.
    pub clock: u64,
    /// Hash of the terminal heap alone (objects + statics). Unlike
    /// `fingerprint` it excludes scheduling state and the clock, so for
    /// data-race-free programs it is identical across schedules *and*
    /// core counts — the cross-core differential property.
    pub heap_fingerprint: u64,
    /// Cross-core revocation IPIs `(posted, acked, stale)` — all zero on
    /// a single core.
    pub ipis: (u64, u64, u64),
}

impl RunOutcome {
    /// The decision indices actually taken — feeding these back as the
    /// script reproduces this run bit-for-bit.
    pub fn choices(&self) -> Vec<u32> {
        self.decisions.iter().map(|d| d.record.chosen).collect()
    }

    /// Forced deviations from the fair default schedule (what the
    /// explorer's context bound counts) in this run.
    pub fn preemptions(&self) -> u32 {
        self.decisions.iter().filter(|d| d.record.is_preemption()).count() as u32
    }

    /// Whether any violation carries the given invariant name.
    pub fn violates(&self, invariant: &str) -> bool {
        self.violations.iter().any(|v| v.invariant == invariant)
    }
}

/// A reusable harness: program + entry + base configuration.
#[derive(Clone, Debug)]
pub struct Runner {
    /// The program as given (what [`Runner::program`] returns).
    program: Program,
    /// The same program rewritten for `config` and verified — what every
    /// run executes.
    prepared: PreparedProgram,
    entry: MethodId,
    entry_name: String,
    config: VmConfig,
    /// Hard cap on scheduling rounds per run (0 = unlimited). Guards the
    /// explorer against schedules that diverge.
    pub max_rounds: u64,
    /// Run the (cheap) state invariants between every round, not just at
    /// the end. Default true; the CLI disables it for large corpora.
    pub check_every_round: bool,
}

impl Runner {
    /// A runner executing `entry` of `program` under `config`.
    ///
    /// The scheduler named in `config` is ignored — every run is driven
    /// by a [`Scripted`] policy — but everything else (inversion policy,
    /// cost model, seed, fault injection) applies as configured.
    ///
    /// The program is rewritten (if `config` asks) and verified here,
    /// once; a program the verifier rejects is an `Err` listing its
    /// findings.
    pub fn new(program: Program, entry_name: &str, config: VmConfig) -> Result<Self, String> {
        let entry = program
            .method_by_name(entry_name)
            .ok_or_else(|| format!("no method named `{entry_name}`"))?;
        if program.method(entry).params != 0 {
            return Err(format!("entry method `{entry_name}` must take no parameters"));
        }
        let prepared = PreparedProgram::new(program.clone(), &config).map_err(|errors| {
            let findings: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
            format!("program failed verification:\n  {}", findings.join("\n  "))
        })?;
        Ok(Runner {
            program,
            prepared,
            entry,
            entry_name: entry_name.to_string(),
            config,
            max_rounds: 1_000_000,
            check_every_round: true,
        })
    }

    /// The VM configuration runs execute under.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// The entry method name.
    pub fn entry_name(&self) -> &str {
        &self.entry_name
    }

    /// The program this runner executes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Execute the program once under `script`, collecting decisions,
    /// fingerprints and violations.
    pub fn run(&self, script: &[u32]) -> RunOutcome {
        let mut vm = Vm::from_prepared(&self.prepared, self.config);
        let (policy, log) = Scripted::new(script.to_vec());
        vm.set_schedule_policy(Box::new(policy));
        vm.attach_probe(Box::new(Oracle::new()));
        vm.spawn(&self.entry_name, self.entry, vec![], revmon_core::Priority::NORM);
        self.drive(vm, script.len(), log)
    }

    fn drive(&self, mut vm: Vm, script_len: usize, log: revmon_vm::sched::ScriptLog) -> RunOutcome {
        let mut decisions: Vec<DecisionPoint> = Vec::new();
        let mut violations: Vec<Violation> = Vec::new();
        let mut rounds: u64 = 0;
        let terminal = loop {
            // A round can only consume a decision when ≥ 2 threads are
            // queued, and only decisions past the scripted prefix are
            // ever deduplicated; skip the (expensive) fingerprint
            // otherwise.
            let fingerprint = if decisions.len() >= script_len && vm.run_queue_len() >= 2 {
                vm.state_fingerprint()
            } else {
                0
            };
            let consumed_before = log.lock().expect("script log").len();
            match vm.run_round() {
                Ok(RoundOutcome::Done) => break Terminal::Completed,
                Ok(_) => {}
                Err(VmError::Stalled(_)) => break Terminal::Stalled,
                Err(e) => break Terminal::Fault(e.to_string()),
            }
            {
                let recs = log.lock().expect("script log");
                if recs.len() > consumed_before {
                    debug_assert_eq!(recs.len(), consumed_before + 1);
                    decisions.push(DecisionPoint { fingerprint, record: recs[consumed_before] });
                }
            }
            if self.check_every_round {
                let vs = check_state(&vm);
                if !vs.is_empty() {
                    violations.extend(vs);
                    break Terminal::CheckFailed;
                }
            }
            rounds += 1;
            if self.max_rounds != 0 && rounds >= self.max_rounds {
                break Terminal::Budget;
            }
        };

        if terminal == Terminal::Completed {
            violations.extend(check_terminal(&vm));
        } else if !self.check_every_round {
            violations.extend(check_state(&vm));
        }
        let oracle = Oracle::detach(&mut vm).expect("run() attached the oracle");
        violations.extend(oracle.violations);

        let statics = (0..vm.heap().static_count())
            .map(|i| {
                vm.heap().read(revmon_vm::heap::Location::Static(i as u32)).unwrap_or(Value::Null)
            })
            .collect();
        RunOutcome {
            decisions,
            terminal,
            fingerprint: vm.state_fingerprint(),
            output: vm.output().to_vec(),
            statics,
            violations,
            rounds,
            rollbacks: oracle.rollbacks_checked,
            clock: vm.clock(),
            heap_fingerprint: vm.heap_fingerprint(),
            ipis: (vm.ipis_posted(), vm.ipis_acked(), vm.ipis_stale()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testprogs;

    #[test]
    fn empty_script_is_the_preemption_free_run() {
        let runner = testprogs::two_incrementers(1);
        let out = runner.run(&[]);
        assert_eq!(out.terminal, Terminal::Completed);
        assert_eq!(out.preemptions(), 0);
        assert!(out.violations.is_empty(), "violations: {:?}", out.violations);
    }

    #[test]
    fn replaying_recorded_choices_reproduces_the_run() {
        let runner = testprogs::two_incrementers(1);
        let a = runner.run(&[1]);
        let b = runner.run(&a.choices());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.output, b.output);
        assert_eq!(a.clock, b.clock);
        assert_eq!(a.choices(), b.choices());
    }

    #[test]
    fn only_decisions_past_the_scripted_prefix_are_fingerprinted() {
        let runner = testprogs::two_incrementers(1);
        let free = runner.run(&[]);
        assert!(free.decisions.len() >= 2, "need a prefix and a tail");
        assert!(free.decisions.iter().all(|d| d.fingerprint != 0));
        // Replaying the first k choices follows the same schedule: the
        // prefix is not hashed, the tail hashes to the same states.
        let k = free.decisions.len() / 2;
        let scripted = runner.run(&free.choices()[..k]);
        assert_eq!(scripted.choices(), free.choices());
        for (d, (s, f)) in scripted.decisions.iter().zip(&free.decisions).enumerate() {
            assert_eq!(s.fingerprint, if d < k { 0 } else { f.fingerprint }, "decision {d}");
        }
        assert_eq!(scripted.fingerprint, free.fingerprint);
    }

    #[test]
    fn different_choices_reach_different_intermediate_schedules() {
        let runner = testprogs::two_incrementers(1);
        let a = runner.run(&[]);
        // Deviate from the baseline at its first decision point.
        let first = a.decisions.first().expect("baseline has decisions").record;
        let alt = (0..first.n_candidates).find(|&c| c != first.chosen).expect(">= 2 candidates");
        let b = runner.run(&[alt]);
        // Same program, same final committed state (DRF counter), but the
        // schedules must actually differ somewhere.
        assert_eq!(a.statics, b.statics);
        assert_ne!(a.choices(), b.choices());
    }
}
