//! A reused [`Machine`] against a fresh one.
//!
//! A machine builds every run's VM and oracle fresh in the buffers the
//! run before left, so nothing a run reports may depend on what ran on
//! the machine before it. One machine is carried here across the whole
//! corpus at 1 and 2 cores under four configurations, every `testprogs`
//! runner, and a spread of scripts, the programs interleaved so that
//! each run inherits buffers shaped by a different program, core count
//! or configuration; each outcome must equal, field for field, what
//! [`Runner::run`] — a run on a new machine — reports for the same
//! script.

use revmon_core::{DetectionStrategy, GovernorConfig};
use revmon_explore::{testprogs, Machine, Runner};
use revmon_vm::VmConfig;

const CORPUS: [&str; 8] = [
    "counter.rvm",
    "deadlock.rvm",
    "delegation_storm.rvm",
    "nested_wait_revoke.rvm",
    "priority_inversion.rvm",
    "producer_consumer.rvm",
    "repeat_revocation.rvm",
    "volatile_revoke.rvm",
];

/// The default schedule, early and late deviations, and out-of-range
/// and default entries.
const SCRIPTS: [&[u32]; 6] =
    [&[], &[1], &[0, 1, 1], &[2, 0, 0, 1], &[1, 1, 1, 1, 1, 1], &[u32::MAX, 3, 1]];

/// The configurations the corpus runs under: the modified VM, the
/// unmodified one (no rewrite, no barriers), an injected rollback fault
/// and inversion detection in the background.
fn configs(cores: usize) -> [VmConfig; 4] {
    let modified = VmConfig::modified().with_cores(cores);
    let mut faulty = modified;
    faulty.fault_skip_undo = 1;
    let mut background = modified;
    background.detection = DetectionStrategy::Background { period: 500 };
    [modified, VmConfig::unmodified().with_cores(cores), faulty, background]
}

fn corpus() -> Vec<(String, Runner)> {
    let mut runners = Vec::new();
    for name in CORPUS {
        let path = format!("{}/../../programs/{name}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let program = testprogs::assemble_corpus(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for cores in [1, 2] {
            for (i, cfg) in configs(cores).into_iter().enumerate() {
                let runner = Runner::new(program.clone(), "main", cfg)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                runners.push((format!("{name} cores={cores} config={i}"), runner));
            }
        }
    }
    runners
}

fn small() -> Vec<(String, Runner)> {
    let governed = GovernorConfig { k: 1, backoff: 8, decay: 0 };
    let mut livelock = testprogs::forced_repeat_revocation(GovernorConfig::disabled());
    livelock.max_rounds = 500;
    let inversion = testprogs::inversion_pair();
    let mut two_cores = *inversion.config();
    two_cores.cores = 2;
    let inversion_2core = Runner::new(inversion.program().clone(), "main", two_cores).unwrap();
    [
        ("two_incrementers(3)", testprogs::two_incrementers(3)),
        ("inversion_pair", inversion),
        ("inversion_pair 2 cores", inversion_2core),
        ("faulty_inversion_pair(1)", testprogs::faulty_inversion_pair(1)),
        ("forced_repeat_revocation(k=1)", testprogs::forced_repeat_revocation(governed)),
        ("forced_repeat_revocation(ungoverned)", livelock),
        ("delegated_adders", testprogs::delegated_adders()),
        ("deadlock_pair", testprogs::deadlock_pair()),
    ]
    .into_iter()
    .map(|(name, runner)| (name.to_string(), runner))
    .collect()
}

/// Run every script of every runner on one machine, the runners taking
/// turns, and compare each outcome with a fresh machine's.
fn agree(runners: &[(String, Runner)]) {
    let mut machine = Machine::new();
    for script in SCRIPTS {
        for (name, runner) in runners {
            let (reused, back) = machine.run(runner, script.to_vec());
            assert_eq!(back, script, "{name}: the script comes back");
            let fresh = runner.run(script);
            // `RunOutcome`'s `Debug` spells out every field.
            assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{name} script={script:?}");
        }
    }
}

#[test]
fn a_reused_machine_reports_what_a_fresh_one_does_on_the_testprogs() {
    agree(&small());
}

#[test]
fn a_reused_machine_reports_what_a_fresh_one_does_on_the_corpus() {
    let mut runners = corpus();
    // Interleave the miniatures too: their buffers are small, the
    // corpus's large.
    runners.extend(small());
    agree(&runners);
}
