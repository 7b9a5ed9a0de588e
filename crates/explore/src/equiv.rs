//! Cross-policy result equivalence.
//!
//! The paper's central claim is that revocable monitors are
//! *transparent*: for data-race-free, deadlock-free programs, running
//! under the modified VM (revocation) must produce the same committed
//! shared state as running under standard blocking monitors — rollbacks
//! may reorder and re-execute work, but they must never change what the
//! program ultimately computes.
//!
//! [`check_cross_policy`] tests exactly that: it runs the same program
//! and decision scripts under [`InversionPolicy::Revocation`] and the
//! [`InversionPolicy::Blocking`] reference, and compares the final
//! static slots and emitted output. Write barriers are compiled per
//! policy (`needs_logging()`), so the blocking run is the barrier-free
//! configuration. Because the policies reach different choice points,
//! the shared script acts as a *schedule perturbation*, not a
//! bit-identical schedule — which is the point: equivalence must hold
//! for every schedule of every VM.
//!
//! Only apply this to DRF, deadlock-free programs. A deadlocking program
//! legitimately diverges (revocation breaks the deadlock; blocking
//! stalls), and a racy program's final state is schedule-dependent under
//! *both* policies.

use crate::invariants::Violation;
use crate::runner::{Runner, Terminal};
use revmon_core::InversionPolicy;
use revmon_vm::bytecode::Program;
use revmon_vm::value::Value;
use revmon_vm::VmConfig;

/// Result of a cross-policy comparison.
#[derive(Clone, Debug, Default)]
pub struct EquivReport {
    /// Schedule scripts compared (including the implicit empty script).
    pub schedules: u64,
    /// Detected divergences, as `cross-policy-equivalence` violations.
    pub violations: Vec<Violation>,
}

impl EquivReport {
    /// Whether every compared schedule agreed across policies.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Output compared as a multiset: emits from different threads may
/// legitimately interleave differently across policies.
fn sorted_debug(values: &[Value]) -> Vec<String> {
    let mut v: Vec<String> = values.iter().map(|x| format!("{x:?}")).collect();
    v.sort();
    v
}

/// A configuration for `policy`, with the write barriers compiled in
/// only when the policy can roll back (the "modified VM" is modified
/// *for* revocation; blocking runs barrier-free).
fn cfg_for(base: VmConfig, policy: InversionPolicy) -> VmConfig {
    let mut cfg = base;
    cfg.policy = policy;
    cfg.barriers = policy.needs_logging();
    cfg
}

/// Compare `program` under revocation against the blocking reference,
/// across the empty script plus each script in `schedules`.
pub fn check_cross_policy(
    program: &Program,
    entry: &str,
    base: VmConfig,
    schedules: &[Vec<u32>],
) -> Result<EquivReport, String> {
    let runner = |p| Runner::new(program.clone(), entry, cfg_for(base, p));
    let reference = runner(InversionPolicy::Blocking)?;
    let candidate = runner(InversionPolicy::Revocation)?;

    let empty: Vec<u32> = Vec::new();
    let mut report = EquivReport::default();
    for script in std::iter::once(&empty).chain(schedules.iter()) {
        report.schedules += 1;
        let b = reference.run(script);
        let a = candidate.run(script);
        let mut diverged = |what: &str, a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
            report.violations.push(Violation {
                invariant: "cross-policy-equivalence",
                detail: format!(
                    "script {script:?}: {what} diverged (Revocation: {a:?}, blocking: {b:?})"
                ),
            })
        };
        if a.terminal != Terminal::Completed || b.terminal != Terminal::Completed {
            if a.terminal != b.terminal {
                diverged("terminal", &a.terminal, &b.terminal);
            }
            continue;
        }
        if a.statics != b.statics {
            diverged("final statics", &a.statics, &b.statics);
        }
        if sorted_debug(&a.output) != sorted_debug(&b.output) {
            diverged("output", &a.output, &b.output);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testprogs;

    #[test]
    fn counter_commits_the_same_total_under_both_policies() {
        let runner = testprogs::two_incrementers(2);
        let scripts = vec![vec![1], vec![1, 1], vec![0, 1, 0, 1]];
        let report = check_cross_policy(runner.program(), "main", *runner.config(), &scripts)
            .expect("valid program");
        assert_eq!(report.schedules, 4);
        assert!(report.clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn inversion_miniature_is_policy_transparent() {
        let runner = testprogs::inversion_pair();
        let scripts = vec![vec![1], vec![1, 0, 1]];
        let report = check_cross_policy(runner.program(), "main", *runner.config(), &scripts)
            .expect("valid program");
        assert!(report.clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn delegated_adders_are_policy_transparent() {
        let runner = testprogs::delegated_adders();
        let scripts = vec![vec![1], vec![1, 0, 1], vec![2, 1, 0]];
        let report = check_cross_policy(runner.program(), "main", *runner.config(), &scripts)
            .expect("valid program");
        assert_eq!(report.schedules, 4);
        assert!(report.clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn unknown_entry_is_an_error() {
        let runner = testprogs::inversion_pair();
        assert!(check_cross_policy(runner.program(), "nope", *runner.config(), &[]).is_err());
    }
}
