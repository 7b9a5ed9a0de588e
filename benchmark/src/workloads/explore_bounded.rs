//! `explore_bounded` — time to a verdict for the model checker.
//!
//! One *pass* runs every item of a fixed list to its verdict. Two
//! regimes on purpose: the small programs of `revmon_explore::testprogs`
//! (tens of thousands of short schedules, dominated by `Runner::run`'s
//! per-schedule `Vm::new` — rewrite and verify every schedule —
//! fingerprinting and dedup) and two corpus programs from `programs/`
//! (a hundred-odd long schedules, dominated by interpretation under a
//! probe), plus a seeded fuzz campaign and one program with an injected
//! rollback fault, which must come back *not* clean.
//!
//! * `latency_us` — one full pass (the issue's `verdict_s`): the nine
//!   items, each at its steady calibrated time over the run's passes
//!   (`stats::steady`), summed.
//! * `work_per_s` — verdicts (items) per second at that rate: the same
//!   reading the other way up, not a second measurement.
//!   `schedules_per_s` is deliberately *not* end-to-end: a partial-order
//!   reduction lowers it while reaching the verdict sooner.
//!
//! An operation is one item run. Every clean item must be clean with
//! `schedules`, `decision_points`, `pruned_*`, stall and terminal-state
//! counts equal to the golden; exploration does not depend on the seed,
//! so the seed-1 golden holds those for every seed. The fuzz campaign
//! is seeded: its counts are golden per blessed seed, and on a hold-out
//! seed it must still complete every iteration without a violation.

use super::{diff_counts, load_golden, ratio, Ctx, Outcome, PassTimes, Row, Workload};
use crate::host::mix;
use crate::json::{obj, Value};
use crate::stats;
use crate::trace::HARNESS;
use revmon_explore::{explore, fuzz, testprogs, Bounds, FuzzPlan, Runner};
use revmon_vm::VmConfig;
use std::time::Instant;

/// Fuzz iterations per pass.
pub const FUZZ_ITERS: u64 = 50;

const PRIORITY_INVERSION: &str = include_str!("../../../programs/priority_inversion.rvm");
const REPEAT_REVOCATION: &str = include_str!("../../../programs/repeat_revocation.rvm");

/// Which regime an item belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// Exhaustive exploration of a `testprogs` miniature.
    Small,
    /// Exhaustive exploration of a corpus program.
    Corpus,
    /// Seeded random schedules.
    Fuzz,
    /// Exhaustive exploration that must find the injected fault.
    Faulty,
}

/// One entry of the pass.
pub struct Item {
    /// Name in reports and goldens.
    pub name: &'static str,
    /// Regime.
    pub regime: Regime,
    /// Program, entry and configuration.
    pub runner: Runner,
    /// `max_preemptions` for the exhaustive regimes.
    pub bound: u32,
}

fn on_cores(r: &Runner, cores: usize) -> Runner {
    let mut cfg = *r.config();
    cfg.cores = cores;
    Runner::new(r.program().clone(), r.entry_name(), cfg).expect("same program, same entry")
}

fn corpus(src: &str, cores: usize) -> Runner {
    let program = testprogs::assemble_corpus(src).expect("corpus program assembles");
    let mut cfg = VmConfig::modified();
    cfg.cores = cores;
    Runner::new(program, "main", cfg).expect("corpus programs have a parameterless main")
}

/// The fixed pass. Bounds are the largest at which every item still
/// finishes in well under a second here, so a run sees several passes.
pub fn items() -> Vec<Item> {
    use Regime::*;
    let inversion = testprogs::inversion_pair();
    let item = |name, regime, runner, bound| Item { name, regime, runner, bound };
    vec![
        item("delegated_adders", Small, testprogs::delegated_adders(), 8),
        item("two_incrementers_3", Small, testprogs::two_incrementers(3), 8),
        item("deadlock_pair", Small, testprogs::deadlock_pair(), 6),
        item("inversion_pair_1core", Small, on_cores(&inversion, 1), 8),
        item("inversion_pair_2core", Small, on_cores(&inversion, 2), 8),
        item("priority_inversion_rvm", Corpus, corpus(PRIORITY_INVERSION, 1), 3),
        item("repeat_revocation_rvm", Corpus, corpus(REPEAT_REVOCATION, 2), 4),
        item("fuzz_priority_inversion_rvm", Fuzz, corpus(PRIORITY_INVERSION, 1), 0),
        item("faulty_inversion_pair", Faulty, testprogs::faulty_inversion_pair(1), 8),
    ]
}

/// Exact counts of one item run.
type Counts = Vec<(&'static str, u64)>;

/// Run one item to its verdict: `(clean, counts)`.
fn verdict(item: &Item, fuzz_seed: u64) -> (bool, Counts) {
    match item.regime {
        Regime::Fuzz => {
            let plan = FuzzPlan { iters: FUZZ_ITERS, seed: fuzz_seed, ..FuzzPlan::default() };
            let r = fuzz(&item.runner, plan);
            (
                r.failure.is_none(),
                vec![
                    ("iters", r.iters),
                    ("completed", r.completed),
                    ("stalls", r.stalls),
                    ("rollbacks", r.rollbacks),
                ],
            )
        }
        _ => {
            let bounds = Bounds { max_preemptions: item.bound, ..Bounds::default() };
            let r = explore(&item.runner, bounds);
            let s = r.stats;
            (
                r.clean() && !s.capped,
                vec![
                    ("schedules", s.schedules),
                    ("decision_points", s.decision_points),
                    ("pruned_visited", s.pruned_visited),
                    ("pruned_preemption", s.pruned_preemption),
                    ("stalls", s.stalls),
                    ("budget_exhausted", s.budget_exhausted),
                    ("rollbacks", s.rollbacks),
                    ("terminal_states", r.terminal_states.len() as u64),
                ],
            )
        }
    }
}

fn count(counts: &Counts, key: &str) -> u64 {
    counts.iter().find(|(k, _)| *k == key).map_or(0, |&(_, v)| v)
}

/// Generated inputs.
pub struct Input {
    items: Vec<Item>,
    fuzz_seed: u64,
    /// Golden for this seed (fuzz counts), if blessed.
    golden: Option<Value>,
    /// Seed-1 golden (exploration counts hold for every seed).
    golden_any_seed: Option<Value>,
    golden_error: Option<String>,
}

/// The workload.
pub struct ExploreBounded;

impl Workload for ExploreBounded {
    const NAME: &'static str = "explore_bounded";
    const SETUP_REPS: usize = 9;
    type Input = Input;

    fn setup(seed: u64) -> Input {
        let items = items();
        let mut golden_error = None;
        let mut load = |s: u64| {
            load_golden(Self::NAME, s).unwrap_or_else(|e| {
                golden_error = Some(e);
                None
            })
        };
        let golden = load(seed);
        let golden_any_seed = load(1);
        // Warm-up: every program once on its default schedule.
        for item in &items {
            std::hint::black_box(item.runner.run(&[]));
        }
        Input { items, fuzz_seed: mix(seed, 7), golden, golden_any_seed, golden_error }
    }

    fn run(input: &mut Input, ctx: &mut Ctx) -> Outcome {
        let mut out = Outcome::default();
        if let Some(e) = &input.golden_error {
            out.attempted += 1;
            out.fail(format!("golden: {e}"));
        }
        let n = input.items.len();
        let mut times = PassTimes::new(n);
        let mut first: Vec<Counts> = Vec::with_capacity(n);
        let mut pass = 0u64;
        // Whole passes until the window closes; a traced run needs one
        // pass on either side of the alternation.
        while pass <= u64::from(ctx.alternate) || !ctx.expired() {
            ctx.between_passes();
            let traced = ctx.begin_op(pass);
            let (items, fuzz_seed, calib) = (&input.items, input.fuzz_seed, &mut ctx.calib);
            let runs: Vec<(bool, Counts, Instant, f64)> =
                ctx.tracer.span("explore_pass", HARNESS, pass, |t| {
                    items
                        .iter()
                        .map(|item| {
                            // Items take up to 0.7 s: a sample right before each.
                            calib.sample();
                            let t0 = Instant::now();
                            let (clean, counts) = t.span(item.name, "explore", pass, |t| {
                                let v = verdict(item, fuzz_seed);
                                t.count(
                                    "schedules",
                                    count(&v.1, "schedules") + count(&v.1, "iters"),
                                );
                                v
                            });
                            (clean, counts, t0, t0.elapsed().as_nanos() as f64)
                        })
                        .collect()
                });
            times.begin_pass(traced);
            for (i, (clean, counts, t0, item_ns)) in runs.into_iter().enumerate() {
                out.attempted += 1;
                times.push(t0, item_ns);
                let item = &input.items[i];
                let mut problems: Vec<String> = wrong_verdict(item, clean).into_iter().collect();
                if pass == 0 {
                    problems.extend(check_golden(input, item, &counts));
                    first.push(counts);
                } else if counts != first[i] {
                    problems.push(format!("{}: pass {pass} counts differ from pass 0", item.name));
                }
                if !problems.is_empty() {
                    out.fail(problems.join("; "));
                }
            }
            pass += 1;
        }
        ctx.calib.sample();

        let cal = times.calibrated(&ctx.calib);
        let item_ns: Vec<f64> = (0..n).map(|i| cal.op_ns(i)).collect();
        let verdict_ns = cal.pass_ns();
        out.latency_us = verdict_ns / 1e3;
        out.work_per_s = n as f64 * 1e9 / verdict_ns;
        out.overhead_ratio = cal.overhead_ratio().filter(|_| ctx.alternate);
        out.rows.push(Row {
            name: "verdict_s",
            unit: "s",
            value: verdict_ns / 1e9,
            summary: Some(stats::summarize(&times.raw_pass_s())),
        });
        out.rows.push(Row {
            name: "verdict_s_floor",
            unit: "s",
            value: times.floor_ns() / 1e9,
            summary: None,
        });
        for (item, t) in input.items.iter().zip(&item_ns) {
            out.rows.push(Row { name: item.name, unit: "ms", value: t / 1e6, summary: None });
        }

        // Per-layer readings.
        let of = |regime: Regime, key: &str| -> f64 {
            input
                .items
                .iter()
                .zip(&first)
                .filter(|(it, _)| it.regime == regime)
                .map(|(_, c)| count(c, key) as f64)
                .sum()
        };
        let time_of = |regime: Regime| -> f64 {
            input
                .items
                .iter()
                .zip(&item_ns)
                .filter(|(it, _)| it.regime == regime)
                .map(|(_, t)| t)
                .sum()
        };
        let exhaustive = |key: &str| of(Regime::Small, key) + of(Regime::Corpus, key);
        let l = &mut out.layer;
        l.set(
            "explore.schedules_per_s.small",
            of(Regime::Small, "schedules") * 1e9 / time_of(Regime::Small),
        );
        l.set(
            "explore.schedules_per_s.corpus",
            of(Regime::Corpus, "schedules") * 1e9 / time_of(Regime::Corpus),
        );
        l.set(
            "explore.fuzz_schedules_per_s",
            of(Regime::Fuzz, "iters") * 1e9 / time_of(Regime::Fuzz),
        );
        l.set("explore.first_violation_ms", time_of(Regime::Faulty) / 1e6);
        let (schedules, visited) = (exhaustive("schedules"), exhaustive("pruned_visited"));
        l.set("explore.dedup_hit_ratio", ratio(visited, schedules + visited));
        l.set("explore.schedules", schedules);
        l.set("explore.decision_points", exhaustive("decision_points"));
        l.set("explore.pruned_visited", visited);
        l.set("explore.pruned_preemption", exhaustive("pruned_preemption"));
        l.set("explore.terminal_states", exhaustive("terminal_states"));
        l.set("explore.rollbacks_verified", exhaustive("rollbacks"));
        out
    }
}

/// A clean item must come back clean and the faulty one must not.
fn wrong_verdict(item: &Item, clean: bool) -> Option<String> {
    match (item.regime == Regime::Faulty, clean) {
        (true, true) => Some(format!("{}: the injected rollback fault was not found", item.name)),
        (false, false) => Some(format!("{}: verdict is not clean", item.name)),
        _ => None,
    }
}

/// Golden comparison for one item's pass-0 counts.
fn check_golden(input: &Input, item: &Item, counts: &Counts) -> Vec<String> {
    let golden = match item.regime {
        // Seeded: only this seed's golden applies.
        Regime::Fuzz => {
            if count(counts, "iters") != FUZZ_ITERS {
                return vec![format!(
                    "{}: stopped after {} iterations",
                    item.name,
                    count(counts, "iters")
                )];
            }
            input.golden.as_ref()
        }
        _ => input.golden.as_ref().or(input.golden_any_seed.as_ref()),
    };
    match golden.map(|g| g.get("items").and_then(|items| items.get(item.name))) {
        None => Vec::new(),
        Some(Some(g)) => diff_counts(item.name, counts, g),
        Some(None) => vec![format!("{}: golden has no such item; re-bless", item.name)],
    }
}

/// Run one pass for `seed` and return the golden document (`--bless`).
pub fn bless(seed: u64) -> Value {
    let fuzz_seed = mix(seed, 7);
    let items = items();
    let members = items.iter().map(|item| {
        let (clean, counts) = verdict(item, fuzz_seed);
        let mut m = vec![("clean".to_string(), Value::from(clean))];
        m.extend(counts.iter().map(|&(k, v)| (k.to_string(), Value::from(v))));
        (item.name, Value::Obj(m))
    });
    obj([
        ("workload", Value::from(ExploreBounded::NAME)),
        ("seed", Value::from(seed)),
        ("items", obj(members)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pass_has_both_regimes_a_fuzz_campaign_and_exactly_one_fault() {
        let items = items();
        let n = |r: Regime| items.iter().filter(|i| i.regime == r).count();
        assert_eq!(
            (n(Regime::Small), n(Regime::Corpus), n(Regime::Fuzz), n(Regime::Faulty)),
            (5, 2, 1, 1)
        );
        assert_eq!(items[4].runner.config().cores, 2);
    }

    #[test]
    fn a_fault_that_comes_back_clean_fails_the_run() {
        // The same program without the injected fault, labelled as the
        // faulty item: what a checker that lost its oracle would report.
        let blind = Item {
            name: "faulty_inversion_pair",
            regime: Regime::Faulty,
            runner: testprogs::inversion_pair(),
            bound: 8,
        };
        let (clean, _) = verdict(&blind, 1);
        assert!(clean);
        assert!(wrong_verdict(&blind, clean).expect("must fail").contains("was not found"));
        let items = items();
        assert_eq!(wrong_verdict(&items[8], false), None);
        assert_eq!(wrong_verdict(&items[0], true), None);
        assert!(wrong_verdict(&items[0], false).expect("must fail").contains("not clean"));
    }

    #[test]
    fn the_faulty_item_is_not_clean_and_a_clean_one_is() {
        let items = items();
        let faulty = items.iter().find(|i| i.regime == Regime::Faulty).unwrap();
        assert!(!verdict(faulty, 1).0, "the injected fault must be found");
        let (clean, counts) = verdict(&items[3], 1);
        assert!(clean);
        assert!(count(&counts, "schedules") > 0 && count(&counts, "rollbacks") > 0);
    }
}
