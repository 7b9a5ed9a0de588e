//! Adversarial repeat-revocation benchmarks for the revocation governor.
//!
//! Two workloads, each run ungoverned ("before") and governed ("after"):
//!
//! * **staggered_probes** — the `programs/repeat_revocation.rvm` corpus
//!   program: one low-priority aggregator in a long section, a wave of
//!   staggered high-priority probes. Both configurations terminate; the
//!   governor turns the second and third revocations into queue blocking,
//!   cutting the wasted re-execution.
//! * **forced_inversion** — the test-only `fault_force_inversion` flag
//!   makes *every* contended acquire an inversion, so two equal-priority
//!   threads revoke each other forever. Ungoverned, the run livelocks
//!   (the step budget cuts it off, `completed: false`); governed, it
//!   completes with the revocation streak bounded by `k`.
//!
//! Results go to `bench_results/BENCH_governor.json`: wall time
//! (mean + ci90 over samples) next to the deterministic virtual-machine
//! counters (clock, rollbacks, discarded undo entries, throttles,
//! fallback windows, max streak) for every configuration.
//!
//! Run with `cargo bench -p revmon-bench --bench governor -- [--quick]`.

use revmon_bench::measure::{self, sample, time_ns_per_op, Args};
use revmon_core::metrics::{ci90_half_width, mean};
use revmon_core::{GovernorConfig, Priority};
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::Program;
use revmon_vm::value::Value;
use revmon_vm::{assemble, Vm, VmConfig, VmError};

/// The corpus program the CLI and CI drive; benched from the same bytes.
const STAGGERED_SRC: &str = include_str!("../../../programs/repeat_revocation.rvm");

/// Everything one deterministic run reports.
struct RunStats {
    completed: bool,
    virtual_clock: u64,
    rollbacks: u64,
    entries_rolled_back: u64,
    sections_committed: u64,
    governor_throttles: u64,
    policy_fallbacks: u64,
    max_streak: u32,
}

/// One configuration's row: the deterministic stats plus wall-time
/// samples.
struct ConfigResult {
    config: &'static str,
    governor: GovernorConfig,
    stats: RunStats,
    wall_ns: Vec<f64>,
}

fn collect(vm: &Vm, completed: bool) -> RunStats {
    let report = vm.report();
    RunStats {
        completed,
        virtual_clock: vm.clock(),
        rollbacks: report.global.rollbacks,
        entries_rolled_back: report.global.entries_rolled_back,
        sections_committed: report.global.sections_committed,
        governor_throttles: report.global.governor_throttles,
        policy_fallbacks: report.global.policy_fallbacks,
        max_streak: vm.governor().max_streak(),
    }
}

/// The staggered-probe workload straight from the corpus program.
fn run_staggered(governor: GovernorConfig) -> (RunStats, f64) {
    let program: Program = assemble(STAGGERED_SRC).expect("corpus program assembles");
    let main = program.method_by_name("main").expect("corpus program has main");
    let mut cfg = VmConfig::modified();
    cfg.governor = governor;
    let mut vm = Vm::new(program, cfg);
    vm.spawn("main", main, vec![], Priority::NORM);
    let wall = time_ns_per_op(1, || {
        vm.run().expect("staggered probes terminate under every configuration");
    });
    (collect(&vm, true), wall)
}

/// Two equal-priority threads, each running one long synchronized
/// section (`iters` increments, spanning several quanta) on one lock,
/// with every contended acquire forced to revoke.
fn run_forced(governor: GovernorConfig, iters: i64, max_steps: u64) -> (RunStats, f64) {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let worker = pb.declare_method("worker", 1);
    let mut b = MethodBuilder::new(1, 2);
    b.sync_on_local(0, |b| {
        b.repeat(1, iters, |b| b.add_static(0, 1));
    });
    b.ret_void();
    pb.implement(worker, b);

    let mut cfg = VmConfig::modified();
    cfg.fault_force_inversion = true;
    cfg.governor = governor;
    cfg.max_steps = max_steps;
    let mut vm = Vm::new(pb.finish(), cfg);
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("a", worker, vec![Value::Ref(lock)], Priority::NORM);
    vm.spawn("b", worker, vec![Value::Ref(lock)], Priority::NORM);
    let mut completed = false;
    let wall = time_ns_per_op(1, || {
        completed = match vm.run() {
            Ok(_) => true,
            Err(VmError::StepLimit(_)) => false, // the livelock, cut off
            Err(e) => panic!("unexpected VM fault: {e}"),
        };
    });
    (collect(&vm, completed), wall)
}

fn measure_config(
    config: &'static str,
    governor: GovernorConfig,
    samples: usize,
    mut one: impl FnMut(GovernorConfig) -> (RunStats, f64),
) -> ConfigResult {
    let mut stats = None;
    let wall_ns = sample(samples, || {
        let (s, w) = one(governor);
        stats = Some(s);
        w
    });
    ConfigResult { config, governor, stats: stats.expect("samples >= 1"), wall_ns }
}

fn governor_json(g: GovernorConfig) -> String {
    if g.enabled() {
        format!("{{\"k\": {}, \"backoff\": {}, \"decay\": {}}}", g.k, g.backoff, g.decay)
    } else {
        "null".into()
    }
}

fn run_json(r: &ConfigResult) -> String {
    let s = &r.stats;
    format!(
        "        {{\"config\": \"{}\", \"governor\": {}, \"completed\": {}, \
         \"wall_ns_mean\": {:.0}, \"wall_ns_ci90\": {:.0}, \
         \"virtual_clock\": {}, \"rollbacks\": {}, \"entries_rolled_back\": {}, \
         \"sections_committed\": {}, \"governor_throttles\": {}, \
         \"policy_fallbacks\": {}, \"max_streak\": {}}}",
        r.config,
        governor_json(r.governor),
        s.completed,
        mean(&r.wall_ns),
        ci90_half_width(&r.wall_ns),
        s.virtual_clock,
        s.rollbacks,
        s.entries_rolled_back,
        s.sections_committed,
        s.governor_throttles,
        s.policy_fallbacks,
        s.max_streak,
    )
}

fn workload_json(name: &str, runs: &[ConfigResult]) -> String {
    let rows: Vec<String> = runs.iter().map(run_json).collect();
    format!("    {{\"name\": \"{name}\", \"runs\": [\n{}\n      ]}}", rows.join(",\n"))
}

fn print_table(name: &str, runs: &[ConfigResult]) {
    println!("\n## {name}");
    println!(
        "{:<20} {:>9} {:>14} {:>12} {:>10} {:>10} {:>10} {:>7}",
        "config",
        "completed",
        "wall ns/run",
        "vclock",
        "rollbacks",
        "throttles",
        "fallbacks",
        "streak"
    );
    for r in runs {
        let s = &r.stats;
        println!(
            "{:<20} {:>9} {:>14.0} {:>12} {:>10} {:>10} {:>10} {:>7}",
            r.config,
            s.completed,
            mean(&r.wall_ns),
            s.virtual_clock,
            s.rollbacks,
            s.governor_throttles,
            s.policy_fallbacks,
            s.max_streak,
        );
    }
}

fn main() {
    let args = Args::from_env();
    let (samples, forced_iters, forced_cap) =
        if args.quick { (3, 2_000i64, 600_000u64) } else { (10, 2_000i64, 2_000_000u64) };

    let governed = GovernorConfig { k: 1, backoff: 4_096, decay: 0 };
    let governed_forced = GovernorConfig { k: 2, backoff: 64, decay: 0 };

    println!("governor benchmarks ({})", args.mode());

    let staggered = vec![
        measure_config("ungoverned", GovernorConfig::disabled(), samples, run_staggered),
        measure_config("governed_k1_b4096", governed, samples, run_staggered),
    ];
    print_table("staggered_probes (repeat_revocation.rvm)", &staggered);
    assert!(
        staggered[1].stats.rollbacks < staggered[0].stats.rollbacks,
        "the governor must save at least one revocation on the staggered wave"
    );
    assert!(staggered[1].stats.governor_throttles > 0);

    let forced = vec![
        measure_config("ungoverned", GovernorConfig::disabled(), samples, |g| {
            run_forced(g, forced_iters, forced_cap)
        }),
        measure_config("governed_k2_b64", governed_forced, samples, |g| {
            run_forced(g, forced_iters, forced_cap)
        }),
    ];
    print_table("forced_inversion (fault injection)", &forced);
    assert!(
        !forced[0].stats.completed,
        "ungoverned forced inversion must livelock into the step budget"
    );
    assert!(forced[1].stats.completed, "the governor must break the livelock");
    assert!(
        (1..=governed_forced.k).contains(&forced[1].stats.max_streak),
        "bounded-revocation violated, or nothing was revoked"
    );

    let body = format!(
        "  \"workloads\": [\n{},\n{}\n  ]",
        workload_json("staggered_probes", &staggered),
        workload_json("forced_inversion", &forced),
    );
    println!();
    measure::write_results("governor", args, &body);
}
