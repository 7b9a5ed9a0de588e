//! Ablation A1 (DESIGN.md): the same contention workload under every
//! inversion policy and both detection strategies, plus FIFO-vs-priority
//! entry queues — the design choices §1.1 and §4 call out.
//!
//! Run with `cargo bench -p revmon-bench --bench ablation_policies`.
//! Each table's runs are independent and deterministic; they run on
//! every core, and print in table order.

use revmon_bench::{on_every_core, run_cell_with_config, BenchParams, Scale};
use revmon_core::{DetectionStrategy, InversionPolicy, Priority, QueueDiscipline};
use revmon_vm::VmConfig;

fn params(scale: &Scale, write_pct: i64) -> BenchParams {
    BenchParams {
        high_threads: 2,
        low_threads: 8,
        high_iters: scale.high_iters_small,
        low_iters: scale.low_iters,
        sections: scale.sections,
        write_pct,
        modified: true,
        seed: 0xAB1A7E,
        quantum: scale.quantum,
    }
}

fn main() {
    let scale = Scale::default_scale();
    let p = params(&scale, 40);
    println!("# Ablation: 2 high + 8 low, 40% writes, scaled workload");
    println!(
        "{:<44} {:>14} {:>14} {:>10}",
        "configuration", "high-elapsed", "overall", "rollbacks"
    );

    let cases: Vec<(&str, VmConfig)> = vec![
        ("blocking (unmodified VM)", VmConfig::unmodified()),
        ("revocation, detect at acquisition", VmConfig::modified()),
        ("revocation, background detection (quantum)", {
            let mut c = VmConfig::modified();
            c.detection = DetectionStrategy::Background { period: c.cost.quantum };
            c
        }),
        ("revocation, FIFO monitor queues", {
            let mut c = VmConfig::modified();
            c.queue_discipline = QueueDiscipline::Fifo;
            c
        }),
        ("revocation, livelock guard = 4", {
            let mut c = VmConfig::modified();
            c.max_consecutive_revocations = 4;
            c
        }),
        ("revocation + write-barrier elision", VmConfig::modified().with_elision()),
        ("blocking, priority-preemptive scheduler", {
            let mut c = VmConfig::unmodified();
            c.scheduler = revmon_vm::SchedulerKind::PriorityPreemptive;
            c
        }),
        ("revocation, priority-preemptive scheduler", {
            let mut c = VmConfig::modified();
            c.scheduler = revmon_vm::SchedulerKind::PriorityPreemptive;
            c
        }),
        ("priority inheritance, preemptive scheduler", {
            let mut c = VmConfig::unmodified();
            c.policy = InversionPolicy::PriorityInheritance;
            c.scheduler = revmon_vm::SchedulerKind::PriorityPreemptive;
            c
        }),
        ("priority ceiling = MAX, preemptive scheduler", {
            let mut c = VmConfig::unmodified();
            c.policy = InversionPolicy::PriorityCeiling(Priority::MAX);
            c.scheduler = revmon_vm::SchedulerKind::PriorityPreemptive;
            c
        }),
    ];

    let results = on_every_core(&cases, |&(_, cfg)| run_cell_with_config(&p, cfg));
    for ((name, _), r) in cases.iter().zip(results) {
        println!(
            "{:<44} {:>14} {:>14} {:>10}",
            name, r.high_elapsed, r.overall_elapsed, r.metrics.rollbacks
        );
    }

    println!("\n# sweep: quantum sensitivity (the scaled grid's one free proportion)");
    println!("{:<12} {:>14} {:>14} {:>10}", "quantum", "high-elapsed", "overall", "rollbacks");
    let quanta = [15_000u64, 30_000, 60_000, 120_000, 240_000];
    let results = on_every_core(&quanta, |&quantum| {
        run_cell_with_config(&BenchParams { quantum, ..p }, VmConfig::modified())
    });
    for (q, r) in quanta.iter().zip(results) {
        println!(
            "{:<12} {:>14} {:>14} {:>10}",
            q, r.high_elapsed, r.overall_elapsed, r.metrics.rollbacks
        );
    }

    println!("\n# sweep: write-barrier cost sensitivity (revocation VM, barrier_slow in ticks)");
    println!("{:<12} {:>14} {:>14}", "barrier_slow", "high-elapsed", "overall");
    let slows = [0u64, 2, 4, 8, 16];
    let results = on_every_core(&slows, |&slow| {
        let mut c = VmConfig::modified();
        c.cost.barrier_slow = slow;
        run_cell_with_config(&p, c)
    });
    for (slow, r) in slows.iter().zip(results) {
        println!("{:<12} {:>14} {:>14}", slow, r.high_elapsed, r.overall_elapsed);
    }
}
