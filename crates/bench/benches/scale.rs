//! Millions-of-monitors scale benchmark.
//!
//! Two claims from the compact-monitor + O(1)-queue work, measured:
//!
//! 1. **Footprint** — a [`MonitorArena`] of 1M monitors (100k in
//!    `--quick`) costs ≤ [`BYTES_BUDGET`] bytes per *idle* monitor,
//!    amortized, even after inflate/deflate churn has populated the fat
//!    side table (pooled records are shared, not per-monitor). Measured
//!    with a counting global allocator (net live bytes). The repo
//!    benchmark has no footprint metric; this is the one place it is
//!    taken.
//! 2. **Queue latency** — `PrioritizedQueue` pop+refill latency is flat
//!    (within [`FLATNESS_BUDGET`]×) from 1 to 256 waiters. Only the ratio
//!    is gated; the absolute figures are `core.queue_push_pop_ns.*` in
//!    `BENCHMARK.json`, and the seed's linear-scan queue it replaced is
//!    modelled in `crates/core/tests/queue_differential.rs`.
//!
//! Results go to `bench_results/BENCH_scale.json`. `--check` turns the
//! budgets into hard gates (exit 1) — the CI `scale-smoke` job.
//!
//! Run with
//! `cargo bench -p revmon-bench --bench scale -- [--quick] [--check]`.

use revmon_bench::measure::{self, sample, time_ns_per_op, Args};
use revmon_core::metrics::{ci90_half_width, mean};
use revmon_core::{PrioritizedQueue, Priority, QueueDiscipline};
use revmon_locks::{MonitorArena, TCell};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::thread;

/// Amortized idle bytes per monitor the arena may cost (ISSUE budget).
const BYTES_BUDGET: f64 = 16.0;
/// Max allowed pop-latency growth from 1 to 256 waiters (ISSUE budget).
const FLATNESS_BUDGET: f64 = 1.5;

// ------------------------------------------------------- allocator meter

/// Counting wrapper over the system allocator: net live bytes, so the
/// arena's steady-state footprint is measurable rather than inferred.
struct CountingAlloc;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: delegates allocation verbatim to `System`; only the counters
// are added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

// ------------------------------------------------------------- monitors

struct MonitorReport {
    count: usize,
    idle_bytes_per_monitor: f64,
    churn_inflations: u64,
    churn_deflations: u64,
}

/// One deterministic inflate/deflate round on monitor `idx`: a holder
/// keeps its section open until a contender has blocked on the monitor
/// (which inflates it), then exits and hands over; the contender's exit
/// finds nothing queued and deflates.
fn churn_round(arena: &MonitorArena, idx: usize) {
    let c = TCell::new(0i64);
    let m = arena.get(idx);
    let before = arena.stats().contended;
    let inside = AtomicBool::new(false);
    thread::scope(|s| {
        s.spawn(|| {
            m.enter(Priority::NORM, |tx| {
                tx.update(&c, |v| v + 1);
                inside.store(true, Ordering::Release);
                while arena.stats().contended == before {
                    std::hint::spin_loop();
                }
            });
        });
        // Touch the monitor only once the holder owns it, then block
        // behind it.
        while !inside.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        m.enter(Priority::NORM, |tx| tx.update(&c, |v| v + 1));
    });
    assert_eq!(c.read_unsynchronized(), 2, "churn round lost an update");
}

fn bench_monitors(count: usize, churn_rounds: usize) -> MonitorReport {
    // Warm process-wide laziness (thread slot, side-table chunk, stats
    // registry growth) *before* the baseline so the arena measurement
    // captures the arena, not one-time globals.
    churn_round(&MonitorArena::new(1), 0);
    let before = live_bytes();
    let arena = MonitorArena::new(count);
    let idle_after_create = live_bytes() - before;
    // Touch a scatter of monitors: uncontended thin enter/exit of a live
    // monitor must not allocate (the zero-alloc steady-state invariant,
    // now at arena scale).
    for i in (0..count).step_by(97.max(count / 10_000)) {
        arena.get(i).enter_norm(|_tx| {});
    }
    // Inflate/deflate churn on a scatter of arena monitors exercises the
    // pooled side table at scale; afterwards everything is deflated, so
    // the bytes we see are the *idle* footprint plus the (shared,
    // amortized) pooled records.
    for r in 0..churn_rounds {
        churn_round(&arena, (r * 7919) % count);
    }
    let st = arena.stats();
    let idle_after_churn = live_bytes() - before;
    MonitorReport {
        count,
        // The post-churn number is the honest one: it includes the side
        // table's pooled records (shared across all monitors).
        idle_bytes_per_monitor: idle_after_churn.max(idle_after_create) as f64 / count as f64,
        churn_inflations: st.inflations,
        churn_deflations: st.deflations,
    }
}

// ---------------------------------------------------------------- queue

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn prio(&mut self) -> Priority {
        Priority::new((self.next() % 10 + 1) as u8)
    }
}

struct QueueRow {
    waiters: usize,
    pop_ns: f64,
    pop_ci90_ns: f64,
}

/// ns per pop+refill cycle at steady population `waiters`.
fn queue_rows(waiter_counts: &[usize], samples: usize, iters: u64) -> Vec<QueueRow> {
    waiter_counts
        .iter()
        .map(|&w| {
            let mut round = 0u64;
            let pops = sample(samples, || {
                let mut rng = Lcg(0xA24BAED4963EE407 ^ (w as u64) << 8 ^ round);
                round += 1;
                let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
                for i in 0..w {
                    q.push(i as u64, rng.prio());
                }
                time_ns_per_op(iters, || {
                    let v = q.pop().expect("population is stable");
                    q.push(black_box(v), rng.prio());
                })
            });
            QueueRow { waiters: w, pop_ns: mean(&pops), pop_ci90_ns: ci90_half_width(&pops) }
        })
        .collect()
}

// ----------------------------------------------------------------- main

fn results_body(mon: &MonitorReport, queue: &[QueueRow], flatness: f64) -> String {
    let rows: Vec<String> = queue
        .iter()
        .map(|r| {
            format!(
                "    {{\"waiters\": {}, \"pop_ns\": {:.2}, \"ci90_ns\": {:.2}}}",
                r.waiters, r.pop_ns, r.pop_ci90_ns
            )
        })
        .collect();
    format!(
        "  \"monitors\": {{\"count\": {}, \"idle_bytes_per_monitor\": {:.2}, \
         \"budget_bytes\": {BYTES_BUDGET:.1}, \"churn_inflations\": {}, \
         \"churn_deflations\": {}}},\n  \
         \"queue\": {{\"flatness_ratio\": {flatness:.3}, \
         \"budget_ratio\": {FLATNESS_BUDGET:.1}, \"rows\": [\n{}\n  ]}}",
        mon.count,
        mon.idle_bytes_per_monitor,
        mon.churn_inflations,
        mon.churn_deflations,
        rows.join(",\n")
    )
}

fn main() {
    let args = Args::from_env();
    let (monitors, churn, samples, iters) =
        if args.quick { (100_000, 32, 6, 100_000u64) } else { (1_000_000, 256, 12, 500_000u64) };
    let waiter_counts = [1usize, 4, 16, 64, 256];

    println!("scale benchmark ({})", args.mode());

    let mon = bench_monitors(monitors, churn);
    println!(
        "monitors: {} live, {:.2} bytes/monitor idle (budget {:.1}), \
         churn {} inflations / {} deflations",
        mon.count,
        mon.idle_bytes_per_monitor,
        BYTES_BUDGET,
        mon.churn_inflations,
        mon.churn_deflations
    );

    let queue = queue_rows(&waiter_counts, samples, iters);
    println!("{:<10} {:>14} {:>10}", "waiters", "pop ns", "ci90");
    for r in &queue {
        println!("{:<10} {:>14.2} {:>10.2}", r.waiters, r.pop_ns, r.pop_ci90_ns);
    }
    let flatness = queue.last().unwrap().pop_ns / queue.first().unwrap().pop_ns;
    println!("flatness (256 vs 1 waiters): {flatness:.3}x (budget {FLATNESS_BUDGET:.1}x)");

    measure::write_results("scale", args, &results_body(&mon, &queue, flatness));

    if args.check {
        let mut failed = false;
        if mon.idle_bytes_per_monitor > BYTES_BUDGET {
            eprintln!(
                "FOOTPRINT: {:.2} bytes/monitor exceeds the {BYTES_BUDGET:.1}-byte budget",
                mon.idle_bytes_per_monitor
            );
            failed = true;
        }
        if mon.churn_inflations != mon.churn_deflations {
            eprintln!(
                "LEAK: {} inflations vs {} deflations after churn",
                mon.churn_inflations, mon.churn_deflations
            );
            failed = true;
        }
        if flatness > FLATNESS_BUDGET {
            eprintln!(
                "QUEUE: pop latency grew {flatness:.3}x from 1 to 256 waiters \
                 (budget {FLATNESS_BUDGET:.1}x)"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("scale gates ok");
    }
}
