//! Hot-path microbenchmarks of the `revmon-locks` runtime.
//!
//! Where the figure benches reproduce the paper's *relative* results,
//! this bench tracks the library's *absolute* overhead — the numbers the
//! paper's argument rests on ("a fast-path test on every non-local
//! update", §1.1): uncontended `enter`/`exit`, read/write barrier
//! throughput, nested sections, and the contended revocation round-trip.
//!
//! Results go to `bench_results/BENCH_hotpath.json` in the same
//! mean+ci90 shape as the figure summaries, together with the
//! seed-commit reference numbers so the speedup trajectory stays
//! visible. With `--check`, the run fails (exit 1) when uncontended
//! enter/exit regresses more than [`REGRESSION_TOLERANCE`] against the
//! committed baseline ([`BASELINE_NS`]) — the CI perf gate.
//!
//! With `--overhead`, the run additionally measures the *profiling
//! self-overhead*: `enter_exit` and `logged_write` with the always-on
//! revocation phase timers (`revmon_obs::prof`) force-disabled vs
//! enabled, interleaved sample-by-sample to cancel drift. The on/off
//! ratio must stay within [`OVERHEAD_BUDGET`] or the run fails (exit 1)
//! — the CI guard that keeps the profiling layer cheap enough to leave
//! on. The rows are published into `BENCH_hotpath.json`.
//!
//! Run with
//! `cargo bench -p revmon-bench --bench hotpath -- [--quick] [--check] [--overhead]`.

use revmon_core::metrics::{ci90_half_width, mean};
use revmon_core::Priority;
use revmon_locks::{RevocableMonitor, TCell};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

/// Reference numbers measured at the pre-optimization seed commit
/// (mutex-per-cell storage, boxed-closure undo log, full section-stack
/// poll), single-core container, ns/op. They are *historical record*,
/// not a gate: `speedup_vs_seed` in the JSON is computed against these.
const SEED_NS: &[(&str, f64)] = &[
    ("enter_exit", 304.65),
    ("enter_exit_nested", 238.02),
    ("logged_write", 76.81),
    ("read_barrier", 14.19),
    ("revocation_roundtrip", 11649.50),
];

/// Committed post-optimization baseline (ns/op) for the CI regression
/// gate. Update deliberately when a change legitimately moves the
/// number; `--check` fails when the fresh measurement exceeds
/// `baseline * (1 + REGRESSION_TOLERANCE)`.
const BASELINE_NS: &[(&str, f64)] = &[("enter_exit", 94.53)];

/// Allowed fractional regression before `--check` fails (>20 %).
const REGRESSION_TOLERANCE: f64 = 0.20;

/// `--overhead` gate: hot paths with phase timers enabled must cost at
/// most this multiple of the disabled cost (the ISSUE's "within 10%").
const OVERHEAD_BUDGET: f64 = 1.10;

struct BenchResult {
    name: &'static str,
    samples_ns: Vec<f64>,
}

impl BenchResult {
    fn mean_ns(&self) -> f64 {
        mean(&self.samples_ns)
    }
    fn ci90_ns(&self) -> f64 {
        ci90_half_width(&self.samples_ns)
    }
}

fn lookup(table: &[(&str, f64)], name: &str) -> Option<f64> {
    table.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).filter(|v| *v > 0.0)
}

/// Time `iters` repetitions of `op`, returning ns/op.
fn time_ns_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn sample<F: FnMut() -> f64>(name: &'static str, samples: usize, mut one: F) -> BenchResult {
    // One untimed warmup sample: populates the thread-local pools and
    // the cells' history capacity so steady state is what gets measured.
    let _ = one();
    let samples_ns = (0..samples).map(|_| one()).collect();
    BenchResult { name, samples_ns }
}

/// Uncontended enter/exit of an empty section: the thin-lock fast path.
fn bench_enter_exit(samples: usize, iters: u64) -> BenchResult {
    let m = RevocableMonitor::new();
    sample("enter_exit", samples, || {
        time_ns_per_op(iters, || {
            m.enter(Priority::NORM, |_tx| {});
        })
    })
}

/// Reentrant nesting, depth 3 on one monitor (per enter/exit pair).
fn bench_enter_exit_nested(samples: usize, iters: u64) -> BenchResult {
    let m = RevocableMonitor::new();
    sample("enter_exit_nested", samples, || {
        time_ns_per_op(iters, || {
            m.enter(Priority::NORM, |_t1| {
                m.enter(Priority::NORM, |_t2| {
                    m.enter(Priority::NORM, |_t3| {});
                });
            });
        }) / 3.0
    })
}

/// Logged writes inside one long section (write barrier + undo log).
fn bench_logged_write(samples: usize, iters: u64) -> BenchResult {
    let m = RevocableMonitor::new();
    let cell = TCell::new(0i64);
    sample("logged_write", samples, || {
        m.enter(Priority::NORM, |tx| {
            time_ns_per_op(iters, || {
                tx.write(&cell, black_box(7i64));
            })
        })
    })
}

/// Reads inside one long section (read barrier = poll + load).
fn bench_read_barrier(samples: usize, iters: u64) -> BenchResult {
    let m = RevocableMonitor::new();
    let cell = TCell::new(3i64);
    sample("read_barrier", samples, || {
        m.enter(Priority::NORM, |tx| {
            time_ns_per_op(iters, || {
                black_box(tx.read(&cell));
            })
        })
    })
}

/// One full revocation episode: a LOW holder parks at yield points, a
/// HIGH contender flags + takes the monitor, the holder rolls back and
/// retries. Measures the HIGH thread's enter-to-exit latency.
fn bench_revocation_roundtrip(samples: usize, episodes: u64) -> BenchResult {
    sample("revocation_roundtrip", samples, || {
        let mut total_ns = 0.0;
        for _ in 0..episodes {
            let m = Arc::new(RevocableMonitor::new());
            let cell = TCell::new(0i64);
            let entered = Arc::new(Barrier::new(2));
            let hi_done = Arc::new(AtomicBool::new(false));
            let low = {
                let m = Arc::clone(&m);
                let cell = cell.clone();
                let entered = Arc::clone(&entered);
                let hi_done = Arc::clone(&hi_done);
                thread::spawn(move || {
                    let mut attempt = 0u32;
                    m.enter(Priority::LOW, |tx| {
                        attempt += 1;
                        tx.write(&cell, 1);
                        if attempt == 1 {
                            entered.wait();
                            while !hi_done.load(Ordering::Acquire) {
                                tx.checkpoint();
                                std::hint::spin_loop();
                            }
                        }
                    });
                })
            };
            entered.wait();
            let t0 = Instant::now();
            m.enter(Priority::HIGH, |tx| {
                let _ = black_box(tx.read(&cell));
            });
            total_ns += t0.elapsed().as_nanos() as f64;
            hi_done.store(true, Ordering::Release);
            low.join().unwrap();
        }
        total_ns / episodes as f64
    })
}

/// One paired profiling-overhead measurement: the same closure timed
/// with the phase timers off and on.
struct OverheadRow {
    name: &'static str,
    off_ns: f64,
    on_ns: f64,
}

impl OverheadRow {
    fn ratio(&self) -> f64 {
        if self.off_ns > 0.0 {
            self.on_ns / self.off_ns
        } else {
            1.0
        }
    }
}

/// Time `one` with the timers disabled and enabled, alternating
/// sample-by-sample so frequency drift hits both sides equally. Leaves
/// the timers enabled (the library default).
fn paired_overhead(
    name: &'static str,
    samples: usize,
    mut one: impl FnMut() -> f64,
) -> OverheadRow {
    let prof = revmon_obs::prof::timers();
    let _ = one(); // warmup
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..samples {
        prof.set_enabled(false);
        off.push(one());
        prof.set_enabled(true);
        on.push(one());
    }
    OverheadRow { name, off_ns: mean(&off), on_ns: mean(&on) }
}

/// Measure the self-overhead of the always-on phase timers on the two
/// paths the ISSUE budgets: uncontended enter/exit and the logged write
/// barrier. Neither path *calls* the timers (they fire on the revocation
/// slow path only), so this guards against instrumentation creeping into
/// the fast path.
fn overhead_rows(samples: usize, iters: u64) -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    {
        let m = RevocableMonitor::new();
        rows.push(paired_overhead("enter_exit", samples, || {
            time_ns_per_op(iters, || {
                m.enter(Priority::NORM, |_tx| {});
            })
        }));
    }
    {
        let m = RevocableMonitor::new();
        let cell = TCell::new(0i64);
        rows.push(paired_overhead("logged_write", samples, || {
            m.enter(Priority::NORM, |tx| {
                time_ns_per_op(iters, || {
                    tx.write(&cell, black_box(7i64));
                })
            })
        }));
    }
    rows
}

fn results_json(mode: &str, results: &[BenchResult], overhead: &[OverheadRow]) -> String {
    let mut out = format!("{{\n  \"figure\": \"hotpath\",\n  \"mode\": \"{mode}\",\n");
    out.push_str("  \"unit\": \"ns_per_op\",\n");
    if !overhead.is_empty() {
        out.push_str(&format!(
            "  \"profiling_overhead\": {{\"budget_ratio\": {OVERHEAD_BUDGET:.2}, \"rows\": [\n"
        ));
        let rows: Vec<String> = overhead
            .iter()
            .map(|r| {
                format!(
                    "    {{\"name\": \"{}\", \"off_ns\": {:.2}, \"on_ns\": {:.2}, \"ratio\": {:.3}}}",
                    r.name,
                    r.off_ns,
                    r.on_ns,
                    r.ratio()
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]},\n");
    }
    out.push_str("  \"benches\": [\n");
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            let m = r.mean_ns();
            let mut row = format!(
                "    {{\"name\": \"{}\", \"mean_ns\": {:.2}, \"ci90_ns\": {:.2}",
                r.name,
                m,
                r.ci90_ns()
            );
            if let Some(seed) = lookup(SEED_NS, r.name) {
                row.push_str(&format!(
                    ", \"seed_mean_ns\": {:.2}, \"speedup_vs_seed\": {:.2}",
                    seed,
                    seed / m
                ));
            }
            if let Some(base) = lookup(BASELINE_NS, r.name) {
                row.push_str(&format!(", \"baseline_ns\": {base:.2}"));
            }
            row.push('}');
            row
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let overhead = args.iter().any(|a| a == "--overhead");
    // `cargo bench` passes --bench through; ignore unknown flags.

    let (samples, iters, episodes) =
        if quick { (8, 200_000u64, 40u64) } else { (20, 1_000_000u64, 200u64) };

    let results = vec![
        bench_enter_exit(samples, iters),
        bench_enter_exit_nested(samples, iters / 3),
        bench_logged_write(samples, iters),
        bench_read_barrier(samples, iters),
        bench_revocation_roundtrip(samples, episodes),
    ];

    println!("hot-path microbenchmarks ({})", if quick { "quick" } else { "full" });
    println!("{:<24} {:>12} {:>10} {:>14}", "bench", "mean ns/op", "ci90", "vs seed");
    for r in &results {
        let vs = lookup(SEED_NS, r.name)
            .map(|s| format!("{:.2}x", s / r.mean_ns()))
            .unwrap_or_else(|| "-".into());
        println!("{:<24} {:>12.2} {:>10.2} {:>14}", r.name, r.mean_ns(), r.ci90_ns(), vs);
    }

    // The roundtrip bench above drove the revocation slow path with the
    // phase timers on; their breakdown says where those ns went.
    println!("revocation slow-path phase breakdown (host-clock ns):");
    {
        let mut out = std::io::stdout().lock();
        revmon_obs::prof::timers().write_table(&mut out).expect("phase table");
    }

    let over = if overhead { overhead_rows(samples, iters) } else { Vec::new() };
    if overhead {
        println!("profiling self-overhead (phase timers off vs on, budget {OVERHEAD_BUDGET:.2}x)");
        println!("{:<24} {:>12} {:>12} {:>8}", "bench", "off ns/op", "on ns/op", "ratio");
        for r in &over {
            println!("{:<24} {:>12.2} {:>12.2} {:>7.3}x", r.name, r.off_ns, r.on_ns, r.ratio());
        }
    }

    let dir = revmon_bench::export::results_dir();
    std::fs::create_dir_all(&dir).expect("create bench_results dir");
    let path = dir.join("BENCH_hotpath.json");
    let mode = if quick { "quick" } else { "full" };
    std::fs::write(&path, results_json(mode, &results, &over)).expect("write BENCH_hotpath.json");
    println!("wrote {}", path.display());

    if overhead {
        let mut failed = false;
        for r in &over {
            if r.ratio() > OVERHEAD_BUDGET {
                eprintln!(
                    "PROFILING OVERHEAD: {} with timers on = {:.2} ns/op vs {:.2} off \
                     ({:.3}x > budget {:.2}x)",
                    r.name,
                    r.on_ns,
                    r.off_ns,
                    r.ratio(),
                    OVERHEAD_BUDGET
                );
                failed = true;
            } else {
                println!(
                    "overhead gate ok: {} {:.3}x (budget {:.2}x)",
                    r.name,
                    r.ratio(),
                    OVERHEAD_BUDGET
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }

    if check {
        let mut failed = false;
        for r in &results {
            if let Some(base) = lookup(BASELINE_NS, r.name) {
                let limit = base * (1.0 + REGRESSION_TOLERANCE);
                let m = r.mean_ns();
                if m > limit {
                    eprintln!(
                        "PERF REGRESSION: {} = {:.2} ns/op exceeds baseline {:.2} ns/op \
                         by more than {:.0}% (limit {:.2})",
                        r.name,
                        m,
                        base,
                        REGRESSION_TOLERANCE * 100.0,
                        limit
                    );
                    failed = true;
                } else {
                    println!(
                        "perf gate ok: {} = {:.2} ns/op (baseline {:.2}, limit {:.2})",
                        r.name, m, base, limit
                    );
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
