//! Policy comparison on real threads: blocking vs revocation.
//!
//! What revocation buys (a HIGH thread is not held up by a LOW holder)
//! and what it costs (the undo-log write barrier), side by side with the
//! blocking baseline:
//!
//! * `enter_exit` — uncontended enter/exit of an empty section;
//! * `section_first_write` — a section's first write to a cell: the
//!   write barrier proper (old value saved in the cell and the cell
//!   logged under revocation; a plain store under blocking). Fresh
//!   sections over 64 distinct cells, so each write also carries 1/64
//!   of an `enter_exit`;
//! * `section_repeat_write` — one cell written again and again inside
//!   one held section: since undo logging became first-write-only every
//!   policy stores plainly here, and the rows should agree;
//! * `section_update` — `Tx::update` in that same repeat regime: against
//!   `section_repeat_write` it prices the clone and the closure, in the
//!   same single cell-lock hold;
//! * `inversion_latency` — a HIGH thread's arrival-to-section-complete
//!   latency while a LOW holder sits mid-section (blocking waits the
//!   holder out, revocation rolls it back).
//!
//! The rows are for comparing the policies with each other in one binary
//! on one host; the tracked absolute numbers for the revocation policy
//! (and its contended throughput, `locks.lo_commits_per_s` /
//! `locks.gain_vs_blocking`) are the repo benchmark's.
//!
//! Results go to `bench_results/BENCH_policies.json` in the mean+ci90
//! shape of the other summaries. Run with
//! `cargo bench -p revmon-bench --bench policies -- [--quick]`.

use revmon_bench::measure::{self, sample, time_ns_per_op, Args};
use revmon_core::metrics::{ci90_half_width, mean};
use revmon_core::{InversionPolicy, Priority};
use revmon_locks::{RevocableMonitor, TCell};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::thread;

const POLICIES: &[(&str, InversionPolicy)] =
    &[("blocking", InversionPolicy::Blocking), ("revocation", InversionPolicy::Revocation)];

struct Row {
    name: &'static str,
    policy: &'static str,
    samples_ns: Vec<f64>,
}

impl Row {
    fn mean_ns(&self) -> f64 {
        mean(&self.samples_ns)
    }
    fn ci90_ns(&self) -> f64 {
        ci90_half_width(&self.samples_ns)
    }
}

fn row(name: &'static str, policy: &'static str, samples: usize, one: impl FnMut() -> f64) -> Row {
    Row { name, policy, samples_ns: sample(samples, one) }
}

/// Uncontended enter/exit of an empty section under each policy.
fn bench_enter_exit(samples: usize, iters: u64) -> Vec<Row> {
    POLICIES
        .iter()
        .map(|&(tag, policy)| {
            let m = RevocableMonitor::with_policy(policy);
            row("enter_exit", tag, samples, || {
                time_ns_per_op(iters, || {
                    m.enter(Priority::NORM, |_tx| {});
                })
            })
        })
        .collect()
}

/// Cells a `section_first_write` section writes, once each.
const FIRST_WRITE_CELLS: usize = 64;

/// A section's first write to a cell: revocation pays the undo-log
/// write barrier (save + log), blocking does not. Each timed operation
/// is a fresh section writing every cell once; the reading is per write.
fn bench_section_first_write(samples: usize, iters: u64) -> Vec<Row> {
    POLICIES
        .iter()
        .map(|&(tag, policy)| {
            let m = RevocableMonitor::with_policy(policy);
            let cells: Vec<TCell<i64>> = (0..FIRST_WRITE_CELLS).map(|_| TCell::new(0)).collect();
            row("section_first_write", tag, samples, || {
                let sections = iters / FIRST_WRITE_CELLS as u64;
                let per_section = time_ns_per_op(sections, || {
                    m.enter(Priority::NORM, |tx| {
                        for c in &cells {
                            tx.write(c, black_box(7i64));
                        }
                    });
                });
                per_section / FIRST_WRITE_CELLS as f64
            })
        })
        .collect()
}

/// One cell stored `iters` times inside one long held section — every
/// store after the first is a repeat write, which no policy logs — as a
/// `write` and as an `update`.
fn bench_section_repeat(samples: usize, iters: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for update in [false, true] {
        for &(tag, policy) in POLICIES {
            let m = RevocableMonitor::with_policy(policy);
            let cell = TCell::new(0i64);
            let name = if update { "section_update" } else { "section_repeat_write" };
            rows.push(row(name, tag, samples, || {
                m.enter(Priority::NORM, |tx| {
                    time_ns_per_op(iters, || {
                        if update {
                            tx.update(&cell, |v| black_box(v + 1));
                        } else {
                            tx.write(&cell, black_box(7i64));
                        }
                    })
                })
            }));
        }
    }
    rows
}

/// A HIGH-priority thread arrives while a LOW holder is mid-way through
/// a fixed-length section; measure the HIGH thread's latency from
/// arrival to the completion of *its own* section. The LOW section
/// always terminates on its own, so the blocking baseline is finite.
fn bench_inversion_latency(samples: usize, episodes: u64, low_writes: u64) -> Vec<Row> {
    POLICIES
        .iter()
        .map(|&(tag, policy)| {
            row("inversion_latency", tag, samples, || {
                let mut total_ns = 0.0;
                for _ in 0..episodes {
                    let m = Arc::new(RevocableMonitor::with_policy(policy));
                    let cell = TCell::new(0i64);
                    let entered = Arc::new(Barrier::new(2));
                    let low = {
                        let m = Arc::clone(&m);
                        let cell = cell.clone();
                        let entered = Arc::clone(&entered);
                        thread::spawn(move || {
                            let mut attempt = 0u32;
                            m.enter(Priority::LOW, |tx| {
                                attempt += 1;
                                if attempt == 1 {
                                    entered.wait();
                                }
                                for _ in 0..low_writes {
                                    tx.update(&cell, |v| v + 1);
                                }
                            });
                        })
                    };
                    entered.wait();
                    total_ns += time_ns_per_op(1, || {
                        m.enter(Priority::HIGH, |tx| {
                            black_box(tx.read(&cell));
                        });
                    });
                    low.join().unwrap();
                }
                total_ns / episodes as f64
            })
        })
        .collect()
}

fn results_body(rows: &[Row]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"policy\": \"{}\", \"mean_ns\": {:.2}, \"ci90_ns\": {:.2}}}",
                r.name,
                r.policy,
                r.mean_ns(),
                r.ci90_ns()
            )
        })
        .collect();
    format!("  \"unit\": \"ns_per_op\",\n  \"benches\": [\n{}\n  ]", body.join(",\n"))
}

fn main() {
    let args = Args::from_env();
    let (samples, iters, episodes, low_writes) = if args.quick {
        (6, 150_000u64, 8u64, 50_000u64)
    } else {
        (15, 800_000u64, 40u64, 200_000u64)
    };

    let mut rows = Vec::new();
    rows.extend(bench_enter_exit(samples, iters));
    rows.extend(bench_section_first_write(samples, iters));
    rows.extend(bench_section_repeat(samples, iters));
    rows.extend(bench_inversion_latency(samples, episodes, low_writes));

    println!("policy comparison ({})", args.mode());
    println!("{:<22} {:<12} {:>14} {:>10}", "bench", "policy", "mean ns/op", "ci90");
    for r in &rows {
        println!("{:<22} {:<12} {:>14.2} {:>10.2}", r.name, r.policy, r.mean_ns(), r.ci90_ns());
    }

    // The headline in numbers: what the write barrier costs a first
    // write, against the same store without it.
    let m = |name: &str, pol: &str| {
        rows.iter().find(|r| r.name == name && r.policy == pol).map(Row::mean_ns)
    };
    if let (Some(blk), Some(rev)) =
        (m("section_first_write", "blocking"), m("section_first_write", "revocation"))
    {
        println!("section_first_write: blocking/revocation ratio {:.3} (the barrier)", blk / rev);
    }

    measure::write_results("policies", args, &results_body(&rows));
}
