//! `locks_fastpath` — one thread, one monitor, no contention.
//!
//! The same layer as `locks_inversion` used the other way: thin-lock
//! CAS, undo-log append, read barrier. A section is `enter(NORM)` + 16
//! `update` + 48 `read` over 64 `TCell<i64>` + exit. A handoff, spin or
//! inflation change that helps `locks_inversion` but taxes the
//! uncontended path shows here; the prediction for slow-path changes is
//! *no change*.
//!
//! * `latency_us` — one uncontended section (the issue's
//!   `section_ns_p50`, in µs): sections are timed in batches of
//!   [`BATCH`], and the reading is the steady calibrated batch time
//!   (`stats::steady`) per section.
//! * `work_per_s` — data operations (reads + updates) per second at
//!   that rate: the same reading the other way up, not a second
//!   measurement.
//!
//! An operation is a batch; its check is that the 64 cells sum to
//! exactly 16 × the sections run so far.

use super::{Ctx, Outcome, PassTimes, Row, Workload};
use crate::stats;
use crate::trace::HARNESS;
use revmon_core::Priority;
use revmon_locks::{RevocableMonitor, TCell};
use std::hint::black_box;
use std::time::Instant;

/// Cells in the shared array.
pub const CELLS: usize = 64;
/// Updates per section (cells 0..16); the other 48 cells are read.
pub const UPDATES: usize = 16;
/// Sections per timed batch: ≈ 1 ms, so a 20-second run has ≈ 15 000
/// samples and ≈ 20 fall between two calibration samples, while the two
/// clock reads are under 0.01 % of a sample.
pub const BATCH: u64 = 1_000;
/// Warm-up sections in set-up (thread-local pools, cell histories).
const WARMUP: u64 = 20_000;

/// Monitor and cells.
pub struct Input {
    monitor: RevocableMonitor,
    cells: Vec<TCell<i64>>,
    sections: u64,
}

fn section(monitor: &RevocableMonitor, cells: &[TCell<i64>]) {
    monitor.enter(Priority::NORM, |tx| {
        for c in &cells[..UPDATES] {
            tx.update(c, |v| v + 1);
        }
        let mut acc = 0i64;
        for c in &cells[UPDATES..] {
            acc = acc.wrapping_add(tx.read(c));
        }
        black_box(acc);
    });
}

/// The workload.
pub struct LocksFastpath;

impl Workload for LocksFastpath {
    const NAME: &'static str = "locks_fastpath";
    const SETUP_REPS: usize = 9;
    type Input = Input;

    fn setup(_seed: u64) -> Input {
        // Nothing here depends on the seed: the uncontended path has no
        // random input. The seed still names the run.
        let monitor = RevocableMonitor::new();
        let cells: Vec<TCell<i64>> = (0..CELLS).map(|_| TCell::new(0)).collect();
        for _ in 0..WARMUP {
            section(&monitor, &cells);
        }
        Input { monitor, cells, sections: WARMUP }
    }

    fn run(input: &mut Input, ctx: &mut Ctx) -> Outcome {
        let mut out = Outcome::default();
        let mut times = PassTimes::new(1);
        let mut batch = 0u64;
        while batch == 0 || !ctx.expired() {
            ctx.between_passes();
            let traced = ctx.begin_op(batch);
            let (monitor, cells) = (&input.monitor, &input.cells);
            let t0 = Instant::now();
            ctx.tracer.span("batch", HARNESS, batch, |t| {
                t.span("sections", "locks", batch, |t| {
                    for _ in 0..BATCH {
                        section(monitor, cells);
                    }
                    t.count("sections", BATCH);
                })
            });
            times.begin_pass(traced);
            times.push(t0, t0.elapsed().as_nanos() as f64);
            input.sections += BATCH;
            out.attempted += 1;
            // Outside the timed region: a lost or doubled write breaks this sum.
            let sum: i64 = input.cells.iter().map(TCell::read_unsynchronized).sum();
            let expected = (UPDATES as u64 * input.sections) as i64;
            if sum != expected {
                out.fail(format!(
                    "batch {batch}: cells sum to {sum}, {} sections should give {expected}",
                    input.sections
                ));
            }
            batch += 1;
        }
        ctx.calib.sample();
        let stats_now = input.monitor.stats();
        if stats_now.rollbacks != 0 || stats_now.contended != 0 {
            out.fail(format!(
                "uncontended path saw {} rollbacks, {} contended entries",
                stats_now.rollbacks, stats_now.contended
            ));
        }

        let cal = times.calibrated(&ctx.calib);
        let per_section = |batch_ns: f64| batch_ns / BATCH as f64;
        let section_ns = per_section(cal.pass_ns());
        out.latency_us = section_ns / 1e3;
        out.work_per_s = CELLS as f64 * 1e9 / section_ns;
        out.overhead_ratio = cal.overhead_ratio().filter(|_| ctx.alternate);
        out.rows.push(Row {
            name: "section_ns",
            unit: "ns",
            value: section_ns,
            summary: Some(stats::summarize(
                &times.raw_ns().into_iter().map(per_section).collect::<Vec<f64>>(),
            )),
        });
        out.rows.push(Row {
            name: "section_ns_floor",
            unit: "ns",
            value: per_section(times.floor_ns()),
            summary: None,
        });
        out
    }
}
