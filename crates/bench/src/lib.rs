//! # revmon-bench — regenerating the evaluation of Welc et al., ICPP 2004
//!
//! The paper's evaluation artifacts are Figures 5–8 (normalized elapsed
//! times of high-priority threads and of the whole benchmark, for
//! thread mixes 2+8 / 5+5 / 8+2, high-priority inner-loop sizes 100K /
//! 500K, write ratios 0–100 %) plus in-text headline statistics. This
//! crate provides:
//!
//! * [`workload`] — the §4.1 microbenchmark as a VM program,
//! * [`BenchParams`] / [`run_cell`] — one grid cell (one thread mix ×
//!   write ratio × VM flavour), repeated over seeds with mean and 90 %
//!   confidence interval, matching the paper's 5-iteration averaging,
//! * [`figure_series`] — a full figure's normalized series,
//! * the `benches/` harnesses (`cargo bench -p revmon-bench`) printing
//!   each figure's rows and checking its qualitative shape,
//! * [`measure`] — the timing, pairing, flag and results-file helpers the
//!   remaining wall-clock benches (ratio, footprint and flatness gates,
//!   policy and governor comparisons) share. Absolute timings of the
//!   system live in the repo benchmark (`benchmark/`), not here.
//!
//! ## Scaling
//!
//! Paper-scale inner loops (100K/500K operations, 100 sections, ~10¹¹
//! simulated instructions for the full grid) are infeasible in an
//! interpreter; the default [`Scale`] divides the inner-loop and section
//! counts by 100 and 5 respectively, and scales the scheduling quantum
//! with them, preserving every ratio the figures depend on (high:low
//! section length, write fraction, thread mix, section:pause:quantum
//! proportions). Normalization (to the unmodified VM at 0 % writes)
//! makes the reported curves scale-invariant. `Scale::paper()` restores
//! the original parameters for a long run (`REVMON_FULL=1`).

#![deny(missing_docs)]

pub mod export;
pub mod measure;
pub mod workload;

use revmon_core::metrics::{ci90_half_width, mean};
use revmon_core::{Metrics, Priority};
use revmon_vm::value::Value;
use revmon_vm::{Vm, VmConfig};
use workload::{benchmark_program, ARRAY_LEN};

/// The paper's write-ratio sweep.
pub const WRITE_PCTS: [i64; 6] = [0, 20, 40, 60, 80, 100];

/// The paper's thread mixes: (high, low).
pub const MIXES: [(usize, usize); 3] = [(2, 8), (5, 5), (8, 2)];

/// Workload scaling relative to the paper.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Inner-loop operations for the low-priority threads (paper: 500K).
    pub low_iters: i64,
    /// Inner-loop operations for "100K" high-priority threads.
    pub high_iters_small: i64,
    /// Inner-loop operations for "500K" high-priority threads.
    pub high_iters_large: i64,
    /// Synchronized sections per thread (paper: 100).
    pub sections: i64,
    /// Seeds averaged per cell (paper: 5 measured iterations).
    pub repetitions: u64,
    /// Scheduling quantum in ticks, scaled with the workload so that the
    /// paper's proportions hold: pause ≈ quantum, low-priority section ≈
    /// 2 quanta, "100K" high-priority section ≈ 0.4 quanta.
    pub quantum: u64,
}

impl Scale {
    /// The default 1:100 iteration / 1:5 section scaling.
    pub fn default_scale() -> Self {
        Scale {
            low_iters: 5_000,
            high_iters_small: 1_000,
            high_iters_large: 5_000,
            sections: 20,
            repetitions: 5,
            quantum: 60_000,
        }
    }

    /// Quick smoke scaling for tests.
    pub fn smoke() -> Self {
        Scale {
            low_iters: 500,
            high_iters_small: 100,
            high_iters_large: 500,
            sections: 5,
            repetitions: 2,
            quantum: 6_000,
        }
    }

    /// The paper's exact parameters (very long run).
    pub fn paper() -> Self {
        Scale {
            low_iters: 500_000,
            high_iters_small: 100_000,
            high_iters_large: 500_000,
            sections: 100,
            repetitions: 5,
            quantum: 6_000_000,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::default_scale()
    }
}

/// One grid cell's parameters.
#[derive(Clone, Copy, Debug)]
pub struct BenchParams {
    /// Number of high-priority threads.
    pub high_threads: usize,
    /// Number of low-priority threads.
    pub low_threads: usize,
    /// Inner-loop operations per high-priority section.
    pub high_iters: i64,
    /// Inner-loop operations per low-priority section.
    pub low_iters: i64,
    /// Sections per thread.
    pub sections: i64,
    /// Percentage of writes in the inner loop (0–100).
    pub write_pct: i64,
    /// Run on the modified (revocable) VM?
    pub modified: bool,
    /// RNG seed for arrival pauses.
    pub seed: u64,
    /// Scheduling quantum in ticks (see [`Scale::quantum`]).
    pub quantum: u64,
}

/// Measured outputs of one run.
#[derive(Clone, Copy, Debug)]
pub struct CellResult {
    /// Elapsed virtual time over the high-priority threads (earliest
    /// start to latest end), the paper's primary metric.
    pub high_elapsed: u64,
    /// Overall elapsed time of the whole benchmark.
    pub overall_elapsed: u64,
    /// Aggregated counters.
    pub metrics: Metrics,
}

/// Execute one benchmark run.
pub fn run_cell(p: &BenchParams) -> CellResult {
    let cfg = if p.modified { VmConfig::modified() } else { VmConfig::unmodified() };
    run_cell_with_config(p, cfg)
}

/// Execute one benchmark run under an explicit VM configuration (used by
/// the policy-ablation bench).
pub fn run_cell_with_config(p: &BenchParams, cfg: VmConfig) -> CellResult {
    run_cell_sink(p, cfg, None)
}

/// Execute one benchmark run with an optional `revmon-obs` sink attached,
/// so a run can dump its event stream and latency histograms (see
/// [`export::run_cell_observed`]).
pub fn run_cell_sink(
    p: &BenchParams,
    cfg: VmConfig,
    sink: Option<std::sync::Arc<revmon_obs::EventSink>>,
) -> CellResult {
    let (program, run) = benchmark_program();
    let mut cfg = cfg.with_seed(p.seed);
    cfg.cost.quantum = p.quantum;
    // "a short random pause time (on average equal to a single thread
    // quantum) right before an entry to the synchronized section"
    let pause_bound = 2 * cfg.cost.quantum as i64;
    let mut vm = Vm::new(program, cfg);
    if let Some(sink) = sink {
        vm.attach_sink(sink);
    }
    let lock = vm.heap_mut().alloc(0, 0);
    let arr = vm.heap_mut().alloc_array(ARRAY_LEN);
    let args = |iters: i64| {
        vec![
            Value::Ref(lock),
            Value::Ref(arr),
            Value::Int(iters),
            Value::Int(p.write_pct),
            Value::Int(p.sections),
            Value::Int(pause_bound),
        ]
    };
    // Spawn order interleaves priorities so round-robin arrival is mixed.
    for i in 0..p.low_threads.max(p.high_threads) {
        if i < p.high_threads {
            vm.spawn(&format!("high{i}"), run, args(p.high_iters), Priority::HIGH);
        }
        if i < p.low_threads {
            vm.spawn(&format!("low{i}"), run, args(p.low_iters), Priority::LOW);
        }
    }
    let report = vm.run().expect("benchmark run");
    CellResult {
        high_elapsed: report.elapsed_for(Priority::HIGH),
        overall_elapsed: report.overall_elapsed(),
        metrics: report.global,
    }
}

/// Mean ± 90 % CI of a cell over `reps` seeds.
pub fn run_cell_avg(p: &BenchParams, reps: u64) -> (CellResult, f64, f64) {
    let mut highs = Vec::new();
    let mut overalls = Vec::new();
    let mut last = None;
    for r in 0..reps {
        let mut q = *p;
        q.seed = p.seed.wrapping_add(r.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let c = run_cell(&q);
        highs.push(c.high_elapsed as f64);
        overalls.push(c.overall_elapsed as f64);
        last = Some(c);
    }
    let mut c = last.expect("reps >= 1");
    c.high_elapsed = mean(&highs) as u64;
    c.overall_elapsed = mean(&overalls) as u64;
    (c, ci90_half_width(&highs), ci90_half_width(&overalls))
}

/// Which elapsed time a figure plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Series {
    /// Figures 5–6: total time of the high-priority threads.
    HighPriority,
    /// Figures 7–8: overall time.
    Overall,
}

/// One figure row: write ratio plus normalized values for both VMs.
#[derive(Clone, Copy, Debug)]
pub struct FigureRow {
    /// Write percentage.
    pub write_pct: i64,
    /// Modified VM, normalized.
    pub modified: f64,
    /// 90 % CI half-width of the modified value (normalized units).
    pub modified_ci: f64,
    /// Unmodified VM, normalized.
    pub unmodified: f64,
    /// 90 % CI half-width of the unmodified value.
    pub unmodified_ci: f64,
}

/// Compute one sub-figure's series: both VMs across [`WRITE_PCTS`],
/// normalized to the unmodified VM at 0 % writes (the paper's
/// normalization).
pub fn figure_series(
    high_threads: usize,
    low_threads: usize,
    high_iters: i64,
    scale: &Scale,
    series: Series,
) -> Vec<FigureRow> {
    let base_params = |write_pct: i64, modified: bool| BenchParams {
        high_threads,
        low_threads,
        high_iters,
        low_iters: scale.low_iters,
        sections: scale.sections,
        write_pct,
        modified,
        seed: 0xC0FFEE,
        quantum: scale.quantum,
    };
    let pick = |c: &CellResult, ci_h: f64, ci_o: f64| match series {
        Series::HighPriority => (c.high_elapsed as f64, ci_h),
        Series::Overall => (c.overall_elapsed as f64, ci_o),
    };
    // normalization baseline: unmodified @ 0% writes
    let (b, bh, bo) = run_cell_avg(&base_params(0, false), scale.repetitions);
    let (norm, _) = pick(&b, bh, bo);
    WRITE_PCTS
        .iter()
        .map(|&w| {
            let (m, mh, mo) = run_cell_avg(&base_params(w, true), scale.repetitions);
            let (u, uh, uo) = if w == 0 {
                (b, bh, bo)
            } else {
                run_cell_avg(&base_params(w, false), scale.repetitions)
            };
            let (mv, mci) = pick(&m, mh, mo);
            let (uv, uci) = pick(&u, uh, uo);
            FigureRow {
                write_pct: w,
                modified: mv / norm,
                modified_ci: mci / norm,
                unmodified: uv / norm,
                unmodified_ci: uci / norm,
            }
        })
        .collect()
}

/// Pretty-print a figure's three sub-plots in the paper's layout.
pub fn print_figure(
    name: &str,
    what: &str,
    high_iters: i64,
    scale: &Scale,
    series: Series,
) -> Vec<((usize, usize), Vec<FigureRow>)> {
    println!("# {name}: {what}");
    println!(
        "# scaled workload: low-priority {} ops/section, high-priority {} ops/section, {} sections/thread, {} seeds",
        scale.low_iters, high_iters, scale.sections, scale.repetitions
    );
    let mut out = Vec::new();
    for (label, (high, low)) in ["(a)", "(b)", "(c)"].iter().zip(MIXES) {
        println!("\n## {name}{label}: {high} high-priority + {low} low-priority");
        println!(
            "{:>7} {:>12} {:>8} {:>12} {:>8}",
            "write%", "MODIFIED", "±90%CI", "UNMODIFIED", "±90%CI"
        );
        let rows = figure_series(high, low, high_iters, scale, series);
        for r in &rows {
            println!(
                "{:>7} {:>12.3} {:>8.3} {:>12.3} {:>8.3}",
                r.write_pct, r.modified, r.modified_ci, r.unmodified, r.unmodified_ci
            );
        }
        out.push(((high, low), rows));
    }
    out
}

/// Percentage gain of the modified VM for high-priority threads in a
/// row: `(unmodified / modified − 1) × 100`.
pub fn gain_pct(row: &FigureRow) -> f64 {
    (row.unmodified / row.modified - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_params(modified: bool) -> BenchParams {
        // Sections must dominate the arrival pauses for contention to be
        // the story, as at paper scale.
        BenchParams {
            high_threads: 2,
            low_threads: 4,
            high_iters: 400,
            low_iters: 2_000,
            sections: 6,
            write_pct: 40,
            modified,
            seed: 7,
            quantum: 20_000,
        }
    }

    #[test]
    fn modified_vm_helps_high_priority_at_smoke_scale() {
        let (m, _, _) = run_cell_avg(&smoke_params(true), 3);
        let (u, _, _) = run_cell_avg(&smoke_params(false), 3);
        assert!(
            m.high_elapsed < u.high_elapsed,
            "modified {} vs unmodified {}",
            m.high_elapsed,
            u.high_elapsed
        );
        assert!(m.metrics.rollbacks > 0);
        assert_eq!(u.metrics.rollbacks, 0);
    }

    #[test]
    fn modified_vm_costs_overall_time() {
        let (m, _, _) = run_cell_avg(&smoke_params(true), 3);
        let (u, _, _) = run_cell_avg(&smoke_params(false), 3);
        assert!(m.overall_elapsed > u.overall_elapsed);
    }

    #[test]
    fn averaging_is_stable() {
        let (c, ci_h, _) = run_cell_avg(&smoke_params(true), 3);
        assert!(c.high_elapsed > 0);
        assert!(ci_h >= 0.0);
    }

    #[test]
    fn figure_series_normalizes_baseline_to_one() {
        let scale = Scale::smoke();
        let rows = figure_series(2, 4, scale.high_iters_small, &scale, Series::HighPriority);
        assert_eq!(rows.len(), WRITE_PCTS.len());
        assert!((rows[0].unmodified - 1.0).abs() < 1e-9, "baseline row normalizes to 1");
        // The paper's core claim at smoke scale: modified below unmodified
        // for a low high:low ratio.
        assert!(rows[0].modified < rows[0].unmodified);
    }
}
