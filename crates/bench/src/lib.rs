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
//! * [`run_grid`] — every cell of one high-priority loop size's grid,
//!   run once; both normalized series ([`Grid::high_priority`] for
//!   Figures 5–6, [`Grid::overall`] for Figures 7–8) are read from it,
//! * `benches/figures.rs` (`cargo bench -p revmon-bench --bench
//!   figures`), which runs the "100K" and "500K" grids, prints Figures
//!   5–8 with their shape checks and the §4.2 statistics, and writes
//!   `bench_results/BENCH_fig5.json` … `BENCH_fig8.json`,
//! * [`measure`] — the timing, pairing, flag and results-file helpers the
//!   remaining wall-clock benches (ratio, footprint and flatness gates,
//!   the policy comparison) share. Absolute timings of the
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
use revmon_vm::{RoundOutcome, Vm, VmConfig};
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
    run_cell_events(p, cfg).0
}

/// Execute one benchmark run; given a `revmon-obs` sink, record the
/// run's events into it, in order (the caller sizes its rings: what does
/// not fit is counted as dropped). Each scheduling round's events move
/// over as the run goes: one whole-run buffer freed just before the
/// caller drains would move glibc's mmap threshold (EXPERIMENTS.md T3).
pub fn run_cell_sink(
    p: &BenchParams,
    cfg: VmConfig,
    sink: Option<std::sync::Arc<revmon_obs::EventSink>>,
) -> CellResult {
    let Some(sink) = sink else { return run_cell_with_config(p, cfg) };
    execute(p, cfg.with_trace(), |vm| vm.take_trace().iter().for_each(|ev| sink.record(*ev))).0
}

/// Execute one benchmark run: its result and the events it recorded —
/// under `cfg.trace` ([`VmConfig::with_trace`]) the whole run's, in
/// virtual-clock order, which is what [`export::run_cell_analyzed`]
/// analyses; none otherwise.
pub fn run_cell_events(p: &BenchParams, cfg: VmConfig) -> (CellResult, Vec<revmon_obs::Event>) {
    let (cell, mut vm) = execute(p, cfg, |_| {});
    (cell, vm.take_trace())
}

/// One benchmark run to its end, `each_round` called on the VM after
/// every scheduling round: the result and the finished VM.
fn execute(
    p: &BenchParams,
    cfg: VmConfig,
    mut each_round: impl FnMut(&mut Vm),
) -> (CellResult, Vm) {
    let (program, run) = benchmark_program();
    let mut cfg = cfg.with_seed(p.seed);
    cfg.cost.quantum = p.quantum;
    // "a short random pause time (on average equal to a single thread
    // quantum) right before an entry to the synchronized section"
    let pause_bound = 2 * cfg.cost.quantum as i64;
    let mut vm = Vm::new(program, cfg);
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
    while vm.run_round().expect("benchmark run") != RoundOutcome::Done {
        each_round(&mut vm);
    }
    each_round(&mut vm);
    let report = vm.report();
    let cell = CellResult {
        high_elapsed: report.elapsed_for(Priority::HIGH),
        overall_elapsed: report.overall_elapsed(),
        metrics: report.global,
    };
    (cell, vm)
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

/// A cell as [`run_cell_avg`] returns it: the mean result and the 90 %
/// CI half-widths of its high-priority and overall elapsed times.
pub type CellAvg = (CellResult, f64, f64);

/// One thread mix of a [`Grid`].
#[derive(Debug)]
pub struct MixCells {
    /// Number of high-priority threads.
    pub high: usize,
    /// Number of low-priority threads.
    pub low: usize,
    /// The modified VM at each of [`WRITE_PCTS`].
    pub modified: Vec<CellAvg>,
    /// The unmodified VM at each of [`WRITE_PCTS`]; entry 0 (0 % writes)
    /// is the baseline both series normalize to.
    pub unmodified: Vec<CellAvg>,
}

/// The evaluation grid at one high-priority loop size: every (mix,
/// write %, VM) cell run once over the scale's seeds. Figures 5 and 7
/// read the "100K" grid, Figures 6 and 8 the "500K" one, and the §4.2
/// statistics both.
#[derive(Debug)]
pub struct Grid {
    /// Inner-loop operations per high-priority section.
    pub high_iters: i64,
    /// One entry per [`MIXES`] entry, in that order.
    pub mixes: Vec<MixCells>,
}

/// Run the grid for `high_iters` at `scale`: per mix, the modified VM at
/// every write ratio and the unmodified VM at every write ratio (its
/// 0 % cell is the baseline), each through [`run_cell_avg`]. The cells
/// are independent deterministic runs, so they run on every core
/// ([`on_every_core`]) and the grid is the same whatever the core count.
pub fn run_grid(high_iters: i64, scale: &Scale) -> Grid {
    let cell = |(high, low): (usize, usize), modified: bool, write_pct: i64| BenchParams {
        high_threads: high,
        low_threads: low,
        high_iters,
        low_iters: scale.low_iters,
        sections: scale.sections,
        write_pct,
        modified,
        seed: 0xC0FFEE,
        quantum: scale.quantum,
    };
    // Grid order: per mix, the unmodified sweep, then the modified one.
    let cells: Vec<BenchParams> = MIXES
        .iter()
        .flat_map(|&mix| {
            [false, true].into_iter().flat_map(move |modified| {
                WRITE_PCTS.iter().map(move |&write_pct| cell(mix, modified, write_pct))
            })
        })
        .collect();
    let mut results = on_every_core(&cells, |p| run_cell_avg(p, scale.repetitions)).into_iter();
    let mut sweep = || results.by_ref().take(WRITE_PCTS.len()).collect::<Vec<CellAvg>>();
    let mixes = MIXES
        .iter()
        .map(|&(high, low)| {
            let unmodified = sweep();
            MixCells { high, low, unmodified, modified: sweep() }
        })
        .collect();
    Grid { high_iters, mixes }
}

/// `f` of every item, in item order, computed on every core the host
/// offers: each thread takes the next item nobody has taken from a
/// shared index, and each result goes to its item's place. A panic in
/// `f` is re-raised here.
pub fn on_every_core<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(items.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, f(item)));
        }
    };
    let done: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(work)).collect();
        let joined = workers.into_iter().map(|w| w.join());
        joined.flat_map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic))).collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, r) in done {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every item ran")).collect()
}

impl Grid {
    /// Figures 5–6: the high-priority threads' elapsed time per mix,
    /// normalized to the unmodified VM at 0 % writes.
    pub fn high_priority(&self) -> Vec<((usize, usize), Vec<FigureRow>)> {
        self.series(|c| (c.0.high_elapsed as f64, c.1))
    }

    /// Figures 7–8: the whole benchmark's elapsed time per mix,
    /// normalized to the unmodified VM at 0 % writes.
    pub fn overall(&self) -> Vec<((usize, usize), Vec<FigureRow>)> {
        self.series(|c| (c.0.overall_elapsed as f64, c.2))
    }

    /// Each mix's rows of the (value, CI) that `pick` reads off a cell,
    /// divided by the baseline's value (the paper's normalization).
    fn series(
        &self,
        pick: impl Fn(&CellAvg) -> (f64, f64),
    ) -> Vec<((usize, usize), Vec<FigureRow>)> {
        self.mixes
            .iter()
            .map(|m| {
                let (norm, _) = pick(&m.unmodified[0]);
                let rows = WRITE_PCTS
                    .iter()
                    .zip(m.modified.iter().zip(&m.unmodified))
                    .map(|(&write_pct, (md, um))| {
                        let (mv, mci) = pick(md);
                        let (uv, uci) = pick(um);
                        FigureRow {
                            write_pct,
                            modified: mv / norm,
                            modified_ci: mci / norm,
                            unmodified: uv / norm,
                            unmodified_ci: uci / norm,
                        }
                    })
                    .collect();
                ((m.high, m.low), rows)
            })
            .collect()
    }
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
    fn grid_series_normalize_one_run_to_their_own_baselines() {
        let scale = Scale::smoke();
        let grid = run_grid(scale.high_iters_small, &scale);
        let (hp, ov) = (grid.high_priority(), grid.overall());
        assert_eq!(grid.mixes.len(), MIXES.len());
        for ((cells, (mix, hp_rows)), (_, ov_rows)) in grid.mixes.iter().zip(&hp).zip(&ov) {
            assert_eq!(*mix, (cells.high, cells.low));
            for rows in [hp_rows, ov_rows] {
                assert_eq!(rows.len(), WRITE_PCTS.len());
                assert!((rows[0].unmodified - 1.0).abs() < 1e-9, "baseline row normalizes to 1");
            }
            // The overall series reads the same cells as the high-priority
            // one, divided by the same baseline cell's overall time.
            let base = cells.unmodified[0].0.overall_elapsed as f64;
            for (i, r) in ov_rows.iter().enumerate() {
                assert_eq!(r.write_pct, WRITE_PCTS[i]);
                assert_eq!(r.modified, cells.modified[i].0.overall_elapsed as f64 / base);
                assert_eq!(r.unmodified, cells.unmodified[i].0.overall_elapsed as f64 / base);
            }
        }
        // The paper's core claim at smoke scale: modified below unmodified
        // for a low high:low ratio.
        let (mix, rows) = &hp[0];
        assert_eq!(*mix, (2, 8));
        assert!(rows[0].modified < rows[0].unmodified);
    }
}
