//! `vm_fig5` — the Figure-5 grid on the deterministic VM, tracing off.
//!
//! What a user reproducing the paper waits for. One *pass* is the
//! paper's grid at `Scale::default_scale()`: thread mixes 2+8 / 5+5 / 8+2
//! × write % {0, 20, 40, 60, 80, 100} × {unmodified, modified} = 36
//! `revmon_bench::run_cell` calls of 20 sections a thread (≈ 7–17 M
//! simulated instructions, ≈ 85 ms each; a pass ≈ 3 s). Passes repeat
//! until the window closes. `revmon-vm`'s interpreter, write barrier,
//! `sync`/`revoke` and `revmon-core`'s queue and undo log do all the
//! work; `locks`, `explore` and `obs` do none.
//!
//! * `latency_us` — host time of one grid pass (the issue's `sweep_s`):
//!   the 36 cells, each at its steady calibrated time over the run's
//!   passes (`stats::steady`), summed.
//! * `work_per_s` — simulated instructions per host second: 10⁹ ÷ the
//!   median over the 36 cells of steady ns per simulated instruction
//!   (the issue's `ns_per_instr_p50`). A change to a few cells moves
//!   the sum and leaves this; a change to the interpreter moves both.
//!
//! An operation is a cell. Every pass runs identical cells, so a cell's
//! simulated statistics must repeat exactly; they are compared with the
//! golden for a blessed seed, and on any seed unmodified cells must
//! show no rollback, must execute the seed-independent instruction
//! counts of the seed-1 golden, modified cells must log undo entries
//! exactly when the section writes, and the figure's shape must hold:
//! 2+8 modified beats unmodified at every write ratio.

use super::{diff_counts, load_golden, Ctx, Outcome, PassTimes, Row, Workload};
use crate::host::mix;
use crate::json::{obj, Value};
use crate::phases::PhaseMark;
use crate::stats;
use crate::trace::HARNESS;
use revmon_bench::{run_cell, BenchParams, CellResult, Scale, MIXES, WRITE_PCTS};
use revmon_obs::prof::Phase;
use std::time::Instant;

/// One grid cell's configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    /// High-priority threads.
    pub high: usize,
    /// Low-priority threads.
    pub low: usize,
    /// Write percentage.
    pub write_pct: i64,
    /// Modified (revocable) VM?
    pub modified: bool,
}

impl Config {
    fn label(&self) -> String {
        let vm = if self.modified { "mod" } else { "unmod" };
        format!("{}+{} w{} {vm}", self.high, self.low, self.write_pct)
    }

    fn params(&self, cell_seed: u64) -> BenchParams {
        let s = Scale::default_scale();
        BenchParams {
            high_threads: self.high,
            low_threads: self.low,
            high_iters: s.high_iters_small,
            low_iters: s.low_iters,
            sections: s.sections,
            write_pct: self.write_pct,
            modified: self.modified,
            seed: cell_seed,
            quantum: s.quantum,
        }
    }
}

/// The 36 cells of one pass, in run order.
pub fn grid() -> Vec<Config> {
    let mut cells = Vec::new();
    for (high, low) in MIXES {
        for write_pct in WRITE_PCTS {
            for modified in [false, true] {
                cells.push(Config { high, low, write_pct, modified });
            }
        }
    }
    cells
}

/// The simulated statistics a speed-up must leave identical.
fn exact(c: &CellResult) -> [(&'static str, u64); 5] {
    [
        ("instructions", c.metrics.instructions),
        ("high_elapsed", c.high_elapsed),
        ("overall_elapsed", c.overall_elapsed),
        ("rollbacks", c.metrics.rollbacks),
        ("log_entries", c.metrics.log_entries),
    ]
}

/// Generated inputs.
pub struct Input {
    cell_seed: u64,
    grid: Vec<Config>,
    /// Golden cells for a blessed seed.
    golden: Option<Vec<Value>>,
    /// Seed-independent: instructions of the unmodified cells (seed-1 golden).
    unmodified_instructions: Option<Vec<Option<u64>>>,
    /// A golden file exists but could not be used.
    golden_error: Option<String>,
}

fn golden_cells(doc: &Value, grid: &[Config]) -> Result<Vec<Value>, String> {
    let cells = doc.get("cells").and_then(Value::as_arr).ok_or("golden has no `cells`")?;
    let sections = Scale::default_scale().sections as u64;
    if doc.get("sections").and_then(Value::as_u64) != Some(sections) {
        return Err(format!(
            "golden was blessed at another scale (now {sections} sections); re-bless"
        ));
    }
    if cells.len() != grid.len() {
        return Err(format!("golden has {} cells, the grid {}", cells.len(), grid.len()));
    }
    Ok(cells.to_vec())
}

/// The workload.
pub struct VmFig5;

impl Workload for VmFig5 {
    const NAME: &'static str = "vm_fig5";
    const SETUP_REPS: usize = 9;
    type Input = Input;

    fn setup(seed: u64) -> Input {
        let grid = grid();
        let mut golden_error = None;
        let mut cells_of = |s: u64| match load_golden(Self::NAME, s) {
            Ok(Some(doc)) => golden_cells(&doc, &grid).map_err(|e| golden_error = Some(e)).ok(),
            Ok(None) => None,
            Err(e) => {
                golden_error = Some(e);
                None
            }
        };
        let golden = cells_of(seed);
        let unmodified_instructions = cells_of(1).map(|cells| {
            cells
                .iter()
                .zip(&grid)
                .map(|(c, g)| {
                    (!g.modified).then(|| c.get("instructions").and_then(Value::as_u64)).flatten()
                })
                .collect()
        });
        let cell_seed = mix(seed, 5);
        // Warm-up: one single-section cell per VM flavour, so the first
        // timed cell does not pay first-touch costs.
        for modified in [false, true] {
            let mut p = Config { high: 2, low: 2, write_pct: 50, modified }.params(cell_seed);
            p.sections = 1;
            std::hint::black_box(run_cell(&p));
        }
        Input { cell_seed, grid, golden, unmodified_instructions, golden_error }
    }

    fn run(input: &mut Input, ctx: &mut Ctx) -> Outcome {
        let mut out = Outcome::default();
        if let Some(e) = &input.golden_error {
            out.attempted += 1;
            out.fail(format!("golden: {e}"));
        }
        let n = input.grid.len();
        let mut times = PassTimes::new(n);
        let mut first: Vec<CellResult> = Vec::with_capacity(n);
        let marks = PhaseMark::now();
        let mut pass = 0u64;
        // Whole passes until the window closes; a traced run needs one
        // pass on either side of the alternation.
        while pass <= u64::from(ctx.alternate) || !ctx.expired() {
            ctx.between_passes();
            let traced = ctx.begin_op(pass);
            let (grid, cell_seed, calib) = (&input.grid, input.cell_seed, &mut ctx.calib);
            let cells: Vec<(CellResult, Instant, f64)> =
                ctx.tracer.span("grid_pass", HARNESS, pass, |t| {
                    grid.iter()
                        .map(|cfg| {
                            let p = cfg.params(cell_seed);
                            calib.tick();
                            let t0 = Instant::now();
                            let cell = t.span("run_cell", "vm", pass, |t| {
                                let cell = run_cell(&p);
                                t.count("instructions", cell.metrics.instructions);
                                t.count("log_entries", cell.metrics.log_entries);
                                t.count("rollbacks", cell.metrics.rollbacks);
                                cell
                            });
                            (cell, t0, t0.elapsed().as_nanos() as f64)
                        })
                        .collect()
                });
            times.begin_pass(traced);
            for (i, (cell, t0, cell_ns)) in cells.into_iter().enumerate() {
                out.attempted += 1;
                times.push(t0, cell_ns);
                if pass == 0 {
                    check_cell(input, i, &cell, &mut out);
                    first.push(cell);
                } else if exact(&cell) != exact(&first[i]) {
                    out.fail(format!(
                        "{}: pass {pass} is not a repeat of pass 0 ({:?} vs {:?})",
                        input.grid[i].label(),
                        exact(&cell),
                        exact(&first[i])
                    ));
                }
            }
            pass += 1;
        }
        ctx.calib.sample();
        for violation in shape_violations(&input.grid, &first) {
            out.fail(violation);
        }

        let cal = times.calibrated(&ctx.calib);
        let instructions = |i: usize| first[i % n].metrics.instructions as f64;
        let per_instr: Vec<f64> = (0..n).map(|i| cal.op_ns(i) / instructions(i)).collect();
        let sweep_ns = cal.pass_ns();
        let ns_per_instr_p50 = stats::median(&per_instr);
        out.latency_us = sweep_ns / 1e3;
        out.work_per_s = 1e9 / ns_per_instr_p50;
        out.overhead_ratio = cal.overhead_ratio().filter(|_| ctx.alternate);

        let raw_pass_s = times.raw_pass_s();
        let raw_per_instr: Vec<f64> =
            times.raw_ns().iter().enumerate().map(|(k, ns)| ns / instructions(k)).collect();
        out.rows.push(Row {
            name: "sweep_s",
            unit: "s",
            value: sweep_ns / 1e9,
            summary: Some(stats::summarize(&raw_pass_s)),
        });
        out.rows.push(Row {
            name: "ns_per_instr_p50",
            unit: "ns",
            value: ns_per_instr_p50,
            summary: Some(stats::summarize(&raw_per_instr)),
        });
        out.rows.push(Row {
            name: "sweep_s_floor",
            unit: "s",
            value: times.floor_ns() / 1e9,
            summary: None,
        });

        // Per-layer readings. The four interpreter rows and the barrier
        // cost come from the 2+8 cells at the write-ratio extremes.
        let at = |write_pct: i64, modified: bool| {
            input
                .grid
                .iter()
                .position(|c| {
                    (c.high, c.low, c.write_pct, c.modified) == (2, 8, write_pct, modified)
                })
                .expect("the grid has the 2+8 extremes")
        };
        let l = &mut out.layer;
        for (name, w, m) in [
            ("vm.interp_ns_per_instr.unmod_w0", 0, false),
            ("vm.interp_ns_per_instr.unmod_w100", 100, false),
            ("vm.interp_ns_per_instr.mod_w0", 0, true),
            ("vm.interp_ns_per_instr.mod_w100", 100, true),
        ] {
            l.set(name, cal.op_ns(at(w, m)) / instructions(at(w, m)));
        }
        let (mw, uw) = (at(100, true), at(100, false));
        l.set(
            "vm.barrier_ns_per_logged_write",
            (cal.op_ns(mw) - cal.op_ns(uw)) / first[mw].metrics.log_entries.max(1) as f64,
        );
        l.set("vm.ns_per_instr_p90", stats::quantile(&per_instr, 0.9));
        for (name, phase) in [
            ("vm.phase.signal_victim_ns_p50", Phase::SignalVictim),
            ("vm.phase.undo_walk_ns_p50", Phase::UndoWalk),
            ("vm.phase.restore_ns_p50", Phase::Restore),
            ("vm.phase.requeue_ns_p50", Phase::Requeue),
        ] {
            l.set(name, marks.p50_since(phase));
        }
        let total = |f: fn(&CellResult) -> u64| first.iter().map(f).sum::<u64>() as f64;
        l.set("vm.instructions", total(|c| c.metrics.instructions));
        l.set("vm.context_switches", total(|c| c.metrics.context_switches));
        l.set("vm.log_entries", total(|c| c.metrics.log_entries));
        l.set("vm.barrier_slow_paths", total(|c| c.metrics.barrier_slow_paths));
        l.set("vm.rollbacks", total(|c| c.metrics.rollbacks));
        l.set("vm.entries_restored", total(|c| c.metrics.entries_rolled_back));
        for (name, (high, low)) in
            ["vm.fig5_gain_pct.2p8", "vm.fig5_gain_pct.5p5", "vm.fig5_gain_pct.8p2"]
                .into_iter()
                .zip(MIXES)
        {
            l.set(name, mean_gain_pct(&input.grid, &first, high, low));
        }
        out
    }
}

/// Golden and per-cell invariants for pass 0's cell `i`.
fn check_cell(input: &Input, i: usize, cell: &CellResult, out: &mut Outcome) {
    let cfg = input.grid[i];
    let mut problems = Vec::new();
    if let Some(golden) = &input.golden {
        problems.extend(diff_counts(&cfg.label(), &exact(cell), &golden[i]));
    }
    if !cfg.modified {
        if cell.metrics.rollbacks != 0 {
            problems.push(format!(
                "{}: {} rollbacks on the unmodified VM",
                cfg.label(),
                cell.metrics.rollbacks
            ));
        }
        let expected = input.unmodified_instructions.as_ref().and_then(|u| u[i]);
        if expected.is_some_and(|e| e != cell.metrics.instructions) {
            problems.push(format!(
                "{}: {} instructions, seed-independent golden {}",
                cfg.label(),
                cell.metrics.instructions,
                expected.unwrap_or(0)
            ));
        }
    }
    // The write barrier logs exactly when the section writes.
    if cfg.modified && (cell.metrics.log_entries > 0) != (cfg.write_pct > 0) {
        problems.push(format!(
            "{}: {} undo-log entries at {} % writes",
            cfg.label(),
            cell.metrics.log_entries,
            cfg.write_pct
        ));
    }
    if !problems.is_empty() {
        out.fail(problems.join("; "));
    }
}

/// Figure 5(a)'s qualitative shape: with two high-priority and eight
/// low-priority threads the modified VM finishes the high-priority
/// threads sooner at every write ratio. Returns the cells where it
/// does not. Held to on every seed: at default scale it held on each of
/// 40 seeds tried (at a fifth of the sections it failed on one in ten).
fn shape_violations(grid: &[Config], cells: &[CellResult]) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, cfg) in grid.iter().enumerate() {
        if (cfg.high, cfg.low, cfg.modified) == (2, 8, true) {
            // The unmodified twin runs just before the modified cell.
            let (unmod, modi) = (&cells[i - 1], &cells[i]);
            if modi.high_elapsed >= unmod.high_elapsed {
                violations.push(format!(
                    "{}: high-priority elapsed {} does not beat unmodified {}",
                    cfg.label(),
                    modi.high_elapsed,
                    unmod.high_elapsed
                ));
            }
        }
    }
    violations
}

/// Mean over the write ratios of `(unmodified ÷ modified − 1) × 100`
/// for the high-priority elapsed time of one mix.
fn mean_gain_pct(grid: &[Config], cells: &[CellResult], high: usize, low: usize) -> f64 {
    let gains: Vec<f64> = grid
        .iter()
        .enumerate()
        .filter(|(_, c)| (c.high, c.low, c.modified) == (high, low, true))
        .map(|(i, _)| {
            (cells[i - 1].high_elapsed as f64 / cells[i].high_elapsed as f64 - 1.0) * 100.0
        })
        .collect();
    gains.iter().sum::<f64>() / gains.len().max(1) as f64
}

/// Run one pass for `seed` and return the golden document (`--bless`),
/// or the reasons this seed cannot be blessed.
pub fn bless(seed: u64) -> Result<Value, String> {
    let cell_seed = mix(seed, 5);
    let grid = grid();
    let results: Vec<CellResult> =
        grid.iter().map(|cfg| run_cell(&cfg.params(cell_seed))).collect();
    let violations = shape_violations(&grid, &results);
    if !violations.is_empty() {
        return Err(format!(
            "seed {seed} does not show Figure 5(a)'s shape: {}",
            violations.join("; ")
        ));
    }
    let cells = grid
        .iter()
        .zip(&results)
        .map(|(cfg, cell)| {
            let mut members = vec![
                ("high".to_string(), Value::from(cfg.high as u64)),
                ("low".to_string(), Value::from(cfg.low as u64)),
                ("write_pct".to_string(), Value::from(cfg.write_pct as u64)),
                ("modified".to_string(), Value::from(cfg.modified)),
            ];
            members.extend(exact(cell).iter().map(|&(k, v)| (k.to_string(), Value::from(v))));
            Value::Obj(members)
        })
        .collect();
    Ok(obj([
        ("workload", Value::from(VmFig5::NAME)),
        ("seed", Value::from(seed)),
        ("sections", Value::from(Scale::default_scale().sections as u64)),
        ("cells", Value::Arr(cells)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_the_papers_36_cells_with_twins_adjacent() {
        let g = grid();
        assert_eq!(g.len(), 36);
        for pair in g.chunks(2) {
            assert!(!pair[0].modified && pair[1].modified);
            assert_eq!((pair[0].high, pair[0].write_pct), (pair[1].high, pair[1].write_pct));
        }
    }

    #[test]
    fn golden_of_another_section_count_is_refused() {
        let doc = obj([("sections", Value::from(99u64)), ("cells", Value::Arr(vec![]))]);
        assert!(golden_cells(&doc, &grid()).unwrap_err().contains("re-bless"));
    }
}
