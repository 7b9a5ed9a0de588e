//! Figures 5–8 and the §4.2 headline statistics (S1), all read from one
//! run of the evaluation grid: each (loop size, mix, write %, VM, seed)
//! cell runs once, and both its high-priority time (Figures 5–6) and its
//! overall time (Figures 7–8) are kept.
//!
//! * Figure 5 / 7: high-priority / overall time, "100K" high-priority loop;
//! * Figure 6 / 8: the same at "500K" (equal to the low-priority section);
//! * S1: the paper's in-text averages over both grids.
//!
//! Writes `bench_results/BENCH_fig5.json` (with the episode block of a
//! representative traced run), `BENCH_fig5_run_metrics.json` (that run's
//! counters and histograms) and `BENCH_fig6.json` … `BENCH_fig8.json`.
//! Every number is on the virtual clock, so stdout and the files
//! regenerate byte for byte on any host.
//!
//! Run with `cargo bench -p revmon-bench --bench figures`.
//! Set `REVMON_FULL=1` for the paper-scale (very long) run.

use revmon_bench::{export, gain_pct, measure, run_grid, BenchParams, FigureRow, Grid, Scale};
use std::io;
use std::path::PathBuf;

/// One figure: each mix's rows, in [`revmon_bench::MIXES`] order.
type Figure = [((usize, usize), Vec<FigureRow>)];

fn main() {
    let scale = measure::scale_from_env();
    let small = run_grid(scale.high_iters_small, &scale);
    let large = run_grid(scale.high_iters_large, &scale);
    let (fig5, fig6) = (small.high_priority(), large.high_priority());
    let (fig7, fig8) = (small.overall(), large.overall());
    let dir = export::results_dir();

    print_figure(
        "Figure 5",
        "total time for high-priority threads, 100K-class iterations",
        small.high_iters,
        &scale,
        &fig5,
    );
    // Episode-level context for the timing rows, and the same run's
    // counters and histograms, from one traced run of a representative
    // cell.
    let rep = BenchParams {
        high_threads: 2,
        low_threads: 8,
        high_iters: scale.high_iters_small,
        low_iters: scale.low_iters,
        sections: scale.sections,
        write_pct: 40,
        modified: true,
        seed: 0xC0FFEE,
        quantum: scale.quantum,
    };
    let (cell, analysis) = export::run_cell_analyzed(&rep);
    println!(
        "# representative run: {} episodes ({} revocation-resolved), {} undo entries wasted",
        analysis.episodes.len(),
        analysis.revocation_episodes(),
        analysis.wasted_entries
    );
    wrote(export::write_figure_summary_with(&dir, "fig5", "high_priority", &fig5, Some(&analysis)));
    let metrics = export::run_metrics_json(&cell, &analysis);
    wrote(export::write_bench_file(&dir, "fig5_run_metrics", &metrics));
    println!("\n# shape checks (paper: 25-100% improvement for (a)/(b); benefit shrinks in (c))");
    let mut ok = true;
    for ((high, low), rows) in &fig5 {
        let verdict = if high <= low {
            let pass = rows.iter().all(|r| r.modified < r.unmodified);
            ok &= pass;
            if pass {
                "PASS (modified wins at every write ratio)"
            } else {
                "FAIL"
            }
        } else {
            "INFO (paper expects diminished benefit here)"
        };
        println!("  {high}+{low}: average high-priority gain {:+.1}% — {verdict}", avg_gain(rows));
    }
    println!("# overall: {}", if ok { "SHAPE OK" } else { "SHAPE MISMATCH" });

    println!();
    print_figure(
        "Figure 6",
        "total time for high-priority threads, 500K-class iterations",
        large.high_iters,
        &scale,
        &fig6,
    );
    wrote(export::write_figure_summary_with(&dir, "fig6", "high_priority", &fig6, None));
    println!("\n# shape checks (paper: (a)/(b) improve 25-100%; (c) at heavy writes can invert)");
    for ((high, low), rows) in &fig6 {
        let wins = rows.iter().filter(|r| r.modified < r.unmodified).count();
        println!(
            "  {high}+{low}: average gain {:+.1}%, modified wins {wins}/{} write ratios",
            avg_gain(rows),
            rows.len()
        );
    }

    for (name, tag, what, high_iters, fig) in [
        ("Figure 7", "fig7", "overall time, 100K-class iterations", small.high_iters, &fig7),
        ("Figure 8", "fig8", "overall time, 500K-class iterations", large.high_iters, &fig8),
    ] {
        println!();
        print_figure(name, what, high_iters, &scale, fig);
        wrote(export::write_figure_summary_with(&dir, tag, "overall", fig, None));
        println!("\n# shape checks (paper: overall time on the modified VM is always longer)");
        for ((high, low), rows) in fig {
            let pass = rows.iter().all(|r| r.modified >= r.unmodified * 0.98);
            let overhead = rows.iter().map(overhead_pct).sum::<f64>() / rows.len() as f64;
            println!(
                "  {high}+{low}: average overall overhead {overhead:+.1}% — {}",
                if pass { "PASS (modified >= unmodified)" } else { "FAIL" }
            );
        }
    }

    println!();
    print_summary([&small, &large]);
}

/// S1: the paper's in-text claims (§4.2) against both grids —
/// high-priority gain over all configurations (paper: 78 %) and without
/// 8+2 (paper: ~2×), and the modified VM's overall-time overhead
/// (paper: ~30 %).
fn print_summary(grids: [&Grid; 2]) {
    println!("# Headline statistics over the Figure 5-8 grid (scaled workload)");
    let mut all_gains: Vec<f64> = Vec::new();
    let mut gains_excl_82: Vec<f64> = Vec::new();
    let mut overheads: Vec<f64> = Vec::new();
    for grid in grids {
        let (hp, ov) = (grid.high_priority(), grid.overall());
        for (((high, low), hp_rows), (_, ov_rows)) in hp.iter().zip(&ov) {
            for r in hp_rows {
                all_gains.push(gain_pct(r));
                if (*high, *low) != (8, 2) {
                    gains_excl_82.push(gain_pct(r));
                }
            }
            overheads.extend(ov_rows.iter().map(overhead_pct));
            println!(
                "  mix {high}+{low}, high-iters {}: avg high-priority gain {:+.1}%",
                grid.high_iters,
                avg_gain(hp_rows)
            );
        }
    }

    let avg = all_gains.iter().sum::<f64>() / all_gains.len() as f64;
    let avg_excl = gains_excl_82.iter().sum::<f64>() / gains_excl_82.len() as f64;
    let avg_overhead = overheads.iter().sum::<f64>() / overheads.len() as f64;
    let speedup_excl =
        gains_excl_82.iter().map(|g| 1.0 + g / 100.0).sum::<f64>() / gains_excl_82.len() as f64;

    println!();
    println!("{:<56} {:>10} {:>10}", "statistic", "paper", "measured");
    println!("{:<56} {:>10} {:>9.1}%", "avg high-priority gain, all configurations", "78%", avg);
    println!(
        "{:<56} {:>10} {:>9.2}x",
        "avg high-priority speedup, excluding 8+2", "~2x", speedup_excl
    );
    println!("{:<56} {:>10} {:>9.1}%", "avg high-priority gain, excluding 8+2", "~100%", avg_excl);
    println!(
        "{:<56} {:>10} {:>9.1}%",
        "avg overall-time overhead (modified VM)", "~30%", avg_overhead
    );
}

/// Print a figure's three sub-plots in the paper's layout.
fn print_figure(name: &str, what: &str, high_iters: i64, scale: &Scale, fig: &Figure) {
    println!("# {name}: {what}");
    println!(
        "# scaled workload: low-priority {} ops/section, high-priority {} ops/section, {} sections/thread, {} seeds",
        scale.low_iters, high_iters, scale.sections, scale.repetitions
    );
    for (label, ((high, low), rows)) in ["(a)", "(b)", "(c)"].iter().zip(fig) {
        println!("\n## {name}{label}: {high} high-priority + {low} low-priority");
        println!(
            "{:>7} {:>12} {:>8} {:>12} {:>8}",
            "write%", "MODIFIED", "±90%CI", "UNMODIFIED", "±90%CI"
        );
        for r in rows {
            println!(
                "{:>7} {:>12.3} {:>8.3} {:>12.3} {:>8.3}",
                r.write_pct, r.modified, r.modified_ci, r.unmodified, r.unmodified_ci
            );
        }
    }
}

/// Mean [`gain_pct`] over a mix's write ratios.
fn avg_gain(rows: &[FigureRow]) -> f64 {
    rows.iter().map(gain_pct).sum::<f64>() / rows.len() as f64
}

/// The modified VM's extra overall time in a row, in percent.
fn overhead_pct(r: &FigureRow) -> f64 {
    (r.modified / r.unmodified - 1.0) * 100.0
}

/// Report a results file by its path under the workspace root, so the
/// output does not depend on where the checkout lives.
fn wrote(written: io::Result<PathBuf>) {
    let path = written.expect("write a bench_results/ file");
    let name = path.file_name().expect("a results file has a name").to_string_lossy();
    println!("# wrote bench_results/{name}");
}
