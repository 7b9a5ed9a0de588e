//! Figure 5: normalized total elapsed time of high-priority threads,
//! high-priority inner loop = "100K" (scaled), for thread mixes
//! 2+8 / 5+5 / 8+2 across write ratios 0–100 %.
//!
//! Run with `cargo bench -p revmon-bench --bench fig5_high_priority_100k`.
//! Set `REVMON_FULL=1` for the paper-scale (very long) run.

use revmon_bench::{export, gain_pct, measure, print_figure, BenchParams, Series};

fn main() {
    let scale = measure::scale_from_env();
    let figs = print_figure(
        "Figure 5",
        "total time for high-priority threads, 100K-class iterations",
        scale.high_iters_small,
        &scale,
        Series::HighPriority,
    );
    // Machine-readable summary (mean + 90 % CI per configuration, plus
    // episode-level context from a representative observed run) and a
    // per-run metrics dump, for future perf comparisons.
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
    let (_, analysis) = export::run_cell_analyzed(&rep);
    println!(
        "# representative run: {} episodes ({} revocation-resolved), {} undo entries wasted",
        analysis.episodes.len(),
        analysis.revocation_episodes(),
        analysis.wasted_entries
    );
    match export::write_figure_summary_with(
        export::results_dir(),
        "fig5",
        "high_priority",
        &figs,
        Some(&analysis),
    ) {
        Ok(p) => println!("# wrote {}", p.display()),
        Err(e) => eprintln!("# could not write summary JSON: {e}"),
    }
    match export::write_run_metrics(export::results_dir(), "fig5", &rep) {
        Ok(p) => println!("# wrote {}", p.display()),
        Err(e) => eprintln!("# could not write run metrics JSON: {e}"),
    }
    // Qualitative shape checks against the paper.
    println!("\n# shape checks (paper: 25-100% improvement for (a)/(b); benefit shrinks in (c))");
    let mut ok = true;
    for ((high, low), rows) in &figs {
        let avg_gain = rows.iter().map(gain_pct).sum::<f64>() / rows.len() as f64;
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
        println!("  {high}+{low}: average high-priority gain {avg_gain:+.1}% — {verdict}");
    }
    println!("# overall: {}", if ok { "SHAPE OK" } else { "SHAPE MISMATCH" });
}
