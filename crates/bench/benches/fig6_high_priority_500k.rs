//! Figure 6: normalized total elapsed time of high-priority threads,
//! high-priority inner loop = "500K" (scaled; equal to the low-priority
//! section length).
//!
//! Run with `cargo bench -p revmon-bench --bench fig6_high_priority_500k`.

use revmon_bench::{export, gain_pct, measure, print_figure, Series};

fn main() {
    let scale = measure::scale_from_env();
    let figs = print_figure(
        "Figure 6",
        "total time for high-priority threads, 500K-class iterations",
        scale.high_iters_large,
        &scale,
        Series::HighPriority,
    );
    match export::write_figure_summary_with(
        export::results_dir(),
        "fig6",
        "high_priority",
        &figs,
        None,
    ) {
        Ok(p) => println!("# wrote {}", p.display()),
        Err(e) => eprintln!("# could not write summary JSON: {e}"),
    }
    println!("\n# shape checks (paper: (a)/(b) improve 25-100%; (c) at heavy writes can invert)");
    for ((high, low), rows) in &figs {
        let avg_gain = rows.iter().map(gain_pct).sum::<f64>() / rows.len() as f64;
        let wins = rows.iter().filter(|r| r.modified < r.unmodified).count();
        println!(
            "  {high}+{low}: average gain {avg_gain:+.1}%, modified wins {wins}/{} write ratios",
            rows.len()
        );
    }
}
