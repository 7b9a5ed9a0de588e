//! Headline statistics (§4.2 in-text claims), aggregated over the
//! Figure 5–8 grids:
//!
//! * high-priority throughput improvement of 25–100 % when the ratio of
//!   high- to low-priority threads is low,
//! * average elapsed-time percentage gain across all configurations: 78 %,
//! * discarding the 8+2 configuration: high-priority threads ~2× as fast,
//! * overall elapsed time on average ~30 % higher on the modified VM.
//!
//! Run with `cargo bench -p revmon-bench --bench summary_stats`.

use revmon_bench::{figure_series, gain_pct, measure, Series, MIXES};

fn main() {
    let scale = measure::scale_from_env();
    println!("# Headline statistics over the Figure 5-8 grid (scaled workload)");

    let mut all_gains: Vec<f64> = Vec::new();
    let mut gains_excl_82: Vec<f64> = Vec::new();
    let mut overheads: Vec<f64> = Vec::new();

    for iters in [scale.high_iters_small, scale.high_iters_large] {
        for (high, low) in MIXES {
            let hp = figure_series(high, low, iters, &scale, Series::HighPriority);
            let ov = figure_series(high, low, iters, &scale, Series::Overall);
            for r in &hp {
                let g = gain_pct(r);
                all_gains.push(g);
                if (high, low) != (8, 2) {
                    gains_excl_82.push(g);
                }
            }
            for r in &ov {
                overheads.push((r.modified / r.unmodified - 1.0) * 100.0);
            }
            let mix_avg = hp.iter().map(gain_pct).sum::<f64>() / hp.len() as f64;
            println!(
                "  mix {high}+{low}, high-iters {iters}: avg high-priority gain {mix_avg:+.1}%"
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
