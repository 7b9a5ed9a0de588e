//! Figure 7: normalized overall elapsed time (all threads), 100K-class
//! high-priority iterations.
//!
//! Run with `cargo bench -p revmon-bench --bench fig7_overall_100k`.

use revmon_bench::{export, measure, print_figure, Series};

fn main() {
    let scale = measure::scale_from_env();
    let figs = print_figure(
        "Figure 7",
        "overall time, 100K-class iterations",
        scale.high_iters_small,
        &scale,
        Series::Overall,
    );
    match export::write_figure_summary_with(export::results_dir(), "fig7", "overall", &figs, None) {
        Ok(p) => println!("# wrote {}", p.display()),
        Err(e) => eprintln!("# could not write summary JSON: {e}"),
    }
    println!("\n# shape checks (paper: overall time on the modified VM is always longer)");
    for ((high, low), rows) in &figs {
        let pass = rows.iter().all(|r| r.modified >= r.unmodified * 0.98);
        let overhead = rows.iter().map(|r| (r.modified / r.unmodified - 1.0) * 100.0).sum::<f64>()
            / rows.len() as f64;
        println!(
            "  {high}+{low}: average overall overhead {overhead:+.1}% — {}",
            if pass { "PASS (modified >= unmodified)" } else { "FAIL" }
        );
    }
}
