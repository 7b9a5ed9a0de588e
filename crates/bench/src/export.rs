//! JSON export of benchmark results: per-figure summaries
//! (`bench_results/BENCH_fig5.json` and friends, mean + 90 % CI per
//! configuration) and per-run metrics dumps built on `revmon-obs`.
//!
//! The summaries give future PRs a machine-readable perf trajectory: a
//! change can re-run a figure and diff the JSON instead of eyeballing
//! console tables. JSON is emitted by hand, matching `revmon-obs` (no
//! serde in the build environment).

use crate::{run_cell_sink, BenchParams, CellResult, FigureRow};
use revmon_vm::VmConfig;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One figure's summary — every mix's rows — as a JSON document:
///
/// ```json
/// {"figure":"fig5","series":"high_priority","mixes":[
///   {"high":2,"low":8,"rows":[
///     {"write_pct":0,
///      "modified":{"mean":0.9,"ci90":0.01},
///      "unmodified":{"mean":1.0,"ci90":0.02}}]}]}
/// ```
///
/// Values are the normalized elapsed times straight from
/// [`FigureRow`]; `ci90` is the 90 % confidence-interval half-width
/// (`revmon_core::metrics::ci90_half_width`) in the same units. They are
/// virtual-clock results, so the document carries no `mode` or host
/// header and regenerates byte for byte.
///
/// With `episodes`, an `episodes` block summarizes one representative
/// observed run's priority-inversion episodes: count, per-resolution
/// counts, mean/p99 inversion latency (virtual ticks) and wasted undo
/// entries — the run-quality context behind the mean+ci90 timing rows.
pub fn figure_summary_json_with(
    figure: &str,
    series: &str,
    figs: &[((usize, usize), Vec<FigureRow>)],
    episodes: Option<&revmon_obs::Analysis>,
) -> String {
    let mut out =
        format!("{{\n  \"figure\": \"{figure}\",\n  \"series\": \"{series}\",\n  \"mixes\": [\n");
    let mixes: Vec<String> = figs
        .iter()
        .map(|((high, low), rows)| {
            let rows_json: Vec<String> = rows
                .iter()
                .map(|r| {
                    format!(
                        "        {{\"write_pct\": {}, \
                         \"modified\": {{\"mean\": {:.6}, \"ci90\": {:.6}}}, \
                         \"unmodified\": {{\"mean\": {:.6}, \"ci90\": {:.6}}}}}",
                        r.write_pct, r.modified, r.modified_ci, r.unmodified, r.unmodified_ci
                    )
                })
                .collect();
            format!(
                "    {{\"high\": {high}, \"low\": {low}, \"rows\": [\n{}\n      ]}}",
                rows_json.join(",\n")
            )
        })
        .collect();
    out.push_str(&mixes.join(",\n"));
    out.push_str("\n  ]");
    if let Some(a) = episodes {
        let res: Vec<String> =
            a.resolution_counts().iter().map(|(r, n)| format!("\"{}\": {n}", r.name())).collect();
        out.push_str(&format!(
            ",\n  \"episodes\": {{\n    \"count\": {},\n    \"resolutions\": {{{}}},\n    \
             \"latency_mean\": {:.3},\n    \"latency_p99\": {},\n    \
             \"wasted_undo_entries\": {},\n    \"wasted_section_ticks\": {}\n  }}",
            a.episodes.len(),
            res.join(", "),
            a.inversion_latency.mean(),
            a.inversion_latency.percentile(99.0),
            a.wasted_entries,
            a.wasted_time,
        ));
    }
    out.push_str("\n}\n");
    out
}

/// `bench_results/` at the **workspace** root. Cargo runs bench binaries
/// with the package root (`crates/bench`) as their working directory, so
/// a relative `bench_results/` would land next to this crate instead of
/// beside `figures.txt`; anchor on the manifest dir instead.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results")
}

/// Write `contents` to `dir/BENCH_<name>.json`, creating `dir` if needed.
/// Returns the path written.
pub fn write_bench_file(dir: impl AsRef<Path>, name: &str, contents: &str) -> io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, contents)?;
    Ok(path.canonicalize().unwrap_or(path))
}

/// Write a figure's summary (see [`figure_summary_json_with`]) to
/// `dir/BENCH_<figure>.json`. Returns the path written.
pub fn write_figure_summary_with(
    dir: impl AsRef<Path>,
    figure: &str,
    series: &str,
    figs: &[((usize, usize), Vec<FigureRow>)],
    episodes: Option<&revmon_obs::Analysis>,
) -> io::Result<PathBuf> {
    write_bench_file(dir, figure, &figure_summary_json_with(figure, series, figs, episodes))
}

/// Execute one cell with a sink attached and analyze its event stream:
/// the [`CellResult`] plus the reconstructed episode/contention
/// [`revmon_obs::Analysis`] for that run.
pub fn run_cell_analyzed(p: &BenchParams) -> (CellResult, revmon_obs::Analysis) {
    let cfg = if p.modified { VmConfig::modified() } else { VmConfig::unmodified() };
    let sink = Arc::new(revmon_obs::EventSink::new(revmon_obs::TsUnit::VirtualTicks));
    let cell = run_cell_sink(p, cfg, Some(Arc::clone(&sink)));
    let analysis = revmon_obs::Analysis::from_events(&sink.drain());
    (cell, analysis)
}

/// Execute one cell with a `revmon-obs` sink attached and return the run
/// result plus its metrics JSON (all `Metrics` counters + latency
/// percentiles), the same payload the CLI's `--metrics-json` emits.
pub fn run_cell_observed(p: &BenchParams) -> (CellResult, String) {
    let cfg = if p.modified { VmConfig::modified() } else { VmConfig::unmodified() };
    let sink = Arc::new(revmon_obs::EventSink::new(revmon_obs::TsUnit::VirtualTicks));
    let cell = run_cell_sink(p, cfg, Some(Arc::clone(&sink)));
    let mut counters = Vec::new();
    cell.metrics.for_each_field(|name, v| counters.push((name, v)));
    let json = revmon_obs::metrics_json(&counters, sink.histograms(), sink.ts_unit());
    (cell, json)
}

/// Run one cell observed and write its metrics JSON to
/// `dir/BENCH_<tag>_run_metrics.json`. Returns the path written.
pub fn write_run_metrics(dir: impl AsRef<Path>, tag: &str, p: &BenchParams) -> io::Result<PathBuf> {
    let (_, json) = run_cell_observed(p);
    write_bench_file(dir, &format!("{tag}_run_metrics"), &json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn rows() -> Vec<FigureRow> {
        vec![
            FigureRow {
                write_pct: 0,
                modified: 0.91,
                modified_ci: 0.012,
                unmodified: 1.0,
                unmodified_ci: 0.02,
            },
            FigureRow {
                write_pct: 100,
                modified: 0.75,
                modified_ci: 0.03,
                unmodified: 1.4,
                unmodified_ci: 0.05,
            },
        ]
    }

    #[test]
    fn summary_json_is_balanced_and_complete() {
        let figs = vec![((2, 8), rows()), ((8, 2), rows())];
        let json = figure_summary_json_with("fig5", "high_priority", &figs, None);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"figure\": \"fig5\""));
        assert!(json.contains("\"series\": \"high_priority\""));
        assert!(json.contains("\"high\": 2, \"low\": 8"));
        assert!(json.contains("\"write_pct\": 100"));
        assert_eq!(json.matches("\"ci90\"").count(), 8); // 2 mixes × 2 rows × 2 VMs
    }

    #[test]
    fn summary_json_episode_block_rides_alongside_timing_rows() {
        let scale = Scale::smoke();
        let p = BenchParams {
            high_threads: 1,
            low_threads: 2,
            high_iters: scale.high_iters_small,
            low_iters: scale.low_iters,
            sections: scale.sections,
            write_pct: 40,
            modified: true,
            seed: 11,
            quantum: scale.quantum,
        };
        let (_, analysis) = run_cell_analyzed(&p);
        let figs = vec![((2, 8), rows())];
        let json = figure_summary_json_with("fig5", "high_priority", &figs, Some(&analysis));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"episodes\": {"));
        assert!(json.contains("\"resolutions\": {\"revocation\":"));
        assert!(json.contains("\"latency_p99\":"));
        assert!(json.contains("\"wasted_undo_entries\":"));
        // The timing rows are untouched by the new block.
        assert!(json.contains("\"write_pct\": 100"));
        // Without an analysis the block is absent (other figures).
        let bare = figure_summary_json_with("fig5", "high_priority", &figs, None);
        assert!(!bare.contains("episodes"));
    }

    #[test]
    fn observed_run_reports_counters_and_histograms() {
        let scale = Scale::smoke();
        let p = BenchParams {
            high_threads: 1,
            low_threads: 2,
            high_iters: scale.high_iters_small,
            low_iters: scale.low_iters,
            sections: scale.sections,
            write_pct: 40,
            modified: true,
            seed: 11,
            quantum: scale.quantum,
        };
        let (cell, json) = run_cell_observed(&p);
        assert!(cell.metrics.monitor_acquires > 0);
        assert!(json.contains("\"monitor_acquires\""));
        assert!(json.contains("\"section_length\""));
        assert!(json.contains("\"p99\""));
        assert!(json.contains("\"ts_unit\": \"ticks\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
