//! The measurement helpers every bench in `benches/` shares.
//!
//! Absolute timings of this system are taken in one place: the repo
//! benchmark (`benchmark/`, `BENCHMARK.json`), which runs on every
//! accepted PR. The benches here keep what no workload there covers —
//! on/off *ratio* gates ([`Paired`]), footprint and queue-flatness gates,
//! the three-policy comparison, the governor's before/after and the
//! virtual-clock figures — and each helper they need exists once, here.

use crate::{export, Scale};
use std::path::PathBuf;
use std::time::Instant;

/// The two flags a bench binary understands. `cargo bench` passes
/// `--bench` through as well; unknown flags are ignored.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// `--quick`: fewer samples and iterations (CI smoke).
    pub quick: bool,
    /// `--check`: turn the bench's budgets into hard gates (exit 1).
    pub check: bool,
}

impl Args {
    /// Read the flags from the process arguments.
    pub fn from_env() -> Args {
        let has = |flag: &str| std::env::args().any(|a| a == flag);
        Args { quick: has("--quick"), check: has("--check") }
    }

    /// The `"mode"` a results file records for these flags.
    pub fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// The figure benches' workload scale: [`Scale::paper`] when
/// `REVMON_FULL` is set (very long run), else [`Scale::default_scale`].
pub fn scale_from_env() -> Scale {
    if std::env::var("REVMON_FULL").is_ok() {
        Scale::paper()
    } else {
        Scale::default_scale()
    }
}

/// Time `iters` repetitions of `op`, returning ns/op.
pub fn time_ns_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// One untimed warm-up call of `one` (thread-local pools, ring
/// registration, lock inflation state), then `samples` recorded ones.
pub fn sample(samples: usize, mut one: impl FnMut() -> f64) -> Vec<f64> {
    let _ = one();
    (0..samples).map(|_| one()).collect()
}

/// Median; 0.0 for an empty slice. The scheduler on a busy two-core host
/// lands multi-ms preemption spikes on individual samples, and a mean
/// would let one spike decide a gate.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Interleaved on/off samples of one measurement: the method behind
/// every overhead gate.
#[derive(Clone, Debug, Default)]
pub struct Paired {
    /// Samples with the feature off, in measurement order.
    pub off: Vec<f64>,
    /// Samples with the feature on; `on[i]` was taken right after
    /// `off[i]`.
    pub on: Vec<f64>,
}

impl Paired {
    /// Warm up with one untimed off-call, then take `samples` pairs,
    /// alternating `one(false)` and `one(true)` so frequency drift and
    /// host load hit both sides equally. The last call is `one(true)`.
    pub fn measure(samples: usize, mut one: impl FnMut(bool) -> f64) -> Paired {
        let _ = one(false);
        let mut p = Paired::default();
        for _ in 0..samples {
            p.off.push(one(false));
            p.on.push(one(true));
        }
        p
    }

    /// Median of the off samples.
    pub fn off_ns(&self) -> f64 {
        median(&self.off)
    }

    /// Median of the on samples.
    pub fn on_ns(&self) -> f64 {
        median(&self.on)
    }

    /// Median of the paired per-sample ratios: each on-sample is divided
    /// by the off-sample taken right next to it, so slow drift cancels
    /// before the median discards spike samples. 1.0 with no usable pair.
    pub fn ratio(&self) -> f64 {
        let pairs: Vec<f64> =
            self.off.iter().zip(&self.on).filter(|(o, _)| **o > 0.0).map(|(o, n)| n / o).collect();
        if pairs.is_empty() {
            1.0
        } else {
            median(&pairs)
        }
    }
}

/// A `BENCH_<figure>.json` document: the common header (`figure`, `mode`,
/// `host_cores` — wall-clock rows mean nothing without the host they ran
/// on) followed by `body`, the bench's own members (already indented,
/// comma-separated, no trailing newline).
pub fn results_json(figure: &str, mode: &str, body: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\n  \"figure\": \"{figure}\",\n  \"mode\": \"{mode}\",\n  \"host_cores\": {cores},\n\
         {body}\n}}\n"
    )
}

/// Write [`results_json`] to `bench_results/BENCH_<figure>.json` and say
/// so on stdout. Panics on I/O failure: a bench whose results cannot be
/// recorded has nothing else to do.
pub fn write_results(figure: &str, args: Args, body: &str) -> PathBuf {
    let json = results_json(figure, args.mode(), body);
    let path = export::write_bench_file(export::results_dir(), figure, &json)
        .unwrap_or_else(|e| panic!("write BENCH_{figure}.json: {e}"));
    println!("wrote {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmon_obs::json::{Reader, Value};

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn paired_ratio_cancels_a_common_drift_factor() {
        // Every on-sample is twice its neighbour while the host slows
        // down 10x over the run: the medians of the two sides say
        // nothing useful, the paired ratio says 2.0 exactly.
        let mut drift = 1.0;
        let p = Paired::measure(7, |on| {
            if on {
                let v = 2.0 * drift;
                drift *= 1.4;
                v
            } else {
                drift
            }
        });
        assert_eq!(p.off.len(), 7);
        assert_eq!(p.on.len(), 7);
        assert_eq!(p.ratio(), 2.0);
        assert_eq!(p.on_ns(), 2.0 * p.off_ns());
        assert_eq!(Paired::default().ratio(), 1.0, "no pairs: neutral");
    }

    #[test]
    fn paired_measure_warms_up_off_and_ends_on() {
        let mut calls = Vec::new();
        Paired::measure(2, |on| {
            calls.push(on);
            1.0
        });
        assert_eq!(calls, [false, false, true, false, true]);
    }

    #[test]
    fn sample_discards_the_warm_up() {
        let mut n = 0.0;
        let xs = sample(3, || {
            n += 1.0;
            n
        });
        assert_eq!(xs, [2.0, 3.0, 4.0]);
    }

    #[test]
    fn results_header_parses_with_the_workspace_reader() {
        let json = results_json("obs", "full", "  \"unit\": \"ns_per_op\",\n  \"rows\": [1, 2]");
        let mut r = Reader::new(&json);
        r.begin(b'{').unwrap();
        let mut seen = Vec::new();
        while r.more(b'}').unwrap() {
            let key = r.key().unwrap().into_owned();
            if key == "rows" {
                r.begin(b'[').unwrap();
                while r.more(b']').unwrap() {
                    r.num::<u64>().unwrap();
                }
            } else {
                seen.push((key, r.value().unwrap()));
            }
        }
        r.end().unwrap();
        assert_eq!(seen[0], ("figure".into(), Value::Str("obs".into())));
        assert_eq!(seen[1], ("mode".into(), Value::Str("full".into())));
        assert_eq!(seen[2].0, "host_cores");
        assert!(seen[2].1.as_num().is_some_and(|n| n >= 1));
        assert_eq!(seen[3], ("unit".into(), Value::Str("ns_per_op".into())));
    }
}
