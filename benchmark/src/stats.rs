//! Order statistics for timing samples.
//!
//! Five rules live here and nowhere else:
//!
//! * [`steady`] — what every timing of a repeated operation is reported
//!   as: the mean of the lowest quarter of its repetitions, each in
//!   calibrated time (`host.rs`);
//! * [`quantile`] — linear interpolation between order statistics;
//! * [`quartiles`] / [`spread`] — the rule Python's
//!   `statistics.quantiles(values, n=4)` uses, because that is how the
//!   acceptance driver computes run-to-run spread;
//! * [`tail`] — the highest percentile that still has at least ten
//!   samples beyond it (a p99 of 40 samples is one sample; it is not
//!   reported);
//! * [`quiet_floor`] — the lowest reading: what the per-layer probes
//!   report of their seven samples, and a context row beside the
//!   workloads' steady readings. Never an end-to-end metric.

/// Sort a copy of `xs` ascending. NaN never occurs in timing samples;
/// should one appear it sorts last instead of panicking.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Quantile `q` (0..=1) of an ascending slice, interpolating linearly
/// between the two nearest order statistics. 0.0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// [`quantile_sorted`] of an unsorted slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(xs), q)
}

/// Median of an unsorted slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `(q1, median, q3)` by the *exclusive* method of Python's
/// `statistics.quantiles(values, n=4)`. Needs two or more values; with
/// fewer, all three are the single value (or 0.0).
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let data = sorted(xs);
    let len = data.len();
    if len < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Run-to-run spread as the driver measures it: the distance between
/// the first and third quartile as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The candidate tail percentiles, most extreme first, each with the
/// divisor that gives the number of samples beyond it.
const TAILS: [(f64, &str, usize); 4] =
    [(0.9999, "p99.99", 10_000), (0.999, "p99.9", 1_000), (0.99, "p99", 100), (0.9, "p90", 10)];

/// The highest percentile of `n` samples that has at least ten samples
/// beyond it, as `(q, label)`; `None` under 100 samples, where not
/// even p90 qualifies.
pub fn tail(n: usize) -> Option<(f64, &'static str)> {
    TAILS.iter().find(|&&(_, _, one_in)| n / one_in >= 10).map(|&(q, label, _)| (q, label))
}

/// The steady reading of an operation repeated on identical input: the
/// mean of the lowest quarter of its repetitions (at least one).
///
/// Interference only ever adds time to a deterministic single-threaded
/// operation, and on this host it comes in spells that last seconds to
/// minutes and slow the program by up to 2× while the calibration kernel
/// (`host.rs`) sees 1.0–1.3× of it. A median therefore reports the host:
/// over ten runs of one binary the medians of calibrated time spread
/// 0.03–0.17 of their median, the lower quartile 0.03–0.07, this reading
/// 0.026–0.034 (README, "Which statistic"). It is not the minimum: a
/// single low outlier (a calibration sample that caught an interrupt
/// scales its neighbours down) is averaged with the readings next to it,
/// and with 8 repetitions it is the mean of the lowest two, with 80 of
/// the lowest twenty. Every repetition does the same work on the same
/// input, so a cost the program pays is in all of them, the lowest too.
pub fn steady(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let k = s.len().div_ceil(4);
    s[..k].iter().sum::<f64>() / k as f64
}

/// The lowest reading of a repeated operation: its cost on a host that
/// is quiet for at least one sample. Interference only ever adds time
/// to a deterministic single-threaded operation, so this is steady, but
/// it is blind to any cost the program pays on some samples and not on
/// others, so no end-to-end metric is a floor.
pub fn quiet_floor(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Summary of one timing sample set, printed beside every metric.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Samples taken.
    pub n: usize,
    /// First quartile, median, third quartile over all samples.
    pub p25: f64,
    /// Median over all samples.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// Highest percentile with at least ten samples beyond it, if any.
    pub tail: Option<(f64, &'static str)>,
}

/// Summarise `samples` by the rules above.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        p25: quantile_sorted(&s, 0.25),
        p50: quantile_sorted(&s, 0.5),
        p75: quantile_sorted(&s, 0.75),
        tail: tail(s.len()).map(|(q, label)| (quantile_sorted(&s, q), label)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 3.0, 7.0));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail(99), None);
        assert_eq!(tail(100).map(|t| t.1), Some("p90"));
        assert_eq!(tail(999).map(|t| t.1), Some("p90"));
        assert_eq!(tail(1_000).map(|t| t.1), Some("p99"));
        assert_eq!(tail(10_000).map(|t| t.1), Some("p99.9"));
        assert_eq!(tail(100_000).map(|t| t.1), Some("p99.99"));
        let xs: Vec<f64> = (0..1_000).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.n, 1_000);
        assert_eq!(s.p50, 499.5);
        let (v, label) = s.tail.expect("1000 samples have a p99");
        assert_eq!(label, "p99");
        assert!((v - 989.01).abs() < 1e-9, "p99 of 0..1000 is {v}");
    }

    #[test]
    fn quantile_interpolates_and_handles_small_inputs() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 1.0), 4.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.0), 1.0);
    }

    #[test]
    fn steady_is_the_mean_of_the_lowest_quarter() {
        assert_eq!(steady(&[]), 0.0);
        assert_eq!(steady(&[7.0]), 7.0);
        // 4 or fewer repetitions: the lowest one.
        assert_eq!(steady(&[9.0, 3.0, 5.0, 4.0]), 3.0);
        // 8 repetitions: the lowest two; a slow spell in the other six does not move it.
        let quiet = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0];
        let noisy = [10.0, 11.0, 22.0, 23.0, 24.0, 25.0, 26.0, 27.0];
        assert_eq!(steady(&quiet), 10.5);
        assert_eq!(steady(&noisy), 10.5);
        // 9 repetitions round up to three.
        assert_eq!(steady(&[1.0, 2.0, 3.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0]), 2.0);
        // One low outlier among 8 moves it by half its distance, not all of it.
        assert_eq!(steady(&[4.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]), 7.0);
    }

    #[test]
    fn quiet_floor_is_the_lowest_reading() {
        assert_eq!(quiet_floor(&[10.0, 1.5, 12.0, 5.0]), 1.5);
        assert_eq!(quiet_floor(&[3.0]), 3.0);
    }
}
