//! What the host contributes to a reading: core count, clock cost, a
//! fixed calibration kernel interleaved with the samples, and the
//! process's peak resident set.

use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line identifying the host a number was taken on.
pub fn fingerprint() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown-cpu".into());
    format!("{} cores; {model}; {}", cores(), std::env::consts::OS)
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not offer it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Cost of one `Instant::now()` in ns (every sample pays two).
pub fn instant_now_ns() -> f64 {
    let per_sample = 10_000u32;
    let samples: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_sample {
                black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(per_sample)
        })
        .collect();
    stats::quiet_floor(&samples)
}

/// The fixed kernel: xorshift indices into a 64 KiB table, 200 000
/// dependent loads and adds. It does the same work on every call, so
/// any movement in its time is the host, not the program under test.
fn kernel(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc ^ x;
    }
    acc
}

/// Runs the fixed kernel between operations, at most once per
/// [`Calibrator::EVERY`], and turns wall time into *calibrated* time.
///
/// Why: this 2-vCPU shared host has two speeds. For seconds to tens of
/// seconds at a time everything CPU-bound — the kernel included — runs
/// about 1.25× slower, and the share of a 20-second run spent in the
/// slow state ranged from 10 % to 100 %. Medians of wall time therefore
/// moved by up to 32 % between runs of one binary (quartile distance
/// 0.07–0.18 of the median over ten runs), which no 0.10 bound survives.
/// Dividing every sample by the kernel's time *around that sample*
/// takes that state out: the same medians then repeated within 1–8 %
/// (quartile distance 0.008–0.05). The README has the table.
///
/// It does not take out everything. In a second kind of spell the VM's
/// interpreter runs up to 2× slower while this kernel, and every other
/// small kernel tried (dependent loads over 64 KiB to 4 MiB, eight
/// independent chains, a 64-handler dispatch loop), sees 1.0–1.3×. What
/// calibration leaves is dealt with by the statistic, [`stats::steady`].
pub struct Calibrator {
    table: Vec<u64>,
    /// When each sample was taken and the kernel's time in ms, in time order.
    samples: Vec<(Instant, f64)>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Minimum spacing of calibration samples (≈ 1.3 % of the run).
    pub const EVERY: Duration = Duration::from_millis(25);

    /// The kernel's time on the sizing host when it is quiet, in ms.
    /// Calibrated time is wall time × `REF_MS` ÷ the kernel's time near
    /// the sample: the time the operation takes while the kernel takes
    /// `REF_MS`. Frozen: changing it rescales every timing.
    pub const REF_MS: f64 = 0.31;

    /// Kernel samples this close to an operation count as taken during it.
    /// Wide enough that the median is over four samples or more (one
    /// sample that caught an interrupt then moves nothing), narrow beside
    /// the seconds a spell of the host lasts.
    const NEAR: Duration = Duration::from_millis(100);

    /// A calibrator with one warm-up pass done and one sample taken.
    pub fn new() -> Self {
        let mut c = Calibrator { table: (0..8192u64).collect(), samples: Vec::new() };
        black_box(kernel(&mut c.table));
        c.sample();
        c
    }

    /// Take a sample now. Call right before and right after an operation
    /// longer than [`Calibrator::EVERY`].
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(kernel(&mut self.table));
        self.samples.push((t0, t0.elapsed().as_secs_f64() * 1e3));
    }

    /// Call between operations: takes a sample if one is due.
    pub fn tick(&mut self) {
        if self.samples.last().is_none_or(|(at, _)| at.elapsed() >= Self::EVERY) {
            self.sample();
        }
    }

    /// The factor that turns the wall time of an operation that ran from
    /// `t0` for `took` into calibrated time: [`Calibrator::REF_MS`] ÷ the
    /// median kernel time of the samples taken during the operation or
    /// within [`Calibrator::NEAR`] of it, or of the nearest sample when
    /// there is none. Ask only once the sample after the operation exists.
    pub fn scale(&self, t0: Instant, took: Duration) -> f64 {
        let (from, to) = (t0.checked_sub(Self::NEAR).unwrap_or(t0), t0 + took + Self::NEAR);
        let lo = self.samples.partition_point(|(at, _)| *at < from);
        let hi = self.samples.partition_point(|(at, _)| *at <= to);
        let near: Vec<f64> = if lo < hi {
            self.samples[lo..hi].iter().map(|s| s.1).collect()
        } else {
            // `lo` is the first sample after the operation, `lo - 1` the last before it.
            let dist = |i: usize| {
                let at = self.samples[i].0;
                at.saturating_duration_since(t0).max(t0.saturating_duration_since(at))
            };
            let last = self.samples.len() - 1;
            let (a, b) = (lo.saturating_sub(1).min(last), lo.min(last));
            vec![self.samples[if dist(a) <= dist(b) { a } else { b }].1]
        };
        Self::REF_MS / stats::median(&near)
    }

    /// `ns` of wall time taken from `t0`, as calibrated ns.
    pub fn calibrated_ns(&self, t0: Instant, ns: f64) -> f64 {
        ns * self.scale(t0, Duration::from_nanos(ns as u64))
    }

    fn all_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    /// Median kernel time in ms.
    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.all_ms())
    }

    /// Quartile distance of the kernel time as a share of its median.
    pub fn spread(&self) -> f64 {
        stats::spread(&self.all_ms())
    }

    /// Samples taken.
    pub fn n(&self) -> usize {
        self.samples.len()
    }
}

/// splitmix64: derives independent input seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_calibrator_collects() {
        let mut a: Vec<u64> = (0..8192).collect();
        let mut b = a.clone();
        assert_eq!(kernel(&mut a), kernel(&mut b));
        let mut c = Calibrator::new();
        assert_eq!(c.n(), 1);
        c.tick(); // not due yet
        assert_eq!(c.n(), 1);
        c.sample();
        assert_eq!(c.n(), 2);
        assert!(c.p50_ms() > 0.0);
    }

    #[test]
    fn scale_uses_the_samples_around_the_operation() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        // The host is quiet until 1 s, then 1.5x slower.
        let samples = vec![(at(800), 0.31), (at(850), 0.31), (at(1100), 0.465), (at(1150), 0.465)];
        let c = Calibrator { table: Vec::new(), samples };
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // A 20 ms operation at 840 ms sees only the quiet samples.
        assert!(close(c.scale(at(840), Duration::from_millis(20)), 1.0));
        // One inside the slow stretch is scaled back by 1.5.
        assert!(close(c.scale(at(1135), Duration::from_millis(20)), 1.0 / 1.5));
        assert!(close(c.calibrated_ns(at(1135), 3e6), 2e6));
        // No sample within reach: the nearest one decides, on either side.
        assert!(close(c.scale(at(2400), Duration::from_millis(1)), 1.0 / 1.5));
        let before = Calibrator { table: Vec::new(), samples: vec![(at(500), 0.62)] };
        assert!(close(before.scale(at(0), Duration::from_millis(1)), 0.5));
    }

    #[test]
    fn mix_separates_seeds_and_salts() {
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }

    #[test]
    fn host_facts_are_sane() {
        assert!(cores() >= 1);
        assert!(instant_now_ns() > 0.0);
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
        assert!(fingerprint().contains("cores"));
    }
}
