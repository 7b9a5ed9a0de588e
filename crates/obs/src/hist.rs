//! Log-linear (HDR-style) latency histogram.
//!
//! Fixed memory, lock-free recording, no allocation on the record path.
//! Values 0..16 get exact buckets; above that, each power-of-two octave
//! is split into 16 linear sub-buckets, giving a worst-case relative
//! quantization error of ~6% across the full `u64` range in 976 buckets.
//!
//! Two entry points write the same fields. [`Histogram::record`] takes
//! `&self` for histograms that threads share (the revocation phase
//! timers, the sink's self-cost): relaxed atomic adds, with `min` and
//! `max` touched only when the value moves them. `record_mut` takes
//! `&mut self` for a histogram one fold owns outright (the analyzer's):
//! plain adds through [`AtomicU64::get_mut`], no locked instruction.
//! The borrow the caller holds picks one; both leave identical state.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUBS: u64 = 1 << SUB_BITS;
/// Total bucket count for the full `u64` range.
const NBUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUBS as usize; // 976

/// Concurrent log-linear histogram over `u64` values.
pub struct Histogram {
    buckets: [AtomicU64; NBUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64; // >= SUB_BITS
    let sub = (v >> (msb - SUB_BITS as u64)) & (SUBS - 1);
    ((msb - SUB_BITS as u64 + 1) * SUBS + sub) as usize
}

fn bucket_floor(index: usize) -> u64 {
    let index = index as u64;
    if index < SUBS {
        return index;
    }
    let octave = index / SUBS; // >= 1
    let sub = index % SUBS;
    (SUBS + sub) << (octave - 1)
}

impl Histogram {
    /// Empty histogram. All storage is inline; nothing allocates later.
    pub fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NBUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Wait-free: three relaxed atomic adds, plus a
    /// `fetch_min` / `fetch_max` only when a relaxed load says `v`
    /// would move the bound. `min` only falls and `max` only rises, so
    /// a load that says `v` would not move it stays true.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// [`Histogram::record`] for a histogram nothing else can see: the
    /// same update with plain adds (the sum wraps, as `fetch_add` does).
    pub(crate) fn record_mut(&mut self, v: u64) {
        *self.buckets[bucket_index(v)].get_mut() += 1;
        *self.count.get_mut() += 1;
        let sum = self.sum.get_mut();
        *sum = sum.wrapping_add(v);
        let min = self.min.get_mut();
        *min = (*min).min(v);
        let max = self.max.get_mut();
        *max = (*max).max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Value at percentile `p` (0 < p ≤ 100): the floor of the bucket
    /// holding the p-th ranked recording, clamped into the recorded
    /// `[min, max]`. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_floor(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Visit every non-empty bucket as `(floor_value, count)`, in
    /// ascending value order.
    pub fn for_each_bucket(&self, mut f: impl FnMut(u64, u64)) {
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                f(bucket_floor(i), n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every value maps into range, floors are non-decreasing, and a
        // bucket's floor is <= the values that map to it.
        let mut prev = 0usize;
        for &v in &[0u64, 1, 15, 16, 17, 31, 32, 63, 64, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < NBUCKETS, "index {i} out of range for {v}");
            assert!(i >= prev, "index not monotone at {v}");
            assert!(bucket_floor(i) <= v, "floor above value for {v}");
            prev = i;
        }
        // Exact buckets under the linear threshold.
        for v in 0..16u64 {
            assert_eq!(bucket_floor(bucket_index(v)), v);
        }
        // Contiguity at the linear/log seam.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        for shift in 4..63 {
            let v = (1u64 << shift) + (1 << (shift - 2)) + 7;
            let floor = bucket_floor(bucket_index(v));
            let err = (v - floor) as f64 / v as f64;
            assert!(err < 0.07, "relative error {err} too large at {v}");
        }
    }

    #[test]
    fn percentiles_track_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((450..=520).contains(&p50), "p50 {p50}");
        assert!((900..=1000).contains(&p99), "p99 {p99}");
        assert!(h.percentile(100.0) <= 1000);
        assert!((h.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    /// Every field and a spread of percentiles, read back.
    fn state(h: &Histogram) -> (Vec<u64>, [u64; 5], Vec<u64>) {
        let buckets = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let sum = h.sum.load(Ordering::Relaxed);
        let fields = [h.count(), sum, h.min.load(Ordering::Relaxed), h.min(), h.max()];
        let pcts = [0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0];
        (buckets, fields, pcts.iter().map(|&p| h.percentile(p)).collect())
    }

    /// Small values, both sides of every octave edge, `u64::MAX` (whose
    /// sum wraps), and a seeded run spread over all magnitudes.
    fn sample_values() -> Vec<u64> {
        let mut values: Vec<u64> = (0..=16).collect();
        for shift in 4..64 {
            values.extend([(1u64 << shift) - 1, 1 << shift, (1 << shift) + 1]);
        }
        values.extend([u64::MAX, u64::MAX - 1]);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..5_000 {
            // splitmix64, then a random shift so small values are common.
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            values.push(z >> (z % 64));
        }
        values
    }

    #[test]
    fn record_and_record_mut_leave_identical_state() {
        let values = sample_values();
        for len in [0, 1, 17, values.len()] {
            let shared = Histogram::new();
            let mut owned = Histogram::new();
            for &v in &values[..len] {
                shared.record(v);
                owned.record_mut(v);
            }
            assert_eq!(state(&shared), state(&owned), "after {len} values");
        }
    }

    #[test]
    fn concurrent_records_equal_one_owned_fold() {
        // Each thread records its own share, starting together, so the
        // relaxed load that lets `record` skip `fetch_min` / `fetch_max`
        // races with the other threads' updates; the bounds must still
        // come out exact.
        const THREADS: usize = 4;
        let values = sample_values();
        let shared = Histogram::new();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (shared, values, start) = (&shared, &values, &start);
                s.spawn(move || {
                    start.wait();
                    values.iter().skip(t).step_by(THREADS).for_each(|&v| shared.record(v));
                });
            }
        });
        let mut owned = Histogram::new();
        values.iter().for_each(|&v| owned.record_mut(v));
        assert_eq!(state(&shared), state(&owned));
    }

    #[test]
    fn single_value_percentiles_are_exactish() {
        let h = Histogram::new();
        h.record(1_000_000);
        // Clamped into [min, max], so every percentile is the value.
        assert_eq!(h.percentile(50.0), 1_000_000);
        assert_eq!(h.percentile(99.0), 1_000_000);
    }
}
