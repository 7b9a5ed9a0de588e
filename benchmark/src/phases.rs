//! Reading the revocation phase timers from outside.
//!
//! `revmon_obs::prof::timers()` is process-global, shared by both
//! runtimes and never reset, so a reading for one stretch of a run is
//! the difference of two bucket snapshots.

use revmon_obs::prof::{timers, Phase};
use std::collections::BTreeMap;

/// Bucket counts of every phase histogram at one moment.
pub struct PhaseMark(Vec<(Phase, BTreeMap<u64, u64>)>);

impl PhaseMark {
    /// Snapshot now.
    pub fn now() -> Self {
        PhaseMark(
            Phase::ALL
                .iter()
                .map(|&p| {
                    let mut buckets = BTreeMap::new();
                    timers().hist(p).for_each_bucket(|floor, n| {
                        buckets.insert(floor, n);
                    });
                    (p, buckets)
                })
                .collect(),
        )
    }

    /// Median (bucket floor, ns) of the recordings of `phase` made since
    /// this mark; 0.0 when there were none.
    pub fn p50_since(&self, phase: Phase) -> f64 {
        let before = &self.0.iter().find(|(p, _)| *p == phase).expect("every phase is marked").1;
        let mut delta = Vec::new();
        timers().hist(phase).for_each_bucket(|floor, n| {
            let d = n - before.get(&floor).copied().unwrap_or(0);
            if d > 0 {
                delta.push((floor, d));
            }
        });
        median_of_buckets(&delta)
    }
}

/// Median of a histogram given as ascending `(floor, count)` pairs.
fn median_of_buckets(buckets: &[(u64, u64)]) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    let mut seen = 0;
    for &(floor, n) in buckets {
        seen += n;
        if seen * 2 >= total {
            return floor as f64;
        }
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_buckets_picks_the_middle_recording() {
        assert_eq!(median_of_buckets(&[]), 0.0);
        assert_eq!(median_of_buckets(&[(10, 1)]), 10.0);
        assert_eq!(median_of_buckets(&[(10, 2), (20, 1), (30, 2)]), 20.0);
        assert_eq!(median_of_buckets(&[(10, 1), (20, 9)]), 20.0);
    }

    #[test]
    fn a_mark_sees_only_later_recordings() {
        // CombinerExec is recorded by nothing else in this test binary.
        timers().record(Phase::CombinerExec, 1_000_000);
        let mark = PhaseMark::now();
        assert_eq!(mark.p50_since(Phase::CombinerExec), 0.0);
        timers().record(Phase::CombinerExec, 64);
        assert_eq!(mark.p50_since(Phase::CombinerExec), 64.0);
    }
}
