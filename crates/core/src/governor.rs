//! Adaptive revocation governor: bounded retries, exponential backoff,
//! and per-monitor fallback to the blocking baseline.
//!
//! The paper's revocable monitors can livelock: a low-priority holder
//! that is repeatedly revoked re-executes its synchronized section
//! forever while high-priority contenders keep preempting it. The
//! governor bounds that behaviour. It tracks, per `(monitor, holder)`
//! pair, the streak of consecutive revocations together with the undo
//! entries and section ticks they discarded. Once the streak reaches
//! the retry budget `k`, the next contender is told to *block on the
//! prioritized entry queue* instead of revoking — a per-monitor,
//! reversible degradation to the paper's blocking baseline. Each
//! fallback window lasts `backoff << level` ticks (exponential in the
//! number of windows already served), and a quiet period of `decay`
//! ticks forgives the history entirely.
//!
//! The governor is runtime-agnostic: the VM drives it with its virtual
//! clock and the locks runtime with wall-clock nanoseconds. Both call
//! the same three entry points:
//!
//! - [`Governor::consult`] before acting on a detected inversion;
//! - [`Governor::record_revocation`] after a rollback completes;
//! - [`Governor::record_commit`] when the holder finally commits.

use crate::fx::FxMap;

/// Tuning knobs for the revocation governor.
///
/// `k == 0` disables the governor entirely: every consult answers
/// [`GovernorVerdict::Allow`] and no state is tracked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Retry budget: consecutive revocations of the same holder on the
    /// same monitor tolerated before contenders are made to block.
    /// `0` disables the governor.
    pub k: u32,
    /// Base fallback-window length in runtime ticks. Each successive
    /// window on the same pair doubles (`backoff << level`, capped).
    pub backoff: u64,
    /// Quiet period in ticks after which a pair's streak and backoff
    /// level are forgiven. `0` means never decay.
    pub decay: u64,
}

impl GovernorConfig {
    /// A disabled governor: all revocations allowed, nothing tracked.
    pub const fn disabled() -> Self {
        GovernorConfig { k: 0, backoff: 0, decay: 0 }
    }

    /// Whether this configuration actually governs anything.
    pub const fn enabled(&self) -> bool {
        self.k != 0
    }
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Answer from [`Governor::consult`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GovernorVerdict {
    /// Revocation is within budget; proceed.
    Allow,
    /// The retry budget is exhausted: the contender must block on the
    /// prioritized entry queue instead of revoking. `fresh` is true
    /// exactly when this consult *opened* a new fallback window (the
    /// caller should emit a `PolicyFallback` event); repeat denials
    /// inside an open window report `fresh: false`.
    Fallback {
        /// True when this denial opened a new backoff window.
        fresh: bool,
    },
}

/// Per-`(monitor, holder)` revocation history.
#[derive(Clone, Copy, Debug, Default)]
struct PairState {
    /// Consecutive revocations since the holder last committed (or the
    /// history decayed).
    streak: u32,
    /// Number of fallback windows served; the next window lasts
    /// `backoff << level` ticks.
    level: u32,
    /// Tick until which contenders must block (exclusive). 0 = open.
    fallback_until: u64,
    /// Undo entries discarded by this pair's revocations.
    entries_rolled_back: u64,
    /// Section ticks discarded by this pair's revocations.
    ticks_discarded: u64,
    /// Tick of the last revocation or commit (not of consult denials,
    /// so an idle governed pair can still decay).
    last_event: u64,
}

/// Runtime revocation governor. See the module docs for the protocol.
///
/// Keyed by `(monitor, holder)` in a hash map (Fx construction — this
/// sits on the inversion-detection hot path). Hash-map iteration order
/// is not deterministic, so no introspection result may be computed by
/// bare iteration: aggregates ([`max_streak`](Self::max_streak),
/// [`entries_rolled_back`](Self::entries_rolled_back), …) are
/// order-independent reductions, and anything that *lists* pairs goes
/// through the sorted [`history`](Self::history) view, which the
/// schedule explorer's determinism relies on.
#[derive(Debug, Default)]
pub struct Governor {
    pairs: FxMap<(u64, u64), PairState>,
    throttles: u64,
    fallbacks: u64,
}

/// One `(monitor, holder)` pair's revocation history, as reported by
/// the sorted [`Governor::history`] introspection view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairHistory {
    /// Governed monitor id.
    pub monitor: u64,
    /// Holder thread id.
    pub holder: u64,
    /// Consecutive revocations since the holder last committed (or the
    /// history decayed).
    pub streak: u32,
    /// Fallback windows served so far (the exponential-backoff level).
    pub level: u32,
    /// Undo entries discarded by this pair's revocations.
    pub entries_rolled_back: u64,
    /// Section ticks discarded by this pair's revocations.
    pub ticks_discarded: u64,
}

/// Cap on the exponential shift so `backoff << level` cannot overflow.
const MAX_LEVEL_SHIFT: u32 = 16;

impl Governor {
    /// Fresh governor with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decide whether a contender may revoke `holder`'s section on
    /// `monitor` at time `now`. Does not itself count a revocation;
    /// call [`record_revocation`](Self::record_revocation) once the
    /// rollback actually happens.
    pub fn consult(
        &mut self,
        cfg: GovernorConfig,
        monitor: u64,
        holder: u64,
        now: u64,
    ) -> GovernorVerdict {
        if !cfg.enabled() {
            return GovernorVerdict::Allow;
        }
        let st = self.pairs.entry((monitor, holder)).or_default();
        // Forgive a pair that has been quiet for a full decay window.
        if cfg.decay != 0
            && (st.streak > 0 || st.level > 0)
            && now.saturating_sub(st.last_event) >= cfg.decay
        {
            st.streak = 0;
            st.level = 0;
            st.fallback_until = 0;
        }
        if now < st.fallback_until {
            self.throttles += 1;
            return GovernorVerdict::Fallback { fresh: false };
        }
        if st.streak >= cfg.k {
            let shift = st.level.min(MAX_LEVEL_SHIFT);
            let window = cfg.backoff.saturating_shl(shift);
            st.fallback_until = now.saturating_add(window.max(1));
            st.level = st.level.saturating_add(1);
            self.throttles += 1;
            self.fallbacks += 1;
            return GovernorVerdict::Fallback { fresh: true };
        }
        GovernorVerdict::Allow
    }

    /// Record a completed revocation of `holder` on `monitor`:
    /// `entries` undo entries were rolled back and `ticks` of section
    /// work were discarded.
    pub fn record_revocation(
        &mut self,
        cfg: GovernorConfig,
        monitor: u64,
        holder: u64,
        now: u64,
        entries: u64,
        ticks: u64,
    ) {
        if !cfg.enabled() {
            return;
        }
        let st = self.pairs.entry((monitor, holder)).or_default();
        st.streak = st.streak.saturating_add(1);
        st.entries_rolled_back += entries;
        st.ticks_discarded += ticks;
        st.last_event = now;
    }

    /// Record that `holder` committed a section of `monitor`: the
    /// revocation streak resets (the backoff level survives, so a pair
    /// that keeps re-entering pathological behaviour escalates).
    pub fn record_commit(&mut self, monitor: u64, holder: u64, now: u64) {
        if let Some(st) = self.pairs.get_mut(&(monitor, holder)) {
            st.streak = 0;
            st.fallback_until = 0;
            st.last_event = now;
        }
    }

    /// Largest consecutive-revocation streak ever tolerated on any
    /// pair's *current* history. Under a governor with budget `k` this
    /// never exceeds `k` — the bounded-revocation explore invariant.
    pub fn max_streak(&self) -> u32 {
        self.pairs.values().map(|s| s.streak).max().unwrap_or(0)
    }

    /// The current consecutive-revocation streak of one `(monitor,
    /// holder)` pair (0 for pairs the governor has never seen). Feeds
    /// the wait-for graph snapshots, which annotate each held edge with
    /// how close its pair is to a fallback window.
    pub fn streak(&self, monitor: u64, holder: u64) -> u32 {
        self.pairs.get(&(monitor, holder)).map(|s| s.streak).unwrap_or(0)
    }

    /// Total consult denials (throttled revocation attempts).
    pub fn throttles(&self) -> u64 {
        self.throttles
    }

    /// Total fresh fallback windows opened.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Total undo entries discarded across all governed pairs.
    pub fn entries_rolled_back(&self) -> u64 {
        self.pairs.values().map(|s| s.entries_rolled_back).sum()
    }

    /// Total section ticks discarded across all governed pairs.
    pub fn ticks_discarded(&self) -> u64 {
        self.pairs.values().map(|s| s.ticks_discarded).sum()
    }

    /// Every governed pair's history, sorted by `(monitor, holder)` —
    /// the same order the old `BTreeMap` representation iterated in.
    /// This is the only pair-listing introspection surface; it keeps
    /// deterministic output (explorer fingerprints, `--stats` dumps)
    /// independent of the hash map's iteration order.
    pub fn history(&self) -> Vec<PairHistory> {
        let mut out: Vec<PairHistory> = self
            .pairs
            .iter()
            .map(|(&(monitor, holder), st)| PairHistory {
                monitor,
                holder,
                streak: st.streak,
                level: st.level,
                entries_rolled_back: st.entries_rolled_back,
                ticks_discarded: st.ticks_discarded,
            })
            .collect();
        out.sort_unstable_by_key(|h| (h.monitor, h.holder));
        out
    }
}

/// `u64::checked_shl` that saturates instead of wrapping.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(k: u32, backoff: u64, decay: u64) -> GovernorConfig {
        GovernorConfig { k, backoff, decay }
    }

    #[test]
    fn disabled_governor_always_allows() {
        let mut g = Governor::new();
        for now in 0..100 {
            assert_eq!(g.consult(GovernorConfig::disabled(), 1, 2, now), GovernorVerdict::Allow);
            g.record_revocation(GovernorConfig::disabled(), 1, 2, now, 5, 5);
        }
        assert_eq!(g.max_streak(), 0);
        assert_eq!(g.throttles(), 0);
    }

    #[test]
    fn streak_below_budget_allows() {
        let c = cfg(3, 100, 0);
        let mut g = Governor::new();
        for i in 0..3u64 {
            assert_eq!(g.consult(c, 1, 2, i), GovernorVerdict::Allow);
            g.record_revocation(c, 1, 2, i, 1, 1);
        }
        assert_eq!(g.max_streak(), 3);
    }

    #[test]
    fn budget_exhaustion_opens_fallback_window() {
        let c = cfg(2, 10, 0);
        let mut g = Governor::new();
        for i in 0..2u64 {
            assert_eq!(g.consult(c, 1, 2, i), GovernorVerdict::Allow);
            g.record_revocation(c, 1, 2, i, 1, 1);
        }
        // Budget spent: the next consult opens a window...
        assert_eq!(g.consult(c, 1, 2, 2), GovernorVerdict::Fallback { fresh: true });
        // ...and repeat consults inside it are stale denials.
        assert_eq!(g.consult(c, 1, 2, 5), GovernorVerdict::Fallback { fresh: false });
        assert_eq!(g.throttles(), 2);
        assert_eq!(g.fallbacks(), 1);
    }

    #[test]
    fn windows_escalate_exponentially() {
        let c = cfg(1, 10, 0);
        let mut g = Governor::new();
        g.record_revocation(c, 1, 2, 0, 1, 1);
        // Window 1: [0, 10).
        assert_eq!(g.consult(c, 1, 2, 0), GovernorVerdict::Fallback { fresh: true });
        assert_eq!(g.consult(c, 1, 2, 9), GovernorVerdict::Fallback { fresh: false });
        // Window 2 opens at 10 and lasts 20 ticks.
        assert_eq!(g.consult(c, 1, 2, 10), GovernorVerdict::Fallback { fresh: true });
        assert_eq!(g.consult(c, 1, 2, 29), GovernorVerdict::Fallback { fresh: false });
        assert_eq!(g.consult(c, 1, 2, 30), GovernorVerdict::Fallback { fresh: true });
    }

    #[test]
    fn commit_resets_streak_but_not_level() {
        let c = cfg(1, 10, 0);
        let mut g = Governor::new();
        g.record_revocation(c, 1, 2, 0, 1, 1);
        assert_eq!(g.consult(c, 1, 2, 0), GovernorVerdict::Fallback { fresh: true });
        g.record_commit(1, 2, 12);
        // Streak forgiven: revocation allowed again.
        assert_eq!(g.consult(c, 1, 2, 13), GovernorVerdict::Allow);
        g.record_revocation(c, 1, 2, 13, 1, 1);
        // But the level survived, so the next window is the escalated one.
        assert_eq!(g.consult(c, 1, 2, 14), GovernorVerdict::Fallback { fresh: true });
        assert_eq!(g.consult(c, 1, 2, 14 + 19), GovernorVerdict::Fallback { fresh: false });
    }

    #[test]
    fn decay_forgives_history() {
        let c = cfg(1, 10, 50);
        let mut g = Governor::new();
        g.record_revocation(c, 1, 2, 0, 1, 1);
        assert_eq!(g.consult(c, 1, 2, 1), GovernorVerdict::Fallback { fresh: true });
        // Quiet for >= decay ticks since the last revocation/commit:
        // streak and level both reset, revocation allowed again.
        assert_eq!(g.consult(c, 1, 2, 55), GovernorVerdict::Allow);
        assert_eq!(g.max_streak(), 0);
    }

    #[test]
    fn pairs_are_independent() {
        let c = cfg(1, 10, 0);
        let mut g = Governor::new();
        g.record_revocation(c, 1, 2, 0, 1, 1);
        assert_eq!(g.consult(c, 1, 2, 1), GovernorVerdict::Fallback { fresh: true });
        // Different holder on the same monitor: untouched budget.
        assert_eq!(g.consult(c, 1, 3, 1), GovernorVerdict::Allow);
        // Same holder on a different monitor: untouched budget.
        assert_eq!(g.consult(c, 2, 2, 1), GovernorVerdict::Allow);
    }

    #[test]
    fn accumulators_track_waste() {
        let c = cfg(5, 10, 0);
        let mut g = Governor::new();
        g.record_revocation(c, 1, 2, 0, 7, 100);
        g.record_revocation(c, 1, 2, 1, 3, 50);
        g.record_revocation(c, 2, 9, 2, 1, 5);
        assert_eq!(g.entries_rolled_back(), 11);
        assert_eq!(g.ticks_discarded(), 155);
    }

    #[test]
    fn history_iterates_in_sorted_pair_order() {
        // Regression for the BTreeMap → FxHash map swap: introspection
        // must still list pairs in ascending `(monitor, holder)` order,
        // whatever order they were inserted in and however the hash map
        // scatters them.
        let c = cfg(5, 10, 0);
        let mut g = Governor::new();
        let pairs = [(9u64, 1u64), (2, 7), (9, 0), (2, 3), (1, 100), (500, 4), (2, 1)];
        for (i, &(m, h)) in pairs.iter().enumerate() {
            g.record_revocation(c, m, h, i as u64, i as u64 + 1, 10 * (i as u64 + 1));
        }
        let hist = g.history();
        let keys: Vec<(u64, u64)> = hist.iter().map(|p| (p.monitor, p.holder)).collect();
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "introspection order changed");
        // Spot-check payload routing survived the representation swap.
        let p = hist.iter().find(|p| (p.monitor, p.holder) == (500, 4)).unwrap();
        assert_eq!((p.streak, p.entries_rolled_back, p.ticks_discarded), (1, 6, 60));
        // And repeated reads are identical (no hidden iteration-order
        // dependence).
        assert_eq!(g.history(), hist);
    }

    #[test]
    fn zero_backoff_still_denies_once_per_tick_boundary() {
        // A degenerate backoff of 0 must still produce a non-empty
        // window so `fresh` denials cannot fire unboundedly per tick.
        let c = cfg(1, 0, 0);
        let mut g = Governor::new();
        g.record_revocation(c, 1, 2, 0, 1, 1);
        assert_eq!(g.consult(c, 1, 2, 5), GovernorVerdict::Fallback { fresh: true });
        assert_eq!(g.consult(c, 1, 2, 5), GovernorVerdict::Fallback { fresh: false });
    }
}
