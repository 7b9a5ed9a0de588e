//! The revocation request verdict and the adaptive revocation governor:
//! bounded retries, exponential backoff, and per-monitor fallback to the
//! blocking baseline.
//!
//! When a contender finds a monitor held by a lower-priority thread
//! (§1.1), the holder's section is either revoked at its next yield
//! point or — when it is non-revocable (§2.2) — left alone. The governor
//! adds a third answer, "block instead". [`revocation_verdict`] is that
//! decision, written once for both runtimes; each maps its three arms to
//! the same counters and events.
//!
//! The paper's revocable monitors can livelock: a low-priority holder
//! that is repeatedly revoked re-executes its synchronized section
//! forever while high-priority contenders keep preempting it. The
//! governor bounds that behaviour. It tracks, per `(monitor, holder)`
//! pair, the streak of consecutive revocations. Once the streak reaches
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
//! - [`Governor::consult`] before acting on a detected inversion (through
//!   [`revocation_verdict`]);
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
    /// exactly when this consult *opened* a new fallback window;
    /// repeat denials inside an open window report `fresh: false`.
    Fallback {
        /// True when this denial opened a new backoff window.
        fresh: bool,
    },
}

/// What a contender does about a lower-priority holder of the monitor it
/// wants (§1.1): the answer of [`revocation_verdict`]. Both runtimes map
/// each arm to the same counters and events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RevocationVerdict {
    /// The holder's section is non-revocable: nothing is requested and
    /// the contender waits the section out (`inversions_unresolved`,
    /// `InversionUnresolved { by }`).
    Unresolvable,
    /// The governor denied the revocation: the contender blocks on the
    /// prioritized entry queue (`governor_throttles`,
    /// `GovernorThrottle { by }`; when `fresh`, also `policy_fallbacks`,
    /// `PolicyFallback`).
    Throttled {
        /// True when this denial opened a new fallback window.
        fresh: bool,
    },
    /// Flag the holder's section for revocation at its next yield point
    /// (`revocations_requested`, `RevokeRequest { by }`).
    Request,
}

/// The one revocation decision: a non-revocable holder is
/// [`Unresolvable`](RevocationVerdict::Unresolvable) and the governor is
/// never consulted — no throttle is counted and no window opens;
/// otherwise `consult`, the runtime's call of [`Governor::consult`] for
/// this `(monitor, holder)` pair, decides.
pub fn revocation_verdict(
    revocable: bool,
    consult: impl FnOnce() -> GovernorVerdict,
) -> RevocationVerdict {
    if !revocable {
        return RevocationVerdict::Unresolvable;
    }
    match consult() {
        GovernorVerdict::Allow => RevocationVerdict::Request,
        GovernorVerdict::Fallback { fresh } => RevocationVerdict::Throttled { fresh },
    }
}

/// Per-`(monitor, holder)` revocation state: streak, level and window.
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
    /// Tick of the last revocation or commit (not of consult denials,
    /// so an idle governed pair can still decay).
    last_event: u64,
}

/// Runtime revocation governor. See the module docs for the protocol.
///
/// Keyed by `(monitor, holder)` in a hash map (Fx construction — this
/// sits on the inversion-detection hot path). Nothing is computed by
/// iterating the map, so its order never shows.
#[derive(Debug, Default)]
pub struct Governor {
    pairs: FxMap<(u64, u64), PairState>,
    /// Largest streak any pair has reached (see
    /// [`max_streak`](Self::max_streak)).
    max_streak: u32,
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
            return GovernorVerdict::Fallback { fresh: false };
        }
        if st.streak >= cfg.k {
            let shift = st.level.min(MAX_LEVEL_SHIFT);
            let window = cfg.backoff.saturating_shl(shift);
            st.fallback_until = now.saturating_add(window.max(1));
            st.level = st.level.saturating_add(1);
            return GovernorVerdict::Fallback { fresh: true };
        }
        GovernorVerdict::Allow
    }

    /// Record a completed revocation of `holder` on `monitor` at `now`.
    pub fn record_revocation(&mut self, cfg: GovernorConfig, monitor: u64, holder: u64, now: u64) {
        if !cfg.enabled() {
            return;
        }
        let st = self.pairs.entry((monitor, holder)).or_default();
        st.streak = st.streak.saturating_add(1);
        st.last_event = now;
        self.max_streak = self.max_streak.max(st.streak);
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

    /// High-water mark: the longest consecutive-revocation streak any
    /// pair has reached so far, commits and decay notwithstanding (0
    /// when ungoverned). A streak only grows in
    /// [`record_revocation`](Self::record_revocation), so under a budget
    /// of `k` this is at most `k` exactly when every pair's streak was at
    /// most `k` at every moment — the bounded-revocation invariant,
    /// checkable after the run.
    pub fn max_streak(&self) -> u32 {
        self.max_streak
    }

    /// The current consecutive-revocation streak of one `(monitor,
    /// holder)` pair (0 for pairs the governor has never seen). Feeds
    /// the wait-for graph snapshots, which annotate each held edge with
    /// how close its pair is to a fallback window.
    pub fn streak(&self, monitor: u64, holder: u64) -> u32 {
        self.pairs.get(&(monitor, holder)).map(|s| s.streak).unwrap_or(0)
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
            g.record_revocation(GovernorConfig::disabled(), 1, 2, now);
        }
        assert_eq!(g.max_streak(), 0);
        assert_eq!(g.streak(1, 2), 0);
    }

    #[test]
    fn streak_below_budget_allows() {
        let c = cfg(3, 100, 0);
        let mut g = Governor::new();
        for i in 0..3u64 {
            assert_eq!(g.consult(c, 1, 2, i), GovernorVerdict::Allow);
            g.record_revocation(c, 1, 2, i);
        }
        assert_eq!(g.max_streak(), 3);
    }

    #[test]
    fn budget_exhaustion_opens_fallback_window() {
        let c = cfg(2, 10, 0);
        let mut g = Governor::new();
        for i in 0..2u64 {
            assert_eq!(g.consult(c, 1, 2, i), GovernorVerdict::Allow);
            g.record_revocation(c, 1, 2, i);
        }
        // Budget spent: the next consult opens a window...
        assert_eq!(g.consult(c, 1, 2, 2), GovernorVerdict::Fallback { fresh: true });
        // ...and repeat consults inside it are stale denials.
        assert_eq!(g.consult(c, 1, 2, 5), GovernorVerdict::Fallback { fresh: false });
    }

    #[test]
    fn windows_escalate_exponentially() {
        let c = cfg(1, 10, 0);
        let mut g = Governor::new();
        g.record_revocation(c, 1, 2, 0);
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
        g.record_revocation(c, 1, 2, 0);
        assert_eq!(g.consult(c, 1, 2, 0), GovernorVerdict::Fallback { fresh: true });
        g.record_commit(1, 2, 12);
        // Streak forgiven: revocation allowed again.
        assert_eq!(g.consult(c, 1, 2, 13), GovernorVerdict::Allow);
        g.record_revocation(c, 1, 2, 13);
        // But the level survived, so the next window is the escalated one.
        assert_eq!(g.consult(c, 1, 2, 14), GovernorVerdict::Fallback { fresh: true });
        assert_eq!(g.consult(c, 1, 2, 14 + 19), GovernorVerdict::Fallback { fresh: false });
    }

    #[test]
    fn decay_forgives_history() {
        let c = cfg(1, 10, 50);
        let mut g = Governor::new();
        g.record_revocation(c, 1, 2, 0);
        assert_eq!(g.consult(c, 1, 2, 1), GovernorVerdict::Fallback { fresh: true });
        // Quiet for >= decay ticks since the last revocation/commit:
        // streak and level both reset, revocation allowed again.
        assert_eq!(g.consult(c, 1, 2, 55), GovernorVerdict::Allow);
        assert_eq!(g.streak(1, 2), 0);
    }

    #[test]
    fn max_streak_is_a_high_water_mark() {
        // A commit resets the pair's streak; the largest streak reached
        // stays readable after the run, which is when it is checked.
        let c = cfg(3, 10, 0);
        let mut g = Governor::new();
        g.record_revocation(c, 1, 2, 0);
        g.record_revocation(c, 1, 2, 1);
        g.record_revocation(c, 7, 9, 2);
        g.record_commit(1, 2, 3);
        g.record_commit(7, 9, 4);
        assert_eq!((g.streak(1, 2), g.streak(7, 9)), (0, 0));
        assert_eq!(g.max_streak(), 2);
        g.record_revocation(c, 7, 9, 5);
        assert_eq!(g.max_streak(), 2, "a shorter streak leaves the mark where it was");
    }

    #[test]
    fn pairs_are_independent() {
        let c = cfg(1, 10, 0);
        let mut g = Governor::new();
        g.record_revocation(c, 1, 2, 0);
        assert_eq!(g.consult(c, 1, 2, 1), GovernorVerdict::Fallback { fresh: true });
        // Different holder on the same monitor: untouched budget.
        assert_eq!(g.consult(c, 1, 3, 1), GovernorVerdict::Allow);
        // Same holder on a different monitor: untouched budget.
        assert_eq!(g.consult(c, 2, 2, 1), GovernorVerdict::Allow);
    }

    #[test]
    fn zero_backoff_still_denies_once_per_tick_boundary() {
        // A degenerate backoff of 0 must still produce a non-empty
        // window so `fresh` denials cannot fire unboundedly per tick.
        let c = cfg(1, 0, 0);
        let mut g = Governor::new();
        g.record_revocation(c, 1, 2, 0);
        assert_eq!(g.consult(c, 1, 2, 5), GovernorVerdict::Fallback { fresh: true });
        assert_eq!(g.consult(c, 1, 2, 5), GovernorVerdict::Fallback { fresh: false });
    }

    #[test]
    fn revocation_verdict_table() {
        use RevocationVerdict::*;
        let c = cfg(1, 10, 0);
        let mut g = Governor::new();
        let verdict = |g: &mut Governor, revocable: bool, now: u64| {
            revocation_verdict(revocable, || g.consult(c, 1, 2, now))
        };
        // Revocable, within budget: request.
        assert_eq!(verdict(&mut g, true, 0), Request);
        g.record_revocation(c, 1, 2, 0);
        // Budget spent, but the holder is non-revocable: reported, and
        // the governor is not consulted — no window opens.
        assert_eq!(verdict(&mut g, false, 1), Unresolvable);
        assert_eq!(verdict(&mut g, false, 2), Unresolvable);
        // The first revocable contender opens the window, the next one
        // inside it is a stale denial.
        assert_eq!(verdict(&mut g, true, 3), Throttled { fresh: true });
        assert_eq!(verdict(&mut g, true, 4), Throttled { fresh: false });
        // Ungoverned: every revocable holder is a request.
        let mut off = Governor::new();
        assert_eq!(
            revocation_verdict(true, || off.consult(GovernorConfig::disabled(), 1, 2, 0)),
            Request
        );
        assert_eq!(
            revocation_verdict(false, || off.consult(GovernorConfig::disabled(), 1, 2, 0)),
            Unresolvable
        );
    }
}
