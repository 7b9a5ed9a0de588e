//! Priority-inversion **episode** reconstruction.
//!
//! The paper's argument (§4) is about episodes, not isolated events: a
//! high-priority thread blocks behind a lower-priority holder, the
//! runtime reacts (revocation, priority inheritance, or nothing), and
//! eventually the blocked thread gets the monitor — or doesn't. This
//! module replays a recorded event stream through a per-monitor state
//! machine and reduces `Block → RevokeRequest → Rollback/Commit →
//! Acquire` sequences into [`Episode`]s with:
//!
//! * a **resolution** classification ([`Resolution`]);
//! * the **inversion latency** — requester's block (or the first revoke
//!   request) to the requester's acquire;
//! * the **wasted work** the resolution cost: undo entries rolled back,
//!   discarded section time re-executed later, and the repeat-revocation
//!   count (a livelock signal when it climbs).
//!
//! The automaton is runtime-agnostic: it consumes [`Event`]s whether they
//! came live from an [`EventSink`](crate::EventSink) drain or from a
//! re-imported JSONL trace, in either clock domain. It is one of the
//! accumulators [`Analyzer`](crate::Analyzer) drives, and reads its waits
//! and sections from the stream's one [`Intervals`] matcher.

use revmon_core::FxMap;

use crate::event::{Event, EventKind};
use crate::latency::Intervals;

/// How an episode ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resolution {
    /// The holder was revoked (rolled back) and the requester got in.
    Revocation,
    /// The holder finished and released on its own before any rollback;
    /// the requester waited it out (the blocking baseline's only mode,
    /// and the revocation policy's mode for non-revocable sections that
    /// still complete).
    NaturalRelease,
    /// The episode was resolved by the deadlock breaker revoking a
    /// victim in a waits-for cycle.
    DeadlockBreak,
    /// The stream ended with the requester still waiting (non-revocable
    /// holder that never released, or a truncated trace).
    #[default]
    Unresolved,
    /// The episode touched events on skipped (torn/out-of-order) trace
    /// lines: its real outcome is unknowable from what survived, so it
    /// is reported as truncated rather than biasing `unresolved`.
    Truncated,
    /// The contention was resolved by delegation: the requester's
    /// critical section was submitted to the monitor's combiner and
    /// executed there (Submit → Execute → Complete), so the inversion
    /// cost only queue reordering — no rollback, no wasted work.
    Delegated,
}

impl Resolution {
    /// Stable name used by every exporter.
    pub fn name(&self) -> &'static str {
        match self {
            Resolution::Revocation => "revocation",
            Resolution::NaturalRelease => "natural_release",
            Resolution::DeadlockBreak => "deadlock_break",
            Resolution::Unresolved => "unresolved",
            Resolution::Truncated => "truncated",
            Resolution::Delegated => "delegated",
        }
    }

    /// All resolutions, in report order.
    pub const ALL: [Resolution; 6] = [
        Resolution::Revocation,
        Resolution::NaturalRelease,
        Resolution::DeadlockBreak,
        Resolution::Delegated,
        Resolution::Unresolved,
        Resolution::Truncated,
    ];
}

/// One reconstructed priority-inversion episode.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Episode {
    /// Contended monitor.
    pub monitor: u64,
    /// The (lower-priority) thread that held the monitor when the
    /// episode opened.
    pub holder: u64,
    /// The (higher-priority) blocked requester, or [`Event::NO_THREAD`]
    /// when unknown (deadlock-break episodes attribute no requester).
    pub requester: u64,
    /// When the inversion began: the requester's `Block` timestamp when
    /// observed, else the first `RevokeRequest`/`DeadlockBroken`.
    pub start: u64,
    /// When the requester acquired the monitor (`None` if unresolved).
    pub end: Option<u64>,
    /// Classification of how it ended.
    pub resolution: Resolution,
    /// Rollbacks performed on this monitor during the episode.
    pub rollbacks: u64,
    /// Undo-log entries restored by those rollbacks (wasted writes).
    pub wasted_entries: u64,
    /// Clock units of discarded section work: holder acquire → rollback
    /// completion, summed over rollbacks — time that must be re-executed.
    pub wasted_time: u64,
    /// Revoke requests observed while the episode was open. More than
    /// one request per rollback means the holder kept getting re-flagged
    /// — the livelock signal `max_consecutive_revocations` guards.
    pub revoke_requests: u64,
    /// Revocations the governor denied during this episode (the
    /// contender was made to block instead). A non-zero count marks a
    /// *governed* episode.
    pub governor_throttles: u64,
    /// Fresh fallback-to-blocking windows the governor opened during
    /// this episode.
    pub policy_fallbacks: u64,
    /// Timestamp of the first genuine `RevokeRequest` (not throttles or
    /// unresolvable marks), when one was observed.
    pub first_revoke: Option<u64>,
    /// Timestamp at which the last rollback of the episode completed.
    pub last_rollback_end: Option<u64>,
    /// Measured duration of that last rollback (clock units).
    pub last_rollback_duration: u64,
    /// Delegated episodes: submit → execute (time the submission sat in
    /// the combiner's queue). Zero for every other resolution.
    pub queue_wait: u64,
    /// Delegated episodes: execute → complete (time the combiner spent
    /// running the section). Zero for every other resolution.
    pub exec_time: u64,
}

/// The critical path of a resolved episode: where the requester's wait
/// actually went, segment by segment. Segments sum to
/// [`Episode::latency`] for rollback-resolved episodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CriticalPath {
    /// Requester blocked before the runtime reacted (block → first
    /// revoke request; the whole latency when nothing was revoked).
    pub blocked_wait: u64,
    /// Revoke request → the victim actually starting its rollback (the
    /// victim runs to its next yield point first).
    pub signal: u64,
    /// The rollback itself: walking the undo log and restoring values.
    pub undo_walk: u64,
    /// Rollback completion → the requester's acquire (queue hand-off).
    pub handoff: u64,
}

impl CriticalPath {
    /// The segments in wait order, with their stable names (used as
    /// flamegraph frames and report labels).
    pub(crate) fn segments(&self) -> [(&'static str, u64); 4] {
        [
            ("blocked-wait", self.blocked_wait),
            ("signal", self.signal),
            ("undo-walk", self.undo_walk),
            ("handoff", self.handoff),
        ]
    }
}

impl Episode {
    /// Inversion latency: episode start to the requester's acquire.
    pub(crate) fn latency(&self) -> Option<u64> {
        self.end.map(|e| e.saturating_sub(self.start))
    }

    /// Break the latency of a resolved episode into critical-path
    /// segments. `None` while the episode is unresolved. Episodes that
    /// ended without any rollback put the whole wait into
    /// `blocked_wait` — no revocation machinery ran on their critical
    /// path.
    pub(crate) fn critical_path(&self) -> Option<CriticalPath> {
        let end = self.end?;
        Some(match self.last_rollback_end {
            Some(rb_end) => {
                let rb_start = rb_end.saturating_sub(self.last_rollback_duration);
                // Deadlock breaks have no RevokeRequest: signaling is
                // folded into blocked-wait by anchoring at the rollback.
                let signaled = self.first_revoke.unwrap_or(rb_start).min(rb_start);
                CriticalPath {
                    blocked_wait: signaled.saturating_sub(self.start),
                    signal: rb_start.saturating_sub(signaled),
                    undo_walk: self.last_rollback_duration,
                    handoff: end.saturating_sub(rb_end),
                }
            }
            None => CriticalPath {
                blocked_wait: end.saturating_sub(self.start),
                ..CriticalPath::default()
            },
        })
    }
}

/// In-flight delegated submission (one per `(monitor, token)`).
struct OpenDelegation {
    submitter: u64,
    holder: u64,
    submit_ts: u64,
    exec_ts: Option<u64>,
}

/// In-flight episode (one per contended monitor): the episode so far,
/// its `end` and `resolution` still to be decided.
struct OpenEpisode {
    so_far: Episode,
    /// The deadlock breaker picked this episode's holder as its victim.
    deadlock: bool,
}

impl OpenEpisode {
    fn new(monitor: u64, holder: u64, requester: u64, start: u64) -> Self {
        let so_far = Episode { monitor, holder, requester, start, ..Episode::default() };
        OpenEpisode { so_far, deadlock: false }
    }

    fn close(self, end: Option<u64>, resolution: Resolution) -> Episode {
        Episode { end, resolution, ..self.so_far }
    }

    fn resolution_on_acquire(&self) -> Resolution {
        if self.deadlock {
            Resolution::DeadlockBreak
        } else if self.so_far.rollbacks > 0 {
            Resolution::Revocation
        } else {
            Resolution::NaturalRelease
        }
    }
}

/// The per-monitor episode automaton: feed events in stream order (the
/// importer and sink drains guarantee it), each after the stream's
/// [`Intervals`] has seen it, then [`EpisodeBuilder::finish`].
#[derive(Default)]
pub(crate) struct EpisodeBuilder {
    /// Open episode per monitor.
    open: FxMap<u64, OpenEpisode>,
    /// Threads flagged by the deadlock breaker whose rollback has not
    /// been seen yet (the VM emits `DeadlockBroken` without a monitor;
    /// the victim's next rollback names it).
    deadlock_victims: FxMap<u64, u64>,
    /// `(monitor, token)` → in-flight delegated submission.
    delegations: FxMap<(u64, u64), OpenDelegation>,
    done: Vec<Episode>,
}

impl EpisodeBuilder {
    /// Fold one event into the reconstruction. `closed` is what
    /// `intervals` returned for this event.
    pub(crate) fn observe(&mut self, ev: &Event, closed: Option<u64>, intervals: &Intervals) {
        match ev.kind {
            EventKind::RevokeRequest { by }
            | EventKind::InversionUnresolved { by }
            | EventKind::GovernorThrottle { by } => {
                let open = self.open.entry(ev.monitor).or_insert_with(|| {
                    let start = intervals.blocked_since(by, ev.monitor).unwrap_or(ev.ts);
                    OpenEpisode::new(ev.monitor, ev.thread, by, start)
                });
                let ep = &mut open.so_far;
                match ev.kind {
                    EventKind::InversionUnresolved { .. } => {}
                    EventKind::GovernorThrottle { .. } => ep.governor_throttles += 1,
                    _ => {
                        ep.revoke_requests += 1;
                        ep.first_revoke.get_or_insert(ev.ts);
                    }
                }
            }
            EventKind::PolicyFallback => {
                if let Some(open) = self.open.get_mut(&ev.monitor) {
                    open.so_far.policy_fallbacks += 1;
                }
            }
            EventKind::Rollback { entries, duration } => {
                let deadlock = self.deadlock_victims.remove(&ev.thread);
                // No revoke request observed for this monitor? Only the
                // deadlock breaker revokes without one.
                let open = self.open.entry(ev.monitor).or_insert_with(|| {
                    let start = deadlock.unwrap_or(ev.ts);
                    OpenEpisode::new(ev.monitor, ev.thread, Event::NO_THREAD, start)
                });
                open.deadlock |= deadlock.is_some();
                let ep = &mut open.so_far;
                ep.rollbacks += 1;
                // Hostile input can claim anything: these sums saturate.
                ep.wasted_entries = ep.wasted_entries.saturating_add(entries);
                ep.last_rollback_end = Some(ev.ts);
                ep.last_rollback_duration = duration;
                // Everything from the acquire to the end of the rollback
                // is work the holder must redo.
                ep.wasted_time = ep.wasted_time.saturating_add(closed.unwrap_or(0));
            }
            EventKind::Acquire => {
                let closes = self.open.get(&ev.monitor).is_some_and(|open| {
                    let ep = &open.so_far;
                    ev.thread == ep.requester
                        || (ep.requester == Event::NO_THREAD && ev.thread != ep.holder)
                });
                if closes {
                    let open = self.open.remove(&ev.monitor).expect("checked above");
                    let resolution = open.resolution_on_acquire();
                    self.done.push(open.close(Some(ev.ts), resolution));
                }
            }
            EventKind::DeadlockBroken => {
                // VM shape: no monitor here; the victim's next rollback
                // carries it.
                match self.open.get_mut(&ev.monitor) {
                    Some(open) if ev.monitor != Event::NO_MONITOR => open.deadlock = true,
                    _ => {
                        self.deadlock_victims.insert(ev.thread, ev.ts);
                    }
                }
            }
            EventKind::DelegateSubmit { holder, token } => {
                self.delegations.insert(
                    (ev.monitor, token),
                    OpenDelegation {
                        submitter: ev.thread,
                        holder,
                        submit_ts: ev.ts,
                        exec_ts: None,
                    },
                );
            }
            EventKind::DelegateExecute { token, .. } => {
                if let Some(d) = self.delegations.get_mut(&(ev.monitor, token)) {
                    d.exec_ts.get_or_insert(ev.ts);
                }
            }
            EventKind::DelegateComplete { token, .. } => {
                if let Some(d) = self.delegations.remove(&(ev.monitor, token)) {
                    let exec = d.exec_ts.unwrap_or(ev.ts);
                    self.done.push(Episode {
                        monitor: ev.monitor,
                        // Submissions to a free monitor recorded no
                        // holder: the completing executor served them.
                        holder: if d.holder == Event::NO_THREAD { ev.thread } else { d.holder },
                        requester: d.submitter,
                        start: d.submit_ts,
                        end: Some(ev.ts),
                        resolution: Resolution::Delegated,
                        queue_wait: exec.saturating_sub(d.submit_ts),
                        exec_time: ev.ts.saturating_sub(exec),
                        ..Episode::default()
                    });
                }
            }
            // Waits and sections are the matcher's business. IPI
            // posts/acks are transport detail of a cross-core
            // revocation; the RevokeRequest/Rollback they bracket carry
            // the episode semantics.
            EventKind::Block
            | EventKind::Release
            | EventKind::Commit
            | EventKind::NonRevocable
            | EventKind::DeadlockDetected { .. }
            | EventKind::IpiPosted { .. }
            | EventKind::IpiAck { .. } => {}
        }
    }

    /// Close the stream: anything still open becomes an unresolved
    /// episode. Episodes are returned ordered by start time (monitor id
    /// breaks ties) so reports are deterministic.
    pub(crate) fn finish(mut self) -> Vec<Episode> {
        self.done
            .extend(self.open.into_values().map(|open| open.close(None, Resolution::Unresolved)));
        // Submissions that tie on (start, monitor) stay in token order
        // through the stable sort below.
        let mut open_d: Vec<((u64, u64), OpenDelegation)> = self.delegations.into_iter().collect();
        open_d.sort_by_key(|&((m, tok), ref d)| (d.submit_ts, m, tok));
        self.done.extend(open_d.into_iter().map(|((monitor, _token), d)| Episode {
            monitor,
            holder: d.holder,
            requester: d.submitter,
            start: d.submit_ts,
            ..Episode::default()
        }));
        self.done.sort_by_key(|e| (e.start, e.monitor));
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The episodes of a whole stream, as every renderer sees them.
    fn reconstruct_episodes(events: &[Event]) -> Vec<Episode> {
        crate::Analysis::from_events(events).episodes
    }

    fn ev(ts: u64, thread: u64, monitor: u64, kind: EventKind) -> Event {
        Event { ts, thread, monitor, core: 0, kind }
    }

    #[test]
    fn revocation_episode_reconstructs_with_wasted_work() {
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
            ev(30, 1, 7, EventKind::Rollback { entries: 4, duration: 6 }),
            ev(31, 2, 7, EventKind::Acquire),
            ev(40, 2, 7, EventKind::Commit),
            ev(40, 2, 7, EventKind::Release),
        ]);
        assert_eq!(eps.len(), 1);
        let e = &eps[0];
        assert_eq!(e.resolution, Resolution::Revocation);
        assert_eq!((e.monitor, e.holder, e.requester), (7, 1, 2));
        assert_eq!(e.start, 20); // the requester's Block, not the request
        assert_eq!(e.latency(), Some(11));
        assert_eq!(e.rollbacks, 1);
        assert_eq!(e.wasted_entries, 4);
        assert_eq!(e.wasted_time, 20); // acquire@10 → rollback done@30
        assert_eq!(e.revoke_requests, 1);
    }

    #[test]
    fn critical_path_segments_sum_to_latency() {
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
            ev(30, 1, 7, EventKind::Rollback { entries: 4, duration: 6 }),
            ev(31, 2, 7, EventKind::Acquire),
        ]);
        let cp = eps[0].critical_path().expect("resolved episode");
        assert_eq!(cp.blocked_wait, 2); // block@20 → request@22
        assert_eq!(cp.signal, 2); // request@22 → rollback start@24
        assert_eq!(cp.undo_walk, 6); // the measured rollback
        assert_eq!(cp.handoff, 1); // rollback done@30 → acquire@31
        assert_eq!(cp.segments().iter().map(|s| s.1).sum::<u64>(), eps[0].latency().unwrap());

        // Natural release: the whole wait is blocked time.
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(21, 1, 7, EventKind::InversionUnresolved { by: 2 }),
            ev(50, 1, 7, EventKind::Release),
            ev(51, 2, 7, EventKind::Acquire),
        ]);
        let cp = eps[0].critical_path().unwrap();
        assert_eq!(cp.blocked_wait, 31);
        assert_eq!((cp.signal, cp.undo_walk, cp.handoff), (0, 0, 0));

        // Unresolved episodes have no critical path yet.
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
        ]);
        assert!(eps[0].critical_path().is_none());
    }

    #[test]
    fn natural_release_when_holder_finishes_first() {
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(21, 1, 7, EventKind::InversionUnresolved { by: 2 }), // non-revocable
            ev(50, 1, 7, EventKind::Commit),
            ev(50, 1, 7, EventKind::Release),
            ev(51, 2, 7, EventKind::Acquire),
        ]);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].resolution, Resolution::NaturalRelease);
        assert_eq!(eps[0].latency(), Some(31));
        assert_eq!(eps[0].rollbacks, 0);
    }

    #[test]
    fn unresolved_when_stream_ends_mid_episode() {
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(22, 1, 7, EventKind::InversionUnresolved { by: 2 }),
        ]);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].resolution, Resolution::Unresolved);
        assert_eq!(eps[0].end, None);
        assert_eq!(eps[0].latency(), None);
    }

    #[test]
    fn deadlock_break_links_victim_rollback_to_monitor() {
        // VM shape: DeadlockBroken names only the victim; its rollback
        // names the monitor; the other cycle member then acquires it.
        let eps = reconstruct_episodes(&[
            ev(10, 1, 3, EventKind::Acquire), // kant takes A
            ev(11, 2, 4, EventKind::Acquire), // hegel takes B
            ev(20, 1, 4, EventKind::Block),   // kant blocks on B
            ev(21, 2, 3, EventKind::Block),   // hegel blocks on A → cycle
            ev(21, 0, u64::MAX, EventKind::DeadlockDetected { cycle_len: 2 }),
            ev(21, 2, u64::MAX, EventKind::DeadlockBroken),
            ev(25, 2, 4, EventKind::Rollback { entries: 3, duration: 2 }),
            ev(26, 1, 4, EventKind::Acquire), // kant gets B
        ]);
        assert_eq!(eps.len(), 1);
        let e = &eps[0];
        assert_eq!(e.resolution, Resolution::DeadlockBreak);
        assert_eq!(e.monitor, 4);
        assert_eq!(e.holder, 2);
        assert_eq!(e.wasted_entries, 3);
        assert_eq!(e.wasted_time, 14); // acquire@11 → rollback@25
    }

    #[test]
    fn repeat_revocations_count_as_livelock_signal() {
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
            ev(30, 1, 7, EventKind::Rollback { entries: 2, duration: 1 }),
            ev(32, 1, 7, EventKind::Acquire), // holder sneaks back in
            ev(33, 1, 7, EventKind::RevokeRequest { by: 2 }),
            ev(40, 1, 7, EventKind::Rollback { entries: 2, duration: 1 }),
            ev(41, 2, 7, EventKind::Acquire),
        ]);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].revoke_requests, 2);
        assert_eq!(eps[0].rollbacks, 2);
        assert_eq!(eps[0].wasted_entries, 4);
        assert_eq!(eps[0].resolution, Resolution::Revocation);
    }

    #[test]
    fn governed_episode_counts_throttles_and_fallbacks() {
        // Holder 1 burns its budget (one revocation), then the governor
        // denies further revocations; the contender waits the holder out.
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
            ev(30, 1, 7, EventKind::Rollback { entries: 2, duration: 1 }),
            ev(32, 1, 7, EventKind::Acquire), // holder re-enters first
            ev(33, 1, 7, EventKind::GovernorThrottle { by: 2 }),
            ev(33, 1, 7, EventKind::PolicyFallback),
            ev(35, 1, 7, EventKind::GovernorThrottle { by: 2 }),
            ev(50, 1, 7, EventKind::Commit),
            ev(50, 1, 7, EventKind::Release),
            ev(51, 2, 7, EventKind::Acquire),
        ]);
        assert_eq!(eps.len(), 1);
        let e = &eps[0];
        assert_eq!(e.governor_throttles, 2);
        assert_eq!(e.policy_fallbacks, 1);
        assert_eq!(e.rollbacks, 1);
        assert_eq!(e.resolution, Resolution::Revocation);
        assert_eq!(e.end, Some(51));
    }

    #[test]
    fn throttle_alone_opens_a_governed_episode() {
        // A governed pair can be throttled with no RevokeRequest at all
        // (budget burnt in an earlier episode): the throttle itself must
        // open the episode so the wait is still accounted.
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(21, 1, 7, EventKind::GovernorThrottle { by: 2 }),
            ev(40, 1, 7, EventKind::Release),
            ev(41, 2, 7, EventKind::Acquire),
        ]);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].governor_throttles, 1);
        assert_eq!(eps[0].resolution, Resolution::NaturalRelease);
        assert_eq!(eps[0].start, 20);
    }

    #[test]
    fn delegated_episode_splits_queue_wait_and_exec_time() {
        // Thread 2 submits to monitor 7 while thread 1 holds it; the
        // holder drains: Execute at 30, Complete at 34.
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::DelegateSubmit { holder: 1, token: 0 }),
            ev(30, 1, 7, EventKind::DelegateExecute { submitter: 2, token: 0 }),
            ev(34, 1, 7, EventKind::DelegateComplete { submitter: 2, token: 0 }),
            ev(35, 1, 7, EventKind::Commit),
            ev(35, 1, 7, EventKind::Release),
        ]);
        assert_eq!(eps.len(), 1);
        let e = &eps[0];
        assert_eq!(e.resolution, Resolution::Delegated);
        assert_eq!((e.monitor, e.holder, e.requester), (7, 1, 2));
        assert_eq!(e.latency(), Some(14));
        assert_eq!(e.queue_wait, 10); // submit@20 → execute@30
        assert_eq!(e.exec_time, 4); // execute@30 → complete@34
        assert_eq!((e.rollbacks, e.wasted_entries), (0, 0));
    }

    #[test]
    fn concurrent_submissions_keyed_by_token() {
        // The same submitter has two sections in flight on one monitor;
        // tokens keep the Submit→Complete pairs apart.
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::DelegateSubmit { holder: 1, token: 5 }),
            ev(21, 2, 7, EventKind::DelegateSubmit { holder: 1, token: 6 }),
            ev(30, 1, 7, EventKind::DelegateExecute { submitter: 2, token: 5 }),
            ev(32, 1, 7, EventKind::DelegateComplete { submitter: 2, token: 5 }),
            ev(32, 1, 7, EventKind::DelegateExecute { submitter: 2, token: 6 }),
            ev(40, 1, 7, EventKind::DelegateComplete { submitter: 2, token: 6 }),
        ]);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].queue_wait, 10);
        assert_eq!(eps[0].exec_time, 2);
        assert_eq!(eps[1].queue_wait, 11);
        assert_eq!(eps[1].exec_time, 8);
    }

    #[test]
    fn unfinished_delegation_is_unresolved() {
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::DelegateSubmit { holder: 1, token: 0 }),
        ]);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].resolution, Resolution::Unresolved);
        assert_eq!(eps[0].requester, 2);
        assert_eq!(eps[0].end, None);
    }

    #[test]
    fn independent_monitors_reconstruct_independent_episodes() {
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(11, 3, 9, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(21, 4, 9, EventKind::Block),
            ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
            ev(23, 3, 9, EventKind::RevokeRequest { by: 4 }),
            ev(30, 1, 7, EventKind::Rollback { entries: 1, duration: 1 }),
            ev(31, 2, 7, EventKind::Acquire),
            ev(35, 3, 9, EventKind::Rollback { entries: 2, duration: 1 }),
            ev(36, 4, 9, EventKind::Acquire),
        ]);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].monitor, 7);
        assert_eq!(eps[1].monitor, 9);
        assert!(eps.iter().all(|e| e.resolution == Resolution::Revocation));
    }
}
