//! Online derivation of latency metrics from the event stream.
//!
//! [`Intervals`] matches the stream's waits and sections, for every
//! consumer in the crate; the sink's tracker folds them, as events are
//! collected, into four histograms:
//!
//! * **entry blocking** — `Block` → next `Acquire` by the same thread
//!   on the same monitor;
//! * **section length** — outermost `Acquire` → full `Release` (the
//!   runtimes emit `Acquire` per acquisition but `Release` only when
//!   the recursion count reaches zero, so the first `Acquire` wins);
//! * **rollback duration** — carried in the `Rollback` event itself;
//! * **inversion resolution** — `RevokeRequest` → the requester's
//!   `Acquire` of the contended monitor.

use crate::event::{Event, EventKind};
use crate::hist::Histogram;
use revmon_core::FxMap;

/// The four derived latency histograms, in the producing runtime's
/// clock units.
#[derive(Default)]
pub struct Histograms {
    /// Time spent blocked on a monitor's entry queue.
    pub entry_blocking: Histogram,
    /// Length of synchronized sections (outermost acquire to release).
    pub section_length: Histogram,
    /// Duration of rollbacks.
    pub rollback_duration: Histogram,
    /// Inversion-resolution latency: revoke request to the
    /// high-priority requester's acquire.
    pub inversion_resolution: Histogram,
}

impl Histograms {
    /// Visit the histograms with their stable export names.
    pub fn for_each(&self, mut f: impl FnMut(&'static str, &Histogram)) {
        f("entry_blocking", &self.entry_blocking);
        f("section_length", &self.section_length);
        f("rollback_duration", &self.rollback_duration);
        f("inversion_resolution", &self.inversion_resolution);
    }
}

/// The interval rule of the monitor-event stream, once: a `Block` opens
/// a wait, the same thread's `Acquire` on that monitor closes it and
/// opens a section (reentrant acquires re-emit `Acquire`; only the
/// outermost opens one), a `Release` closes the section and a
/// `Rollback` discards it. The sink's histograms, the per-monitor
/// profiles and the episode automaton all read their intervals from
/// here.
#[derive(Default)]
pub(crate) struct Intervals {
    /// `(thread, monitor)` → block timestamp (entry-queue waits).
    block_since: FxMap<(u64, u64), u64>,
    /// `(thread, monitor)` → outermost-acquire timestamp (open sections).
    section_since: FxMap<(u64, u64), u64>,
}

impl Intervals {
    /// Fold one event in and return the length of the interval it
    /// closed, if any: the wait an `Acquire` ended, the section a
    /// `Release` completed or a `Rollback` threw away.
    pub(crate) fn observe(&mut self, ev: &Event) -> Option<u64> {
        let key = (ev.thread, ev.monitor);
        let since = match ev.kind {
            EventKind::Block => {
                self.block_since.entry(key).or_insert(ev.ts);
                None
            }
            EventKind::Acquire => {
                self.section_since.entry(key).or_insert(ev.ts);
                self.block_since.remove(&key)
            }
            EventKind::Release | EventKind::Rollback { .. } => self.section_since.remove(&key),
            _ => None,
        };
        since.map(|t0| ev.ts.saturating_sub(t0))
    }

    /// When `thread` blocked on `monitor`, if it is still waiting there.
    pub(crate) fn blocked_since(&self, thread: u64, monitor: u64) -> Option<u64> {
        self.block_since.get(&(thread, monitor)).copied()
    }
}

/// Folds events into a sink's [`Histograms`]: the intervals, plus the
/// pending revoke request per monitor.
#[derive(Default)]
pub(crate) struct LatencyTracker {
    intervals: Intervals,
    revoke_pending: FxMap<u64, (u64, u64)>,
}

impl LatencyTracker {
    /// Fold one event into the histograms.
    pub(crate) fn observe(&mut self, ev: &Event, hists: &Histograms) {
        let closed = self.intervals.observe(ev);
        match ev.kind {
            EventKind::Acquire => {
                if let Some(waited) = closed {
                    hists.entry_blocking.record(waited);
                }
                if let Some(&(requester, t0)) = self.revoke_pending.get(&ev.monitor) {
                    if requester == ev.thread {
                        hists.inversion_resolution.record(ev.ts.saturating_sub(t0));
                        self.revoke_pending.remove(&ev.monitor);
                    }
                }
            }
            EventKind::Release => {
                if let Some(held) = closed {
                    hists.section_length.record(held);
                }
            }
            // The revoked holder's section contributes no length; its
            // retry measures from its new acquire.
            EventKind::Rollback { duration, .. } => hists.rollback_duration.record(duration),
            EventKind::RevokeRequest { by } => {
                self.revoke_pending.entry(ev.monitor).or_insert((by, ev.ts));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, thread: u64, monitor: u64, kind: EventKind) -> Event {
        Event { ts, thread, monitor, core: 0, kind }
    }

    #[test]
    fn blocking_and_section_lengths_derive() {
        let h = Histograms::default();
        let mut t = LatencyTracker::default();
        for e in [
            ev(10, 1, 7, EventKind::Acquire),
            ev(12, 2, 7, EventKind::Block),
            ev(30, 1, 7, EventKind::Release),
            ev(30, 2, 7, EventKind::Acquire),
            ev(45, 2, 7, EventKind::Release),
        ] {
            t.observe(&e, &h);
        }
        assert_eq!(h.entry_blocking.count(), 1);
        assert_eq!(h.entry_blocking.max(), 18);
        assert_eq!(h.section_length.count(), 2);
        assert_eq!(h.section_length.min(), 15);
        assert_eq!(h.section_length.max(), 20);
    }

    #[test]
    fn reentrant_acquires_do_not_reset_section_start() {
        let h = Histograms::default();
        let mut t = LatencyTracker::default();
        for e in [
            ev(10, 1, 7, EventKind::Acquire),
            ev(15, 1, 7, EventKind::Acquire), // reentry
            ev(40, 1, 7, EventKind::Release), // full release only
        ] {
            t.observe(&e, &h);
        }
        assert_eq!(h.section_length.count(), 1);
        assert_eq!(h.section_length.max(), 30);
    }

    #[test]
    fn inversion_resolution_matches_requester() {
        let h = Histograms::default();
        let mut t = LatencyTracker::default();
        for e in [
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
            ev(30, 1, 7, EventKind::Rollback { entries: 4, duration: 6 }),
            ev(31, 2, 7, EventKind::Acquire),
        ] {
            t.observe(&e, &h);
        }
        assert_eq!(h.inversion_resolution.count(), 1);
        assert_eq!(h.inversion_resolution.max(), 9); // 31 - 22
        assert_eq!(h.rollback_duration.count(), 1);
        assert_eq!(h.rollback_duration.max(), 6);
        assert_eq!(h.entry_blocking.count(), 1);
        assert_eq!(h.entry_blocking.max(), 11);
        // The rolled-back holder contributes no section length.
        assert_eq!(h.section_length.count(), 0);
    }
}
