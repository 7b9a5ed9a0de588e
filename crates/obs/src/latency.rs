//! The interval rule of the event stream and the latency histograms
//! derived from it.
//!
//! [`Intervals`] matches the stream's waits and sections, for every
//! consumer in the crate; [`Analyzer`](crate::Analyzer) folds them into
//! four stream-wide histograms:
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
/// `Rollback` discards it. The latency histograms, the per-monitor
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
