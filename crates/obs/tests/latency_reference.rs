//! The four latency histograms against a reference model.
//!
//! [`Reference`] is the fold the event sink used to run on its own
//! (`LatencyTracker` over its private interval matcher), kept here as
//! the model: `Analysis::from_events` must derive exactly its entry-
//! blocking, section-length, rollback-duration and inversion-resolution
//! histograms — count, min, max, mean and every bucket — on any stream.
//! The fixed cases are the tracker's own unit tests; the properties run
//! it over arbitrary streams and over hostile ones built from the moves
//! real traces get wrong: events without a monitor, timestamps that run
//! backwards, repeated `Block`s, reentrant `Acquire`s, a `RevokeRequest`
//! whose requester never blocked, a `Rollback` with no `Acquire`.

use proptest::prelude::*;
use revmon_obs::{Analysis, Event, EventKind, Histogram, Histograms};
use std::collections::HashMap;

/// The latency fold as the sink ran it: `Block` opens a wait that the
/// same thread's `Acquire` on that monitor closes; the outermost
/// `Acquire` opens a section that `Release` closes and `Rollback`
/// discards; a monitor's first pending `RevokeRequest` is resolved by
/// its requester's `Acquire`.
#[derive(Default)]
struct Reference {
    block_since: HashMap<(u64, u64), u64>,
    section_since: HashMap<(u64, u64), u64>,
    revoke_pending: HashMap<u64, (u64, u64)>,
    hists: Histograms,
}

impl Reference {
    fn observe(&mut self, ev: &Event) {
        let key = (ev.thread, ev.monitor);
        let h = &self.hists;
        match ev.kind {
            EventKind::Block => {
                self.block_since.entry(key).or_insert(ev.ts);
            }
            EventKind::Acquire => {
                self.section_since.entry(key).or_insert(ev.ts);
                if let Some(t0) = self.block_since.remove(&key) {
                    h.entry_blocking.record(ev.ts.saturating_sub(t0));
                }
                if let Some(&(requester, t0)) = self.revoke_pending.get(&ev.monitor) {
                    if requester == ev.thread {
                        h.inversion_resolution.record(ev.ts.saturating_sub(t0));
                        self.revoke_pending.remove(&ev.monitor);
                    }
                }
            }
            EventKind::Release => {
                if let Some(t0) = self.section_since.remove(&key) {
                    h.section_length.record(ev.ts.saturating_sub(t0));
                }
            }
            EventKind::Rollback { duration, .. } => {
                self.section_since.remove(&key);
                h.rollback_duration.record(duration);
            }
            EventKind::RevokeRequest { by } => {
                self.revoke_pending.entry(ev.monitor).or_insert((by, ev.ts));
            }
            _ => {}
        }
    }
}

/// Everything the comparison reads of one histogram; the mean as bits,
/// since both sides divide the same sum by the same count.
type Digest = (&'static str, u64, u64, u64, u64, Vec<(u64, u64)>);

fn digest(hists: &Histograms) -> Vec<Digest> {
    let mut rows = Vec::new();
    hists.for_each(|name, h: &Histogram| {
        let mut buckets = Vec::new();
        h.for_each_bucket(|floor, n| buckets.push((floor, n)));
        rows.push((name, h.count(), h.min(), h.max(), h.mean().to_bits(), buckets));
    });
    rows
}

/// The analysis's histograms of `events`, after checking that they are
/// the reference model's.
fn histograms(events: &[Event]) -> Histograms {
    let mut reference = Reference::default();
    events.iter().for_each(|ev| reference.observe(ev));
    let got = Analysis::from_events(events).histograms;
    assert_eq!(digest(&got), digest(&reference.hists), "stream: {events:?}");
    got
}

fn ev(ts: u64, thread: u64, monitor: u64, kind: EventKind) -> Event {
    Event { ts, thread, monitor, core: 0, kind }
}

#[test]
fn blocking_and_section_lengths_derive() {
    let h = histograms(&[
        ev(10, 1, 7, EventKind::Acquire),
        ev(12, 2, 7, EventKind::Block),
        ev(30, 1, 7, EventKind::Release),
        ev(30, 2, 7, EventKind::Acquire),
        ev(45, 2, 7, EventKind::Release),
    ]);
    assert_eq!(h.entry_blocking.count(), 1);
    assert_eq!(h.entry_blocking.max(), 18);
    assert_eq!(h.section_length.count(), 2);
    assert_eq!(h.section_length.min(), 15);
    assert_eq!(h.section_length.max(), 20);
}

#[test]
fn reentrant_acquires_do_not_reset_section_start() {
    let h = histograms(&[
        ev(10, 1, 7, EventKind::Acquire),
        ev(15, 1, 7, EventKind::Acquire), // reentry
        ev(40, 1, 7, EventKind::Release), // full release only
    ]);
    assert_eq!(h.section_length.count(), 1);
    assert_eq!(h.section_length.max(), 30);
}

#[test]
fn inversion_resolution_matches_requester() {
    let h = histograms(&[
        ev(10, 1, 7, EventKind::Acquire),
        ev(20, 2, 7, EventKind::Block),
        ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
        ev(30, 1, 7, EventKind::Rollback { entries: 4, duration: 6 }),
        ev(31, 2, 7, EventKind::Acquire),
    ]);
    assert_eq!(h.inversion_resolution.count(), 1);
    assert_eq!(h.inversion_resolution.max(), 9); // 31 - 22
    assert_eq!(h.rollback_duration.count(), 1);
    assert_eq!(h.rollback_duration.max(), 6);
    assert_eq!(h.entry_blocking.count(), 1);
    assert_eq!(h.entry_blocking.max(), 11);
    // The rolled-back holder contributes no section length.
    assert_eq!(h.section_length.count(), 0);
}

/// Waits, sections and rollbacks on monitors without an id count like
/// any other: the analysis profiles no such monitor, but the stream-wide
/// histograms see them.
#[test]
fn events_without_a_monitor_reach_the_histograms() {
    let none = Event::NO_MONITOR;
    let h = histograms(&[
        ev(10, 1, none, EventKind::Block),
        ev(14, 1, none, EventKind::Acquire),
        ev(20, 1, none, EventKind::Release),
        ev(21, 2, none, EventKind::Rollback { entries: 1, duration: 3 }),
    ]);
    assert_eq!(h.entry_blocking.count(), 1);
    assert_eq!(h.section_length.max(), 6);
    assert_eq!(h.rollback_duration.count(), 1);
}

/// One event of any kind, payload words taken as they come.
fn kind(tag: u64, a: u64, b: u64) -> EventKind {
    match tag % 17 {
        0 => EventKind::Acquire,
        1 => EventKind::Block,
        2 => EventKind::RevokeRequest { by: a },
        3 => EventKind::Rollback { entries: a, duration: b },
        4 => EventKind::Commit,
        5 => EventKind::Release,
        6 => EventKind::NonRevocable,
        7 => EventKind::DeadlockDetected { cycle_len: a },
        8 => EventKind::DeadlockBroken,
        9 => EventKind::InversionUnresolved { by: a },
        10 => EventKind::GovernorThrottle { by: a },
        11 => EventKind::PolicyFallback,
        12 => EventKind::DelegateSubmit { holder: a, token: b },
        13 => EventKind::DelegateExecute { submitter: a, token: b },
        14 => EventKind::DelegateComplete { submitter: a, token: b },
        15 => EventKind::IpiPosted { by: a },
        _ => EventKind::IpiAck { by: a, stale: b % 2 == 1 },
    }
}

/// A monitor id from a small set, or none.
fn monitor(pick: u32) -> u64 {
    if pick == 3 {
        Event::NO_MONITOR
    } else {
        pick.into()
    }
}

/// Any kind, any timestamp (of any magnitude), over four threads and
/// three monitors plus none; the interval kinds and `RevokeRequest`s
/// naming one of the four threads are drawn often enough to match.
fn arbitrary_stream() -> impl Strategy<Value = Vec<Event>> {
    let event = (
        (any::<u64>(), 0u32..64),
        0u32..4,
        0u32..4,
        prop_oneof![3 => 0u32..6, 1 => 0u32..17],
        (0u32..5, any::<u64>()),
    )
        .prop_map(|((raw, shift), thread, pick, tag, (small, b))| {
            let a = if small < 4 { small.into() } else { b.rotate_left(7) };
            let kind = kind(tag.into(), a, b >> (raw % 64));
            ev(raw >> shift, thread.into(), monitor(pick), kind)
        });
    proptest::collection::vec(event, 0..160)
}

/// A hostile stream: a clock that mostly advances, interleaved moves
/// that each break one assumption a well-formed trace keeps.
fn hostile_stream() -> impl Strategy<Value = Vec<Event>> {
    let step = (0u32..8, 0u32..4, 0u32..4, 0u32..4, 0u32..2_000, any::<u64>());
    proptest::collection::vec(step, 0..60).prop_map(|steps| {
        let mut events = Vec::new();
        let mut ts = 1_000_000u64;
        for (i, (kind_of, t, u, pick, dt, raw)) in steps.into_iter().enumerate() {
            let (t, u, dt, m) = (u64::from(t), u64::from(u), u64::from(dt), monitor(pick));
            let stranger = 100 + i as u64;
            ts = ts.saturating_add(dt);
            let at = |k: u64| ts.saturating_add(k);
            match kind_of {
                // A well-formed inversion: holder t, requester u.
                0 => events.extend([
                    ev(at(0), t, m, EventKind::Acquire),
                    ev(at(1), u, m, EventKind::Block),
                    ev(at(2), t, m, EventKind::RevokeRequest { by: u }),
                    ev(at(3), t, m, EventKind::Rollback { entries: dt, duration: dt / 3 }),
                    ev(at(4), u, m, EventKind::Acquire),
                    ev(at(5), u, m, EventKind::Release),
                ]),
                // Timestamps that run backwards, by a little or past zero.
                1 => ts = if raw % 2 == 0 { ts.saturating_sub(dt * 7) } else { raw % 1_000 },
                // Repeated Blocks, then the acquire that ends the wait.
                2 => events.extend([
                    ev(at(0), t, m, EventKind::Block),
                    ev(at(dt), t, m, EventKind::Block),
                    ev(at(dt * 2), t, m, EventKind::Acquire),
                ]),
                // Reentrant Acquires under one Release.
                3 => events.extend([
                    ev(at(0), t, m, EventKind::Acquire),
                    ev(at(1), t, m, EventKind::Acquire),
                    ev(at(dt), t, m, EventKind::Release),
                ]),
                // A revoke request whose requester never blocked, and
                // later acquires by the holder and by that stranger.
                4 => events.extend([
                    ev(at(0), t, m, EventKind::RevokeRequest { by: stranger }),
                    ev(at(1), t, m, EventKind::Acquire),
                    ev(at(dt), stranger, m, EventKind::Acquire),
                ]),
                // A rollback of a section nobody acquired, any duration.
                5 => {
                    events.push(ev(at(0), t, m, EventKind::Rollback { entries: 1, duration: raw }))
                }
                // Events without a monitor.
                6 => events.push(ev(at(0), t, Event::NO_MONITOR, kind(raw % 6, u, dt))),
                // A release of a monitor never acquired, or a clock at its end.
                _ => {
                    let ts = if raw % 4 == 0 { u64::MAX } else { at(0) };
                    events.push(ev(ts, t, m, EventKind::Release));
                }
            }
        }
        events
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn analysis_histograms_match_the_reference_on_arbitrary_streams(
        events in arbitrary_stream(),
    ) {
        histograms(&events);
    }

    #[test]
    fn analysis_histograms_match_the_reference_on_hostile_streams(
        events in hostile_stream(),
    ) {
        histograms(&events);
    }
}
