//! Event-stream contract of the locks runtime: a priority-inversion
//! scenario must emit `Block → RevokeRequest → Rollback → Acquire` (the
//! high-priority thread's), in that order, into an installed
//! `revmon-obs` sink — the library analogue of the paper's Figure 1
//! timeline.
//!
//! The other two arms of the request verdict — a non-revocable holder,
//! a throttled contender — emit their own events, checked below.
//!
//! Lives in its own integration-test binary because the obs sink is
//! process-global; for the same reason its cases run one after the
//! other ([`serial`]).

mod common;

use common::hold_section_until;
use revmon_core::{GovernorConfig, Priority};
use revmon_locks::{RevocableMonitor, TCell};
use revmon_obs::{Event, EventKind, EventSink, TsUnit};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

/// Held by each case for its whole run: the cases share the one sink.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Install a fresh sink, run `case`, uninstall, and return the events
/// `case`'s monitor produced.
fn events_of(monitor: &RevocableMonitor, case: impl FnOnce()) -> Vec<Event> {
    let sink = Arc::new(EventSink::new(TsUnit::WallNanos));
    revmon_locks::obs::install(Arc::clone(&sink));
    case();
    revmon_locks::obs::uninstall();
    sink.drain().into_iter().filter(|e| e.monitor == monitor.obs_id()).collect()
}

fn count(events: &[Event], pred: impl Fn(&EventKind) -> bool) -> usize {
    events.iter().filter(|e| pred(&e.kind)).count()
}

#[test]
fn inversion_emits_block_revoke_rollback_acquire() {
    let _serial = serial();
    let sink = Arc::new(EventSink::new(TsUnit::WallNanos));
    revmon_locks::obs::install(Arc::clone(&sink));

    let monitor = Arc::new(RevocableMonitor::new());
    let cell = TCell::new(0i64);
    let low_in = Arc::new(AtomicBool::new(false));
    let high_done = Arc::new(AtomicBool::new(false));

    let low = {
        let m = Arc::clone(&monitor);
        let c = cell.clone();
        let low_in = Arc::clone(&low_in);
        let high_done = Arc::clone(&high_done);
        std::thread::spawn(move || {
            let attempts = AtomicU32::new(0);
            m.enter(Priority::LOW, |tx| {
                let attempt = attempts.fetch_add(1, Ordering::Relaxed);
                tx.write(&c, 1);
                low_in.store(true, Ordering::Release);
                if attempt == 0 {
                    // Hold the monitor at yield points until the
                    // high-priority thread either revokes us (unwinds
                    // out of checkpoint) or has finished.
                    while !high_done.load(Ordering::Acquire) {
                        tx.checkpoint();
                        std::hint::spin_loop();
                    }
                }
            });
        })
    };

    while !low_in.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
    monitor.enter(Priority::HIGH, |tx| tx.checkpoint());
    high_done.store(true, Ordering::Release);
    low.join().unwrap();

    revmon_locks::obs::uninstall();
    let events = sink.drain();

    let i_block = events
        .iter()
        .position(|e| e.kind == EventKind::Block)
        .expect("high-priority thread should have blocked");
    let high_tid = events[i_block].thread;
    let i_revoke = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::RevokeRequest { by } if by == high_tid))
        .expect("holder should have been flagged for revocation");
    let i_rollback = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::Rollback { .. }))
        .expect("low-priority section should have rolled back");
    let i_acquire = events
        .iter()
        .enumerate()
        .position(|(i, e)| i > i_block && e.thread == high_tid && e.kind == EventKind::Acquire)
        .expect("high-priority thread should have acquired after blocking");

    assert!(
        i_block < i_revoke && i_revoke < i_rollback && i_rollback < i_acquire,
        "expected Block({i_block}) < RevokeRequest({i_revoke}) < \
         Rollback({i_rollback}) < Acquire({i_acquire}) in {events:#?}"
    );

    // The rolled-back low thread retried and committed: its write stands.
    assert_eq!(cell.read_unsynchronized(), 1);

    // The derived latency histograms saw the episode.
    let h = sink.histograms();
    assert!(h.entry_blocking.count() >= 1, "no blocking time derived");
    assert!(h.rollback_duration.count() >= 1, "no rollback duration derived");
    assert!(h.inversion_resolution.count() >= 1, "no inversion-resolution latency derived");
}

/// A holder that pinned its section (`Tx::irrevocable`, §2.2) cannot be
/// revoked: the contender's inversion is reported unresolved, and nothing
/// is requested or rolled back.
#[test]
fn pinned_holder_reports_an_unresolved_inversion() {
    let _serial = serial();
    let monitor = RevocableMonitor::new();
    let cell = TCell::new(0i64);
    let low_in = AtomicBool::new(false);
    let events = events_of(&monitor, || {
        thread::scope(|s| {
            s.spawn(|| {
                monitor.enter(Priority::LOW, |tx| {
                    tx.irrevocable();
                    tx.write(&cell, 1);
                    low_in.store(true, Ordering::Release);
                    hold_section_until(
                        || monitor.stats().inversions_unresolved >= 1,
                        || tx.checkpoint(),
                    );
                })
            });
            hold_section_until(|| low_in.load(Ordering::Acquire), thread::yield_now);
            s.spawn(|| monitor.enter(Priority::HIGH, |tx| tx.read(&cell)));
        });
    });
    let high = events.iter().find(|e| e.kind == EventKind::Block).expect("HIGH blocked").thread;
    assert!(
        events.iter().any(|e| e.kind == EventKind::InversionUnresolved { by: high }),
        "no InversionUnresolved {{ by: {high} }} in {events:#?}"
    );
    assert_eq!(count(&events, |k| matches!(k, EventKind::RevokeRequest { .. })), 0);
    assert_eq!(count(&events, |k| matches!(k, EventKind::Rollback { .. })), 0);
    assert_eq!(monitor.stats().rollbacks, 0);
    assert_eq!(cell.read_unsynchronized(), 1);
}

/// Under `k = 1` the first HIGH contender revokes the holder and the
/// second is throttled: `GovernorThrottle { by: second }`, then the
/// fresh window's `PolicyFallback`, and no second rollback.
#[test]
fn second_contender_reports_throttle_then_fallback() {
    let _serial = serial();
    let monitor = RevocableMonitor::new();
    // Nanosecond clock: a window that cannot expire mid-test.
    monitor.set_governor(GovernorConfig { k: 1, backoff: 30_000_000_000, decay: 0 });
    let cell = TCell::new(0i64);
    let entries = AtomicU32::new(0);
    let events = events_of(&monitor, || {
        thread::scope(|s| {
            s.spawn(|| {
                monitor.enter(Priority::LOW, |tx| {
                    tx.write(&cell, 1);
                    // First attempt: held until revoked. Second: until the
                    // second contender has been throttled.
                    let first = entries.fetch_add(1, Ordering::AcqRel) == 0;
                    hold_section_until(
                        || !first && monitor.stats().governor_throttles >= 1,
                        || tx.checkpoint(),
                    );
                })
            });
            hold_section_until(|| entries.load(Ordering::Acquire) >= 1, thread::yield_now);
            s.spawn(|| monitor.enter(Priority::HIGH, |tx| tx.read(&cell))).join().unwrap();
            hold_section_until(|| entries.load(Ordering::Acquire) >= 2, thread::yield_now);
            s.spawn(|| monitor.enter(Priority::HIGH, |tx| tx.read(&cell)));
        });
    });
    let pos = |pred: &dyn Fn(&EventKind) -> bool| events.iter().position(|e| pred(&e.kind));
    let first_high = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::RevokeRequest { by } => Some(by),
            _ => None,
        })
        .expect("the first contender revoked");
    let low = events[pos(&|k| matches!(k, EventKind::Rollback { .. })).expect("a rollback")].thread;
    let second_high = events
        .iter()
        .find(|e| e.kind == EventKind::Block && e.thread != low && e.thread != first_high)
        .expect("the second contender blocked")
        .thread;
    let throttle = pos(&|k| *k == EventKind::GovernorThrottle { by: second_high })
        .unwrap_or_else(|| panic!("no GovernorThrottle {{ by: {second_high} }} in {events:#?}"));
    let fallback = pos(&|k| *k == EventKind::PolicyFallback).expect("no PolicyFallback");
    assert!(throttle < fallback, "GovernorThrottle({throttle}) before PolicyFallback({fallback})");
    assert_eq!(count(&events, |k| matches!(k, EventKind::Rollback { .. })), 1);
    assert_eq!(count(&events, |k| matches!(k, EventKind::RevokeRequest { .. })), 1);
    assert_eq!(monitor.stats().rollbacks, 1);
}
