//! The adaptive revocation governor on real OS threads: after K
//! revocations of the same holder on the same monitor, the next
//! high-priority contender blocks on the prioritized queue instead of
//! revoking again — per-monitor graceful degradation to the blocking
//! baseline. Also covers the nested-section inner-mark rollback rule on
//! this runtime.

use revmon_core::{GovernorConfig, Priority};
use revmon_locks::{RevocableMonitor, TCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Spin until `cond` holds (bounded; panics on timeout so a broken
/// protocol fails loudly instead of hanging CI).
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(10), "timed out waiting for {what}");
        thread::yield_now();
    }
}

/// One revocation burns the budget (K = 1); the second high-priority
/// contender is throttled and must wait for the holder to commit.
#[test]
fn second_contender_is_throttled_after_budget_exhausted() {
    let m = Arc::new(RevocableMonitor::new());
    // Nanosecond clock: a long backoff window so the fallback cannot
    // expire mid-test.
    m.set_governor(GovernorConfig { k: 1, backoff: 30_000_000_000, decay: 0 });
    let cell = TCell::new(0i64);
    let holding = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));

    let low = {
        let m = Arc::clone(&m);
        let cell = cell.clone();
        let (holding, release) = (Arc::clone(&holding), Arc::clone(&release));
        thread::spawn(move || {
            m.enter(Priority::LOW, |tx| {
                tx.write(&cell, 1);
                holding.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    tx.checkpoint();
                    std::hint::spin_loop();
                }
                tx.update(&cell, |v| v + 1);
            });
        })
    };

    // Phase 1: the first high contender revokes the low holder (budget
    // spent: streak == K).
    wait_until("low holder to enter", || holding.swap(false, Ordering::AcqRel));
    let high1 = {
        let m = Arc::clone(&m);
        let cell = cell.clone();
        thread::spawn(move || m.enter(Priority::HIGH, |tx| tx.read(&cell)))
    };
    assert_eq!(high1.join().unwrap(), 0, "high1 must see rolled-back state");
    assert_eq!(m.stats().rollbacks, 1);

    // Phase 2: the low holder retried and re-entered; the second high
    // contender consults the governor, is denied, and blocks.
    wait_until("low holder to re-enter", || holding.swap(false, Ordering::AcqRel));
    let high2 = {
        let m = Arc::clone(&m);
        let cell = cell.clone();
        thread::spawn(move || m.enter(Priority::HIGH, |tx| tx.read(&cell)))
    };
    wait_until("governor to throttle high2", {
        let m = Arc::clone(&m);
        move || m.stats().governor_throttles >= 1
    });
    assert_eq!(m.stats().rollbacks, 1, "the throttled contender must not revoke");

    // Phase 3: let the holder commit; the throttled contender then gets
    // the monitor through the ordinary queue handoff.
    release.store(true, Ordering::Release);
    assert_eq!(high2.join().unwrap(), 2, "high2 runs after the section committed");
    low.join().unwrap();

    let st = m.stats();
    assert_eq!(st.rollbacks, 1, "exactly one revocation under a budget of 1");
    assert!(st.governor_throttles >= 1);
    assert!(st.policy_fallbacks >= 1, "a fresh fallback window must have opened");
    assert_eq!(m.governor_max_streak(), 1, "one revocation, then the budget held");
    assert_eq!(cell.read_unsynchronized(), 2);
}

/// An ungoverned monitor behaves exactly as before: contenders keep
/// revoking and the governor counters stay zero.
#[test]
fn disabled_governor_changes_nothing() {
    let m = Arc::new(RevocableMonitor::new());
    let cell = TCell::new(0i64);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let m = Arc::clone(&m);
            let cell = cell.clone();
            let prio = if i % 2 == 0 { Priority::HIGH } else { Priority::LOW };
            thread::spawn(move || {
                for _ in 0..200 {
                    m.enter(prio, |tx| tx.update(&cell, |v| v + 1));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.read_unsynchronized(), 800);
    assert_eq!(m.stats().governor_throttles, 0);
    assert_eq!(m.stats().policy_fallbacks, 0);
}

/// Correctness under a governed storm: counters stay exact while the
/// governor throttles a mixed-priority workload, and no holder is ever
/// revoked more than K times consecutively.
#[test]
fn governed_contention_keeps_counters_exact() {
    const K: u32 = 2;
    let m = Arc::new(RevocableMonitor::new());
    m.set_governor(GovernorConfig { k: K, backoff: 200_000, decay: 50_000_000 });
    let cell = TCell::new(0i64);
    let per_thread = 200i64;
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let m = Arc::clone(&m);
            let cell = cell.clone();
            let prio = if i % 3 == 0 { Priority::HIGH } else { Priority::LOW };
            thread::spawn(move || {
                for _ in 0..per_thread {
                    m.enter(prio, |tx| {
                        for _ in 0..4 {
                            tx.update(&cell, |v| v + 1);
                        }
                        tx.update(&cell, |v| v - 3);
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.read_unsynchronized(), 6 * per_thread);
    assert!(m.governor_max_streak() <= K, "a streak exceeded the budget");
}

/// Revoking an *inner* nested section must roll back to the inner undo
/// mark only: the enclosing section's writes survive and the final state
/// reflects them (satellite regression — a rollback to the outer mark
/// would silently lose `a`'s update while the outer section kept
/// running).
#[test]
fn inner_revocation_preserves_outer_section_writes() {
    let outer = Arc::new(RevocableMonitor::new());
    let inner = Arc::new(RevocableMonitor::new());
    let a = TCell::new(0i64);
    let b = TCell::new(0i64);
    let holding = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));

    let low = {
        let (outer, inner) = (Arc::clone(&outer), Arc::clone(&inner));
        let (a, b) = (a.clone(), b.clone());
        let (holding, release) = (Arc::clone(&holding), Arc::clone(&release));
        thread::spawn(move || {
            outer.enter(Priority::LOW, |tx| {
                tx.write(&a, 1);
                inner.enter(Priority::LOW, |tx2| {
                    tx2.write(&b, 10);
                    holding.store(true, Ordering::Release);
                    while !release.load(Ordering::Acquire) {
                        tx2.checkpoint();
                        std::hint::spin_loop();
                    }
                });
            });
        })
    };

    wait_until("low to hold the inner monitor", || holding.swap(false, Ordering::AcqRel));
    let high = {
        let inner = Arc::clone(&inner);
        let b = b.clone();
        thread::spawn(move || inner.enter(Priority::HIGH, |tx| tx.read(&b)))
    };
    assert_eq!(high.join().unwrap(), 0, "inner write must have been rolled back");
    // The inner section retries inside the *same* outer attempt; once it
    // re-holds, let it finish.
    wait_until("low to re-enter the inner monitor", || holding.swap(false, Ordering::AcqRel));
    release.store(true, Ordering::Release);
    low.join().unwrap();

    assert!(inner.stats().rollbacks >= 1, "inner section was never revoked");
    assert_eq!(outer.stats().rollbacks, 0, "outer section must not roll back");
    assert_eq!(a.read_unsynchronized(), 1, "outer write lost: wrong undo mark used");
    assert_eq!(b.read_unsynchronized(), 10);
}
