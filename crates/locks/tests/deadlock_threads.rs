//! Deadlock detection and breaking across real OS threads.

use revmon_core::Priority;
use revmon_locks::{RevocableMonitor, TCell, DEADLOCKS_BROKEN, DEADLOCKS_DETECTED};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

/// Classic two-monitor crossed acquisition, forced with a barrier so both
/// threads hold their first monitor before trying the second.
#[test]
fn crossed_monitors_deadlock_is_broken() {
    let a = Arc::new(RevocableMonitor::new());
    let b = Arc::new(RevocableMonitor::new());
    let cell = TCell::new(0i64);
    let both_hold = Arc::new(Barrier::new(2));
    let before = DEADLOCKS_BROKEN.load(Ordering::Relaxed);

    let t1 = {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        let cell = cell.clone();
        let both_hold = Arc::clone(&both_hold);
        let mut attempt = 0;
        thread::spawn(move || {
            a.enter(Priority::NORM, |tx| {
                attempt += 1;
                if attempt == 1 {
                    both_hold.wait();
                }
                b.enter(Priority::NORM, |tx2| {
                    tx2.update(&cell, |v| v + 1);
                });
                tx.checkpoint();
            });
        })
    };
    let t2 = {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        let cell = cell.clone();
        let both_hold = Arc::clone(&both_hold);
        let mut attempt = 0;
        thread::spawn(move || {
            b.enter(Priority::NORM, |tx| {
                attempt += 1;
                if attempt == 1 {
                    both_hold.wait();
                }
                a.enter(Priority::NORM, |tx2| {
                    tx2.update(&cell, |v| v + 1);
                });
                tx.checkpoint();
            });
        })
    };
    t1.join().unwrap();
    t2.join().unwrap();
    assert_eq!(cell.read_unsynchronized(), 2, "both inner sections completed");
    assert!(DEADLOCKS_BROKEN.load(Ordering::Relaxed) > before, "a victim must have been revoked");
    assert!(a.stats().rollbacks + b.stats().rollbacks >= 1);
}

/// Three-monitor cycle.
#[test]
fn three_way_cycle_is_broken() {
    let monitors: Vec<Arc<RevocableMonitor>> =
        (0..3).map(|_| Arc::new(RevocableMonitor::new())).collect();
    let cell = TCell::new(0i64);
    let all_hold = Arc::new(Barrier::new(3));
    let handles: Vec<_> = (0..3)
        .map(|i| {
            let first = Arc::clone(&monitors[i]);
            let second = Arc::clone(&monitors[(i + 1) % 3]);
            let cell = cell.clone();
            let all_hold = Arc::clone(&all_hold);
            thread::spawn(move || {
                let mut attempt = 0;
                first.enter(Priority::NORM, |_tx| {
                    attempt += 1;
                    if attempt == 1 {
                        all_hold.wait();
                    }
                    second.enter(Priority::NORM, |tx2| {
                        tx2.update(&cell, |v| v + 1);
                    });
                });
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.read_unsynchronized(), 3);
}

/// When every cycle member is non-revocable the deadlock stays: detected
/// but unbroken (the paper's fallback — "applications that deadlock are
/// intrinsically incorrect"). The threads are left parked and detached.
#[test]
fn unbreakable_deadlock_stays_blocked() {
    let a = Arc::new(RevocableMonitor::new());
    let b = Arc::new(RevocableMonitor::new());
    let both_hold = Arc::new(Barrier::new(2));
    let detected_before = DEADLOCKS_DETECTED.load(Ordering::Relaxed);
    let (done_tx, done_rx) = mpsc::channel::<()>();

    for (first, second) in [(Arc::clone(&a), Arc::clone(&b)), (Arc::clone(&b), Arc::clone(&a))] {
        let both_hold = Arc::clone(&both_hold);
        let done_tx = done_tx.clone();
        thread::spawn(move || {
            first.enter(Priority::NORM, |tx| {
                tx.irrevocable(); // native-effect: cannot be revoked
                both_hold.wait();
                second.enter(Priority::NORM, |_tx2| {});
            });
            let _ = done_tx.send(());
        });
    }
    drop(done_tx);
    // Neither thread can finish.
    assert!(
        done_rx.recv_timeout(Duration::from_millis(500)).is_err(),
        "unbreakable deadlock should not resolve"
    );
    assert!(
        DEADLOCKS_DETECTED.load(Ordering::Relaxed) > detected_before,
        "the cycle is still detected"
    );
    // The two threads stay parked; they are deliberately leaked.
}

/// Consistent lock ordering never triggers the breaker.
#[test]
fn ordered_acquisition_no_false_positives() {
    let a = Arc::new(RevocableMonitor::new());
    let b = Arc::new(RevocableMonitor::new());
    let cell = TCell::new(0i64);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            let cell = cell.clone();
            thread::spawn(move || {
                for _ in 0..100 {
                    a.enter(Priority::NORM, |_tx| {
                        b.enter(Priority::NORM, |tx2| {
                            tx2.update(&cell, |v| v + 1);
                        });
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.read_unsynchronized(), 400);
    assert_eq!(a.stats().rollbacks + b.stats().rollbacks, 0);
}

/// The victim is the cycle member whose section deposited the lowest
/// priority, not the one that blocked at the lowest. T1 holds A at LOW
/// and blocks on B at NORM; T2 holds B at NORM and blocks on A at LOW.
/// Neither contender outranks what its holder deposited, so no inversion
/// request is made and only the deadlock breaker acts: it must revoke
/// T1's section on A (deposited LOW), so A rolls back once and B never.
/// Ranking by the blocked-at priority would pick T2's section on B.
#[test]
fn the_breaker_revokes_the_lowest_deposited_priority() {
    let a = Arc::new(RevocableMonitor::new());
    let b = Arc::new(RevocableMonitor::new());
    let cell = TCell::new(0i64);
    let both_hold = Arc::new(Barrier::new(2));
    let before = DEADLOCKS_BROKEN.load(Ordering::Relaxed);

    let crossed = |first: &Arc<RevocableMonitor>,
                   at: Priority,
                   second: &Arc<RevocableMonitor>,
                   then: Priority| {
        let (first, second) = (Arc::clone(first), Arc::clone(second));
        let cell = cell.clone();
        let both_hold = Arc::clone(&both_hold);
        let mut attempt = 0;
        thread::spawn(move || {
            first.enter(at, |tx| {
                attempt += 1;
                if attempt == 1 {
                    both_hold.wait();
                }
                second.enter(then, |tx2| {
                    tx2.update(&cell, |v| v + 1);
                });
                tx.checkpoint();
            });
        })
    };
    let t1 = crossed(&a, Priority::LOW, &b, Priority::NORM);
    let t2 = crossed(&b, Priority::NORM, &a, Priority::LOW);
    t1.join().unwrap();
    t2.join().unwrap();
    assert_eq!(cell.read_unsynchronized(), 2, "both inner sections completed");
    assert!(DEADLOCKS_BROKEN.load(Ordering::Relaxed) > before, "the breaker acted");
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(sa.revocations_requested + sb.revocations_requested, 0, "no inversion request");
    assert_eq!((sa.rollbacks, sb.rollbacks), (1, 0), "T1's section on A is the victim");
}
