//! Real-OS-thread behaviour of the revocable monitor: preemption of
//! low-priority holders, atomicity under rollback, policy baselines.

mod common;

use common::hold_section_until;
use revmon_core::{InversionPolicy, Priority};
use revmon_locks::{RevocableMonitor, TCell, VolatileCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

/// Low-priority thread holds the monitor doing a long update loop; a
/// high-priority thread arrives and must preempt it.
#[test]
fn high_priority_contender_revokes_low_holder() {
    let m = Arc::new(RevocableMonitor::new());
    let cell = TCell::new(0i64);
    let hi_done = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(Barrier::new(2));

    let low = {
        let m = Arc::clone(&m);
        let cell = cell.clone();
        let entered = Arc::clone(&entered);
        let hi_done = Arc::clone(&hi_done);
        thread::spawn(move || {
            let mut attempt = 0u32;
            m.enter(Priority::LOW, |tx| {
                attempt += 1;
                tx.write(&cell, 1);
                if attempt == 1 {
                    // Let the high thread know we hold it, then loop over
                    // yield points: left only by that thread preempting
                    // us out of an `update` (the retry skips the loop).
                    entered.wait();
                    hold_section_until(
                        || hi_done.load(Ordering::Relaxed),
                        || tx.update(&cell, |v| v + 1),
                    );
                }
            });
        })
    };

    entered.wait();
    let hi = {
        let m = Arc::clone(&m);
        let cell = cell.clone();
        let hi_done = Arc::clone(&hi_done);
        thread::spawn(move || {
            let seen = m.enter(Priority::HIGH, |tx| {
                let v = tx.read(&cell);
                tx.write(&cell, -1_000_000);
                v
            });
            hi_done.store(true, Ordering::Relaxed);
            seen
        })
    };

    let seen_by_high = hi.join().unwrap();
    low.join().unwrap();

    // The high-priority thread must have observed the *rolled-back* state:
    // everything the low thread wrote inside its unfinished section was
    // undone, so the cell read 0 (its pre-section value).
    assert_eq!(seen_by_high, 0, "partial low-priority updates leaked");
    let st = m.stats();
    assert!(st.rollbacks >= 1, "low holder was never revoked: {st:?}");
    assert!(st.revocations_requested >= 1);
    assert!(st.entries_rolled_back > 0);
}

/// Counter exactness under heavy mixed-priority contention.
#[test]
fn contended_counter_is_exact() {
    let m = Arc::new(RevocableMonitor::new());
    let cell = TCell::new(0i64);
    let per_thread = 300i64;
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let m = Arc::clone(&m);
            let cell = cell.clone();
            let prio = if i % 3 == 0 { Priority::HIGH } else { Priority::LOW };
            thread::spawn(move || {
                for _ in 0..per_thread {
                    m.enter(prio, |tx| {
                        // several updates per section so rollbacks have
                        // something to undo
                        for _ in 0..4 {
                            tx.update(&cell, |v| v + 1);
                        }
                        // net effect per section: +1
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
    assert_eq!(m.stats().commits, 6 * per_thread as u64);
}

/// The blocking baseline never revokes and logs nothing.
#[test]
fn blocking_policy_never_rolls_back() {
    let m = Arc::new(RevocableMonitor::with_policy(InversionPolicy::Blocking));
    let cell = TCell::new(0i64);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let m = Arc::clone(&m);
            let cell = cell.clone();
            let prio = if i == 0 { Priority::HIGH } else { Priority::LOW };
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
    let st = m.stats();
    assert_eq!(st.rollbacks, 0);
    assert_eq!(st.revocations_requested, 0);
    assert_eq!(st.log_entries, 0);
}

/// A volatile write inside the section pins it non-revocable: the
/// high-priority contender must wait (inversion unresolved), and the
/// section is never rolled back.
#[test]
fn volatile_write_pins_section() {
    let m = Arc::new(RevocableMonitor::new());
    let cell = TCell::new(0i64);
    let flag = VolatileCell::new(0);
    let entered = Arc::new(Barrier::new(2));

    let low = {
        let m = Arc::clone(&m);
        let cell = cell.clone();
        let flag = flag.clone();
        let entered = Arc::clone(&entered);
        thread::spawn(move || {
            let mut updates = 0i64;
            m.enter(Priority::LOW, |tx| {
                tx.write_volatile(&flag, 1); // publishes → non-revocable
                assert!(!tx.is_revocable());
                entered.wait();
                // Stay pinned until the contender has arrived and been
                // refused: the assertions below are about that meeting,
                // and no fixed number of updates guarantees it.
                hold_section_until(
                    || m.stats().inversions_unresolved >= 1,
                    || {
                        tx.update(&cell, |v| v + 1);
                        updates += 1;
                    },
                );
            });
            updates
        })
    };
    entered.wait();
    assert_eq!(flag.load(), 1, "volatile visible outside the monitor");
    let hi = {
        let m = Arc::clone(&m);
        let cell = cell.clone();
        thread::spawn(move || m.enter(Priority::HIGH, |tx| tx.read(&cell)))
    };
    let seen = hi.join().unwrap();
    let updates = low.join().unwrap();
    // The high thread entered only after the low section *completed*.
    assert_eq!(seen, updates);
    assert_eq!(m.stats().rollbacks, 0);
    assert!(m.stats().nonrevocable_marks >= 1);
    assert!(m.stats().inversions_unresolved >= 1);
}

/// `irrevocable()` (native-call analogue) likewise blocks revocation and
/// makes the side effect happen exactly once.
#[test]
fn irrevocable_effects_happen_once() {
    let m = Arc::new(RevocableMonitor::new());
    let cell = TCell::new(0i64);
    let effects = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let entered = Arc::new(Barrier::new(2));
    let low = {
        let m = Arc::clone(&m);
        let cell = cell.clone();
        let effects = Arc::clone(&effects);
        let entered = Arc::clone(&entered);
        thread::spawn(move || {
            m.enter(Priority::LOW, |tx| {
                tx.irrevocable();
                effects.fetch_add(1, Ordering::Relaxed); // "println"
                entered.wait();
                // Hold until the contender is queued behind us, so it
                // really is an irrevocable section that it meets.
                hold_section_until(|| m.stats().contended >= 1, || tx.update(&cell, |v| v + 1));
            });
        })
    };
    entered.wait();
    let hi = {
        let m = Arc::clone(&m);
        let cell = cell.clone();
        thread::spawn(move || m.enter(Priority::HIGH, |tx| tx.read(&cell)))
    };
    hi.join().unwrap();
    low.join().unwrap();
    assert_eq!(effects.load(Ordering::Relaxed), 1, "native effect duplicated");
    assert_eq!(m.stats().rollbacks, 0);
}

/// Nested monitors: revoking the outer section unwinds through the inner
/// one, restoring both logs.
#[test]
fn nested_sections_roll_back_together() {
    let outer = Arc::new(RevocableMonitor::new());
    let inner = Arc::new(RevocableMonitor::new());
    let a = TCell::new(0i64);
    let b = TCell::new(0i64);
    let entered = Arc::new(Barrier::new(2));
    let retried = Arc::new(std::sync::atomic::AtomicU64::new(0));

    let low = {
        let (outer, inner) = (Arc::clone(&outer), Arc::clone(&inner));
        let (a, b) = (a.clone(), b.clone());
        let entered = Arc::clone(&entered);
        let retried = Arc::clone(&retried);
        thread::spawn(move || {
            outer.enter(Priority::LOW, |tx| {
                let attempt = retried.fetch_add(1, Ordering::Relaxed);
                tx.write(&a, 10);
                inner.enter(Priority::LOW, |tx2| {
                    tx2.write(&b, 20);
                });
                if attempt == 0 {
                    entered.wait(); // signal: first attempt is mid-section
                    hold_section_until(|| false, || tx.checkpoint());
                }
            });
        })
    };
    entered.wait();
    let hi = {
        let outer = Arc::clone(&outer);
        let (a, b) = (a.clone(), b.clone());
        thread::spawn(move || outer.enter(Priority::HIGH, |tx| (tx.read(&a), tx.read(&b))))
    };
    let (sa, sb) = hi.join().unwrap();
    low.join().unwrap();
    // The inner section had *committed into* the outer log; the outer
    // rollback must still have undone its write (the paper keeps nested
    // updates revocable until the outermost exit).
    assert_eq!((sa, sb), (0, 0), "nested updates leaked through rollback");
    assert!(outer.stats().rollbacks >= 1);
    assert!(retried.load(Ordering::Relaxed) >= 2, "closure retried");
    // final state: the retry completed
    assert_eq!(a.read_unsynchronized(), 10);
    assert_eq!(b.read_unsynchronized(), 20);
}

/// wait/notify handshake, with the conservative non-revocability rule.
#[test]
fn wait_notify_handshake() {
    let m = Arc::new(RevocableMonitor::new());
    let flag = TCell::new(0i64);
    let result = TCell::new(0i64);
    let consumer = {
        let m = Arc::clone(&m);
        let (flag, result) = (flag.clone(), result.clone());
        thread::spawn(move || {
            m.enter(Priority::NORM, |tx| {
                while tx.read(&flag) == 0 {
                    tx.wait();
                }
                tx.write(&result, 99);
            });
        })
    };
    thread::sleep(Duration::from_millis(50));
    m.enter(Priority::NORM, |tx| {
        tx.write(&flag, 1);
        tx.notify_all();
    });
    consumer.join().unwrap();
    assert_eq!(result.read_unsynchronized(), 99);
    assert!(m.stats().nonrevocable_marks >= 1, "waiting pinned the section");
}

/// `notify_one` wakes exactly one of two waiters; the other stays in the
/// wait set until it gets a notify of its own.
#[test]
fn notify_one_wakes_exactly_one_waiter() {
    let m = Arc::new(RevocableMonitor::new());
    let waiting = TCell::new(0i64);
    let wakeups = TCell::new(0i64);
    let (done_tx, done_rx) = mpsc::channel();
    let waiters: Vec<_> = (0..2)
        .map(|_| {
            let m = Arc::clone(&m);
            let (waiting, wakeups) = (waiting.clone(), wakeups.clone());
            let done_tx = done_tx.clone();
            thread::spawn(move || {
                // `wait` pins the section, so it runs once; it has no
                // spurious wake-ups, so one return is one notification.
                m.enter(Priority::NORM, |tx| {
                    tx.update(&waiting, |v| v + 1);
                    tx.wait();
                    tx.update(&wakeups, |v| v + 1);
                });
                done_tx.send(()).unwrap();
            })
        })
        .collect();
    // A waiter holds the monitor from its increment until `wait` parks
    // it, so seeing 2 from inside the monitor means both are parked.
    while m.enter(Priority::NORM, |tx| tx.read(&waiting)) < 2 {
        thread::yield_now();
    }

    m.enter(Priority::NORM, |tx| tx.notify_one());
    done_rx.recv().expect("the notified waiter finishes");
    assert!(
        done_rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "one notify_one released both waiters"
    );
    assert_eq!(m.enter(Priority::NORM, |tx| tx.read(&wakeups)), 1);

    m.enter(Priority::NORM, |tx| tx.notify_one());
    done_rx.recv().expect("the second waiter finishes on its own notify");
    for w in waiters {
        w.join().unwrap();
    }
    assert_eq!(wakeups.read_unsynchronized(), 2);
}

/// A thread's handoff flag outlives the handoff that raised it: `t`
/// queues on `b` and is handed it (the grant raises the flag), then
/// waits on `a`. That wait must last until `a` is notified — one that
/// found the flag still raised would return at once, unnotified, and
/// then keep returning.
#[test]
fn a_wait_right_after_a_handoff_waits_for_its_notify() {
    let (a, b) = (RevocableMonitor::new(), RevocableMonitor::new());
    let go = TCell::new(false);
    thread::scope(|s| {
        let t = b.enter(Priority::NORM, |_| {
            let t = s.spawn(|| {
                b.enter(Priority::NORM, |_| {});
                a.enter(Priority::NORM, |tx| {
                    let mut waits = 0;
                    while !tx.read(&go) {
                        tx.wait();
                        waits += 1;
                    }
                    waits
                })
            });
            // Queued (counted under the record lock it queues in), so
            // this release hands `b` to `t`.
            while b.stats().contended == 0 {
                thread::yield_now();
            }
            t
        });
        thread::sleep(Duration::from_millis(200));
        assert!(!t.is_finished(), "the wait on `a` returned without a notify");
        a.enter(Priority::NORM, |tx| {
            tx.write(&go, true);
            tx.notify_all();
        });
        assert_eq!(t.join().unwrap(), 1, "one notify, one return from `wait`");
    });
}

/// `read_volatile` is a yield point: a flagged holder whose only data
/// access is a volatile read still rolls back and retries.
#[test]
fn volatile_read_is_a_yield_point() {
    let m = Arc::new(RevocableMonitor::new());
    let cell = TCell::new(0i64);
    let stop = VolatileCell::new(0);
    let entered = Arc::new(Barrier::new(2));

    let low = {
        let m = Arc::clone(&m);
        let (cell, stop) = (cell.clone(), stop.clone());
        let entered = Arc::clone(&entered);
        thread::spawn(move || {
            let mut attempts = 0u32;
            m.enter(Priority::LOW, |tx| {
                attempts += 1;
                tx.write(&cell, 7);
                if attempts == 1 {
                    entered.wait();
                    // Left only by the revocation unwinding out of
                    // `read_volatile` (or by the test's bail-out below).
                    while tx.read_volatile(&stop) == 0 {
                        std::hint::spin_loop();
                    }
                }
            });
            attempts
        })
    };
    entered.wait();
    let (seen_tx, seen_rx) = mpsc::channel();
    let hi = {
        let m = Arc::clone(&m);
        let cell = cell.clone();
        thread::spawn(move || {
            seen_tx.send(m.enter(Priority::HIGH, |tx| tx.read(&cell))).unwrap();
        })
    };
    // If the volatile read did not poll, LOW would spin forever holding
    // the monitor: bail it out after a generous wait so the test fails
    // instead of hanging.
    let seen = seen_rx.recv_timeout(Duration::from_secs(20));
    stop.store_unsynchronized(1);
    hi.join().unwrap();
    let attempts = low.join().unwrap();

    assert_eq!(seen, Ok(0), "HIGH must get in through a rollback of LOW's write");
    assert_eq!(attempts, 2, "LOW rolled back once and retried");
    assert!(m.stats().rollbacks >= 1);
    assert_eq!(cell.read_unsynchronized(), 7, "the retry committed");
}

/// Monitors are independent: no cross-monitor contention effects.
#[test]
fn independent_monitors() {
    let m1 = Arc::new(RevocableMonitor::new());
    let m2 = Arc::new(RevocableMonitor::new());
    let c1 = TCell::new(0i64);
    let c2 = TCell::new(0i64);
    let t1 = {
        let (m1, c1) = (Arc::clone(&m1), c1.clone());
        thread::spawn(move || {
            for _ in 0..500 {
                m1.enter(Priority::LOW, |tx| tx.update(&c1, |v| v + 1));
            }
        })
    };
    let t2 = {
        let (m2, c2) = (Arc::clone(&m2), c2.clone());
        thread::spawn(move || {
            for _ in 0..500 {
                m2.enter(Priority::HIGH, |tx| tx.update(&c2, |v| v + 1));
            }
        })
    };
    t1.join().unwrap();
    t2.join().unwrap();
    assert_eq!(c1.read_unsynchronized(), 500);
    assert_eq!(c2.read_unsynchronized(), 500);
    assert_eq!(m1.stats().rollbacks + m2.stats().rollbacks, 0);
}

/// try_enter: succeeds when free, fails when held, reentrant when owned.
#[test]
fn try_enter_semantics() {
    let m = Arc::new(RevocableMonitor::new());
    let cell = TCell::new(0i64);
    // free → runs
    assert_eq!(m.try_enter(Priority::NORM, |tx| tx.read(&cell)), Some(0));
    // reentrant inside enter
    m.enter(Priority::NORM, |_tx| {
        let inner = m.try_enter(Priority::NORM, |tx2| {
            tx2.update(&cell, |v| v + 1);
            7
        });
        assert_eq!(inner, Some(7));
    });
    assert_eq!(cell.read_unsynchronized(), 1);
    // held by another thread → None
    let hold = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let holder = {
        let m = Arc::clone(&m);
        let (hold, release) = (Arc::clone(&hold), Arc::clone(&release));
        thread::spawn(move || {
            m.enter(Priority::NORM, |_tx| {
                hold.wait();
                release.wait();
            });
        })
    };
    hold.wait();
    assert_eq!(m.try_enter(Priority::NORM, |_tx| 1), None);
    release.wait();
    holder.join().unwrap();
    assert_eq!(m.try_enter(Priority::NORM, |_tx| 2), Some(2));
}

/// The ceiling policy boosts acquirers to the ceiling; correctness holds
/// and no revocation machinery engages.
#[test]
fn ceiling_policy_boosts_and_stays_correct() {
    let m =
        Arc::new(RevocableMonitor::with_policy(InversionPolicy::PriorityCeiling(Priority::MAX)));
    let cell = TCell::new(0i64);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let m = Arc::clone(&m);
            let cell = cell.clone();
            let prio = if i == 0 { Priority::HIGH } else { Priority::LOW };
            thread::spawn(move || {
                for _ in 0..150 {
                    m.enter(prio, |tx| tx.update(&cell, |v| v + 1));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.read_unsynchronized(), 600);
    let st = m.stats();
    assert_eq!(st.rollbacks, 0);
    assert!(st.priority_boosts >= 600, "every acquisition below MAX boosts");
}
