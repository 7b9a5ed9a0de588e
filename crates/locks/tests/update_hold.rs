//! `Tx::update` runs the caller's closure while the cell's lock is held.
//!
//! What that must not cost: a closure that touches its own cell is a
//! reported error, one that unwinds leaves the cell untouched, one that
//! is slow or blocked can still be revoked, and a bystander's
//! `read_unsynchronized` waits instead of deadlocking. Every case runs
//! under a watchdog (`common::within`): the regressions here are threads
//! waiting for themselves, which would otherwise hang the run.

mod common;

use common::{be_revoked, hold_section_until, within};
use revmon_core::Priority;
use revmon_locks::{RevocableMonitor, TCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

const LIMIT: Duration = Duration::from_secs(60);

/// Whether `m` can be entered right now — asked from a fresh thread, so
/// a monitor its last holder never released reads busy, not reentrant.
fn enterable(m: &Arc<RevocableMonitor>) -> bool {
    let m = Arc::clone(m);
    thread::spawn(move || m.try_enter(Priority::NORM, |_| ()).is_some()).join().unwrap()
}

#[test]
fn a_closure_that_reads_its_own_cell_panics_instead_of_hanging() {
    within(LIMIT, || {
        let m = Arc::new(RevocableMonitor::new());
        let c = TCell::new(1i64);
        let r = catch_unwind(AssertUnwindSafe(|| {
            m.enter(Priority::NORM, |tx| tx.update(&c, |v| v + tx.read(&c)))
        }));
        let payload = r.expect_err("the closure waited for its own lock and got it");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("a TCell was accessed from inside its own update closure")
        );
        assert_eq!(c.read_unsynchronized(), 1, "nothing was stored");
        assert!(enterable(&m), "the panic left through enter's user-panic path");
        m.enter(Priority::NORM, |tx| tx.update(&c, |v| v + 1));
        assert_eq!(c.read_unsynchronized(), 2, "and the cell is usable");
    });
}

#[test]
fn a_closure_that_panics_leaves_the_cell_untouched_and_the_monitor_free() {
    within(LIMIT, || {
        let m = Arc::new(RevocableMonitor::new());
        let c = TCell::new(1i64);
        let r = catch_unwind(AssertUnwindSafe(|| {
            m.enter(Priority::NORM, |tx| tx.update(&c, |_| panic!("user bug")))
        }));
        assert!(r.is_err());
        assert_eq!(c.read_unsynchronized(), 1);
        assert_eq!(m.stats().log_entries, 0, "nothing was logged");
        assert!(enterable(&m));

        // Nothing was *saved* either. A section that survives its
        // closure's panic and then writes the cell must have that write
        // logged as the section's first — a saved entry left behind under
        // the section's stamp would make it a repeat write, which a
        // rollback does not undo.
        let mut attempts = 0;
        let seen = thread::scope(|scope| {
            m.enter(Priority::LOW, |tx| {
                attempts += 1;
                if attempts == 1 {
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        tx.update(&c, |_| panic!("user bug"));
                    }));
                    assert!(caught.is_err());
                    tx.write(&c, 5);
                    be_revoked(scope, &m, tx);
                }
                tx.read(&c)
            })
        });
        assert_eq!(seen, 1, "the rollback restored the value from before the section");
        assert_eq!(m.stats().log_entries, 1);
    });
}

#[test]
fn a_section_spinning_inside_a_closure_is_revoked_and_its_retry_commits() {
    within(LIMIT, || {
        let m = Arc::new(RevocableMonitor::new());
        let (a, b) = (TCell::new(0i64), TCell::new(0i64));
        let entered = Arc::new(Barrier::new(2));
        let low = {
            let (m, a, b, entered) = (Arc::clone(&m), a.clone(), b.clone(), Arc::clone(&entered));
            thread::spawn(move || {
                let mut attempts = 0u32;
                m.enter(Priority::LOW, |tx| {
                    attempts += 1;
                    tx.write(&a, 10);
                    tx.update(&b, |v| {
                        if attempts == 1 {
                            entered.wait();
                            // Left only by HIGH's revocation unwinding
                            // out of the checkpoint — b's lock held.
                            hold_section_until(|| false, || tx.checkpoint());
                        }
                        v + 1
                    });
                });
                attempts
            })
        };
        entered.wait();
        let seen = m.enter(Priority::HIGH, |tx| (tx.read(&a), tx.read(&b)));
        assert_eq!(seen, (0, 0), "HIGH runs on the rolled-back state, and b's lock was let go");
        assert_eq!(low.join().unwrap(), 2, "LOW was rolled back once and retried");
        assert!(m.stats().rollbacks >= 1);
        assert_eq!((a.read_unsynchronized(), b.read_unsynchronized()), (10, 1));
    });
}

#[test]
fn a_closure_blocked_on_a_nested_monitor_is_revoked_from_the_outer_one() {
    within(LIMIT, || {
        let outer = Arc::new(RevocableMonitor::new());
        let inner = Arc::new(RevocableMonitor::new());
        let (a, b) = (TCell::new(0i64), TCell::new(0i64));
        let inner_held = Arc::new(Barrier::new(2));
        let hi_done = Arc::new(AtomicBool::new(false));

        // Keeps `inner` until HIGH has been through `outer`, so what
        // frees LOW from inner's queue is the revocation, not a release.
        let blocker = {
            let (inner, inner_held, hi_done) =
                (Arc::clone(&inner), Arc::clone(&inner_held), Arc::clone(&hi_done));
            thread::spawn(move || {
                inner.enter(Priority::NORM, |_| {
                    inner_held.wait();
                    hold_section_until(|| hi_done.load(Ordering::Acquire), thread::yield_now);
                });
            })
        };
        inner_held.wait();
        let low = {
            let (outer, inner, a, b) =
                (Arc::clone(&outer), Arc::clone(&inner), a.clone(), b.clone());
            thread::spawn(move || {
                let mut attempts = 0u32;
                outer.enter(Priority::LOW, |tx| {
                    attempts += 1;
                    tx.update(&a, |v| {
                        inner.enter(Priority::LOW, |tx2| tx2.update(&b, |w| w + 1));
                        v + 1
                    });
                });
                attempts
            })
        };
        // LOW is parked on `inner`, inside a's closure, holding `outer`.
        hold_section_until(|| inner.stats().contended >= 1, thread::yield_now);
        let seen = outer.enter(Priority::HIGH, |tx| tx.read(&a));
        hi_done.store(true, Ordering::Release);
        assert_eq!(seen, 0);
        blocker.join().unwrap();
        assert_eq!(low.join().unwrap(), 2);
        assert!(outer.stats().rollbacks >= 1);
        assert_eq!((a.read_unsynchronized(), b.read_unsynchronized()), (1, 1));
    });
}

#[test]
fn an_unsynchronized_read_during_a_long_closure_waits_for_it() {
    within(LIMIT, || {
        let m = Arc::new(RevocableMonitor::new());
        let c = TCell::new(0i64);
        let inside = Arc::new(Barrier::new(2));
        let finish = Arc::new(AtomicBool::new(false));
        let updater = {
            let (m, c, inside, finish) =
                (Arc::clone(&m), c.clone(), Arc::clone(&inside), Arc::clone(&finish));
            thread::spawn(move || {
                m.enter(Priority::NORM, |tx| {
                    tx.update(&c, |v| {
                        inside.wait();
                        hold_section_until(|| finish.load(Ordering::Acquire), thread::yield_now);
                        v + 1
                    })
                });
            })
        };
        inside.wait();
        let (about_to_read, reading) = mpsc::channel();
        let reader = {
            let c = c.clone();
            thread::spawn(move || {
                about_to_read.send(()).unwrap();
                c.read_unsynchronized()
            })
        };
        reading.recv().unwrap();
        finish.store(true, Ordering::Release);
        let seen = reader.join().unwrap();
        assert!(seen == 0 || seen == 1, "a value the cell never held: {seen}");
        updater.join().unwrap();
        assert_eq!(c.read_unsynchronized(), 1);
    });
}
