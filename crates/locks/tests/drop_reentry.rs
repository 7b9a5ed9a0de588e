//! A cell's value may have a destructor that enters a monitor.
//!
//! The thread's undo log holds a handle to every cell its sections
//! logged, and can be the last one: the section wrote a cell and dropped
//! its `TCell`s. Wherever the log then gives the handle up — a first
//! write that differs from what it remembers, the trim at the outermost
//! commit, thread exit — the cell's values are dropped by runtime code,
//! and their destructors must find the runtime re-enterable: not inside
//! the log's `RefCell` borrow, not after the thread's state is gone.
//! Each case runs under the watchdog; a regression is a panic inside a
//! destructor, which usually takes the process down with it.

mod common;

use common::{within, LOG_TAIL_MAX};
use revmon_core::Priority;
use revmon_locks::{RevocableMonitor, TCell};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const LIMIT: Duration = Duration::from_secs(20);

/// Where [`Reenters`] values count their drops: a cell of its own,
/// guarded by a monitor of its own.
#[derive(Clone)]
struct Drops {
    monitor: Arc<RevocableMonitor>,
    count: TCell<i64>,
}

impl Drops {
    fn new() -> Self {
        Drops { monitor: Arc::new(RevocableMonitor::new()), count: TCell::new(0) }
    }

    fn seen(&self) -> i64 {
        self.count.read_unsynchronized()
    }

    /// Write a fresh cell of [`Reenters`] and drop every `TCell` to it
    /// inside the section: from here on the log's handle is the last.
    /// Two values die with the cell — the one written and the one saved
    /// for rollback.
    fn write_and_orphan_a_cell(&self, m: &RevocableMonitor) {
        m.enter(Priority::NORM, |tx| {
            let c = TCell::new(Reenters(self.clone()));
            tx.write(&c, Reenters(self.clone()));
        });
    }
}

/// A value whose destructor enters a monitor and logs a write there.
#[derive(Clone)]
struct Reenters(Drops);

impl Drop for Reenters {
    fn drop(&mut self) {
        self.0.monitor.enter(Priority::NORM, |tx| tx.update(&self.0.count, |n| n + 1));
    }
}

/// The parent commit dropped the handle at the commit, inside the log's
/// mutable borrow: the destructor's `enter` then panicked in
/// `begin_section` ("RefCell already mutably borrowed"), twice over.
#[test]
fn a_first_write_that_differs_drops_the_remembered_cell_outside_the_logs_borrow() {
    within(LIMIT, || {
        let m = RevocableMonitor::new();
        let drops = Drops::new();
        drops.write_and_orphan_a_cell(&m);
        assert_eq!(drops.seen(), 0, "the commit dropped nothing: the log remembers the cell");
        let other = TCell::new(0i64);
        m.enter(Priority::NORM, |tx| {
            tx.write(&other, 1);
            assert_eq!(tx.read(&other), 1, "the section goes on after the destructors ran");
        });
        assert_eq!(drops.seen(), 2, "the value and the saved one, each through its monitor");
    });
}

/// More cells than the log keeps: the commit gives up the excess, and
/// the destructors' own sections — a different write set — the rest.
#[test]
fn the_trim_at_commit_drops_outside_the_logs_borrow() {
    within(LIMIT, || {
        let m = RevocableMonitor::new();
        let drops = Drops::new();
        let cells = LOG_TAIL_MAX as i64 + 44;
        m.enter(Priority::NORM, |tx| {
            for _ in 0..cells {
                let c = TCell::new(Reenters(drops.clone()));
                tx.write(&c, Reenters(drops.clone()));
            }
            assert_eq!(drops.seen(), 0, "every cell is still live in the log");
        });
        assert_eq!(drops.seen(), 2 * cells);
    });
}

/// A thread that exits with the cell still remembered releases it while
/// its runtime state can still serve the destructor.
#[test]
fn thread_exit_releases_the_remembered_cells_while_a_destructor_can_still_enter() {
    within(LIMIT, || {
        let m = Arc::new(RevocableMonitor::new());
        let drops = Drops::new();
        let worker = {
            let (m, drops) = (Arc::clone(&m), drops.clone());
            thread::spawn(move || {
                drops.write_and_orphan_a_cell(&m);
                drops.seen()
            })
        };
        assert_eq!(worker.join().expect("the thread exits normally"), 0);
        assert_eq!(drops.seen(), 2);
    });
}
