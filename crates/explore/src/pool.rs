//! Running a search's scripts on every core while one thread folds their
//! outcomes in the sequential order.
//!
//! A run's outcome is a pure function of its script, so *where* and
//! *when* a script runs cannot change what a search concludes; only the
//! order the outcomes are folded in can. The pool keeps that order the
//! caller's: it is the search's stack of scripts, pushed and popped by
//! the folding thread exactly as a sequential search would, and helper
//! threads run the newest scripts nobody has taken yet — within a
//! bounded window from the top, so finished outcomes wait only for the
//! pops soon to come — leaving each outcome on its entry. Popping an
//! entry takes its outcome, runs its script on the folding thread if
//! nobody has, or, if a helper holds it, runs other waiting scripts
//! until the helper delivers. With no helpers every script runs on the
//! folding thread when popped: the sequential search, on the same path.
//!
//! Running ahead wastes nothing a sequential search would not run,
//! except at an early stop, where each helper finishes the one run it
//! holds. A run that panics on a helper is handed to the folding thread
//! and re-raised there when (and only if) the fold reaches it.

use crate::runner::{RunOutcome, Runner};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Helper threads beside the folding one: one per further core the host
/// offers, none on one core.
pub(crate) fn helpers() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get() - 1)
}

/// One finished run.
pub(crate) struct Ran {
    /// What the run reported.
    pub(crate) outcome: RunOutcome,
    /// Wall time of the run on the thread that ran it.
    pub(crate) time: Duration,
}

/// A run as the thread that made it hands it over: finished, or the
/// payload of its panic.
type Delivery = std::thread::Result<Box<Ran>>;

enum Slot {
    Pending,
    Running,
    Done(Delivery),
}

struct Entry {
    script: Vec<u32>,
    slot: Slot,
}

#[derive(Default)]
struct State {
    /// The stack; the top is the newest script.
    entries: Vec<Entry>,
    /// Where the entry stood that the folding thread popped while a
    /// helper was running it, and its delivery once it is made. Nothing
    /// is pushed while the folding thread waits, so no other entry takes
    /// that place meanwhile.
    awaited: Option<usize>,
    received: Option<Delivery>,
    /// Helpers waiting for a pending script.
    idle: usize,
    stopped: bool,
}

impl State {
    /// Take the newest pending script within `window` entries of the
    /// top: its index and a copy of it.
    fn claim(&mut self, window: usize) -> Option<(usize, Vec<u32>)> {
        let top = self.entries.len();
        let i = (top.saturating_sub(window)..top)
            .rev()
            .find(|&i| matches!(self.entries[i].slot, Slot::Pending))?;
        let e = &mut self.entries[i];
        e.slot = Slot::Running;
        Some((i, e.script.clone()))
    }
}

/// The shared stack of scripts; see the module docs.
pub(crate) struct Pool<'r> {
    runner: &'r Runner,
    workers: usize,
    window: usize,
    state: Mutex<State>,
    /// A script became pending, or the pool stopped.
    work: Condvar,
    /// The awaited entry's delivery arrived.
    delivered: Condvar,
}

/// Run `fold` on this thread over a pool whose scripts `helpers` more
/// threads run ahead, and return what it returns once every helper has
/// stopped (also when `fold` panics).
pub(crate) fn with_pool<T>(runner: &Runner, helpers: usize, fold: impl FnOnce(&Pool) -> T) -> T {
    let pool = Pool {
        runner,
        workers: helpers + 1,
        window: 4 * (helpers + 1),
        state: Mutex::default(),
        work: Condvar::new(),
        delivered: Condvar::new(),
    };
    struct StopOnDrop<'a, 'r>(&'a Pool<'r>);
    impl Drop for StopOnDrop<'_, '_> {
        fn drop(&mut self) {
            self.0.lock().stopped = true;
            self.0.work.notify_all();
        }
    }
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(|| pool.help());
        }
        let _stop = StopOnDrop(&pool);
        fold(&pool)
    })
}

impl Pool<'_> {
    /// Threads running scripts, the folding one included.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Push `scripts` in order: the last one is popped first.
    pub(crate) fn push(&self, scripts: impl IntoIterator<Item = Vec<u32>>) {
        let mut st = self.lock();
        st.entries.extend(scripts.into_iter().map(|script| Entry { script, slot: Slot::Pending }));
        if st.idle > 0 {
            self.work.notify_all();
        }
    }

    /// Whether no script is left.
    pub(crate) fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    /// Pop the newest script with its run, re-raising the run's panic if
    /// it had one.
    pub(crate) fn pop(&self) -> Option<(Vec<u32>, Ran)> {
        let mut st = self.lock();
        let Entry { script, slot } = st.entries.pop()?;
        let delivery = match slot {
            Slot::Done(delivery) => {
                drop(st);
                delivery
            }
            Slot::Pending => {
                drop(st);
                self.run(&script)
            }
            Slot::Running => self.await_delivery(st),
        };
        match delivery {
            Ok(ran) => Some((script, *ran)),
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Wait for the delivery of the entry just popped from `st`'s top,
    /// which a helper is running, running other pending scripts
    /// meanwhile.
    fn await_delivery<'s>(&'s self, mut st: MutexGuard<'s, State>) -> Delivery {
        st.awaited = Some(st.entries.len());
        loop {
            if let Some(delivery) = st.received.take() {
                st.awaited = None;
                return delivery;
            }
            st = match st.claim(self.window) {
                Some(claimed) => self.run_claimed(st, claimed),
                None => self.delivered.wait(st).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// A helper's loop: run the newest pending script, leave its
    /// outcome, repeat until the pool stops.
    fn help(&self) {
        let mut st = self.lock();
        while !st.stopped {
            st = match st.claim(self.window) {
                Some(claimed) => self.run_claimed(st, claimed),
                None => {
                    st.idle += 1;
                    let mut st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                    st.idle -= 1;
                    st
                }
            };
        }
    }

    /// Run a claimed script with the lock released and deliver its
    /// outcome: to the folding thread if it popped the entry meanwhile
    /// and awaits it, else onto the entry.
    fn run_claimed<'s>(
        &'s self,
        st: MutexGuard<'s, State>,
        (i, script): (usize, Vec<u32>),
    ) -> MutexGuard<'s, State> {
        drop(st);
        let delivery = self.run(&script);
        let mut st = self.lock();
        if st.awaited == Some(i) {
            st.received = Some(delivery);
            self.delivered.notify_one();
        } else {
            st.entries[i].slot = Slot::Done(delivery);
        }
        st
    }

    fn run(&self, script: &[u32]) -> Delivery {
        panic::catch_unwind(AssertUnwindSafe(|| {
            let started = Instant::now();
            let outcome = self.runner.run(script);
            Box::new(Ran { outcome, time: started.elapsed() })
        }))
    }

    /// The state, also after a thread panicked while holding it: runs
    /// and their panics happen with the lock released, and no update
    /// under it leaves the state half made.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
