//! Running a search's scripts on every core while one thread folds their
//! outcomes in the sequential order.
//!
//! A run's outcome is a pure function of its script, so *where* and
//! *when* a script runs cannot change what a search concludes; only the
//! order the outcomes are folded in can. The pool keeps that order the
//! caller's: it is the search's stack of scripts, pushed and popped by
//! the folding thread through its [`Frontier`] exactly as a sequential
//! search would, and helper threads run the newest scripts nobody has
//! taken yet — within a bounded window from the top, so finished
//! outcomes wait only for the pops soon to come — leaving each outcome
//! on its entry. Popping an entry takes its outcome, runs its script on
//! the folding thread if nobody has, or, if a helper holds it, runs
//! other waiting scripts until the helper delivers. With no helpers
//! every script runs on the folding thread when popped: the sequential
//! search, on the same path.
//!
//! A helper starts, at a push or at a pop the folding thread runs
//! itself, only once a script is pending below the top — one the
//! folding thread is not about to pop — no helper is idle, and the
//! folding thread's latest run of its own took long enough to be worth
//! handing over ([`WORTH_SHARING`]), so a search of a few schedules, or
//! of schedules shorter than a handoff, starts none. Every thread runs
//! its scripts on one [`Machine`] of its own, and a script moves into
//! the run that takes it and comes back with the outcome.
//!
//! Running ahead wastes nothing a sequential search would not run,
//! except at an early stop, where each helper finishes the one run it
//! holds. A run that panics on a helper is handed to the folding thread
//! and re-raised there when (and only if) the fold reaches it.

use crate::runner::{Machine, RunOutcome, Runner};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// The shortest run worth handing to another thread. On a 2-core host
/// searches of 5–10 µs schedules ran slower with a helper than without —
/// claiming, delivering and waking cost about as much as such a run —
/// while searches of millisecond runs took about half the time. The
/// crate's own tests share every run, so that `parallel_fold` puts
/// helpers to work on every search, short runs included.
const WORTH_SHARING: Duration = if cfg!(test) { Duration::ZERO } else { Duration::from_micros(20) };

/// Helper threads beside the folding one: one per further core the host
/// offers, none on one core.
pub(crate) fn helpers() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get() - 1)
}

/// One finished run.
pub(crate) struct Ran {
    /// The script that ran.
    pub(crate) script: Vec<u32>,
    /// What the run reported.
    pub(crate) outcome: RunOutcome,
    /// Wall time of the run on the thread that ran it.
    pub(crate) time: Duration,
}

/// A run as the thread that made it hands it over: finished, or the
/// payload of its panic.
type Delivery = std::thread::Result<Ran>;

enum Slot {
    /// Not taken; the script is on the entry.
    Pending,
    /// A helper holds the script.
    Running,
    /// A helper left its run here (boxed: a stack entry stays small).
    Done(Box<Delivery>),
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
    /// top: its index and the script.
    fn claim(&mut self, window: usize) -> Option<(usize, Vec<u32>)> {
        let top = self.entries.len();
        let i = (top.saturating_sub(window)..top)
            .rev()
            .find(|&i| matches!(self.entries[i].slot, Slot::Pending))?;
        let e = &mut self.entries[i];
        e.slot = Slot::Running;
        Some((i, std::mem::take(&mut e.script)))
    }

    /// Whether a pending script waits within `window` entries of the top
    /// other than the top one, which the folding thread pops next.
    fn pending_below_top(&self, window: usize) -> bool {
        let top = self.entries.len();
        let below = top.saturating_sub(window)..top.saturating_sub(1);
        self.entries[below].iter().any(|e| matches!(e.slot, Slot::Pending))
    }
}

/// The shared stack of scripts; see the module docs.
struct Pool<'r> {
    runner: &'r Runner,
    window: usize,
    state: Mutex<State>,
    /// A script became pending, or the pool stopped.
    work: Condvar,
    /// The awaited entry's delivery arrived.
    delivered: Condvar,
}

/// The folding thread's side of the pool: it pushes and pops the
/// scripts, starts the helpers, and runs scripts on its own machine.
pub(crate) struct Frontier<'scope, 'env> {
    pool: &'scope Pool<'env>,
    scope: &'scope Scope<'scope, 'env>,
    machine: Machine,
    /// Helpers still allowed to start.
    unstarted: usize,
    workers: usize,
    /// Wall time of the folding thread's latest run of its own.
    last_run: Duration,
}

/// Run `fold` on this thread over a pool whose scripts up to `helpers`
/// more threads run ahead, and return what it returns once every helper
/// has stopped (also when `fold` panics).
pub(crate) fn with_pool<T>(
    runner: &Runner,
    helpers: usize,
    fold: impl FnOnce(&mut Frontier<'_, '_>) -> T,
) -> T {
    let pool = Pool {
        runner,
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
    std::thread::scope(|scope| {
        let _stop = StopOnDrop(&pool);
        let mut frontier = Frontier {
            pool: &pool,
            scope,
            machine: Machine::new(),
            unstarted: helpers,
            workers: helpers + 1,
            last_run: Duration::ZERO,
        };
        fold(&mut frontier)
    })
}

impl Frontier<'_, '_> {
    /// Threads the search may run scripts on, the folding one included.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Push `scripts` in order: the last one is popped first.
    pub(crate) fn push(&mut self, scripts: impl IntoIterator<Item = Vec<u32>>) {
        let pool = self.pool;
        let mut st = pool.lock();
        st.entries.extend(scripts.into_iter().map(|script| Entry { script, slot: Slot::Pending }));
        if st.idle > 0 {
            pool.work.notify_all();
        } else if self.helper_due(&st) {
            drop(st);
            self.start_helper();
        }
    }

    /// Whether a helper should start: one may, none is idle, a script
    /// waits below the top, and runs are long enough to share.
    fn helper_due(&self, st: &State) -> bool {
        self.unstarted > 0
            && st.idle == 0
            && self.last_run >= WORTH_SHARING
            && st.pending_below_top(self.pool.window)
    }

    fn start_helper(&mut self) {
        let pool = self.pool;
        self.unstarted -= 1;
        self.scope.spawn(move || pool.help());
    }

    /// Whether no script is left.
    pub(crate) fn is_empty(&self) -> bool {
        self.pool.lock().entries.is_empty()
    }

    /// Pop the newest script with its run, re-raising the run's panic if
    /// it had one.
    pub(crate) fn pop(&mut self) -> Option<Ran> {
        let pool = self.pool;
        let mut st = pool.lock();
        let Entry { script, slot } = st.entries.pop()?;
        let delivery = match slot {
            Slot::Done(delivery) => {
                drop(st);
                *delivery
            }
            Slot::Pending => {
                // A search that pushed all its scripts at once (a fuzz
                // batch) starts its helpers here.
                let due = self.helper_due(&st);
                drop(st);
                if due {
                    self.start_helper();
                }
                let delivery = pool.run(&mut self.machine, script);
                if let Ok(ran) = &delivery {
                    self.last_run = ran.time;
                }
                delivery
            }
            Slot::Running => pool.await_delivery(st, &mut self.machine),
        };
        match delivery {
            Ok(ran) => Some(ran),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

impl Pool<'_> {
    /// Wait for the delivery of the entry just popped from `st`'s top,
    /// which a helper is running, running other pending scripts on
    /// `machine` meanwhile.
    fn await_delivery<'s>(
        &'s self,
        mut st: MutexGuard<'s, State>,
        machine: &mut Machine,
    ) -> Delivery {
        st.awaited = Some(st.entries.len());
        loop {
            if let Some(delivery) = st.received.take() {
                st.awaited = None;
                return delivery;
            }
            st = match st.claim(self.window) {
                Some(claimed) => self.run_claimed(st, claimed, machine),
                None => self.delivered.wait(st).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// A helper's loop: run the newest pending script, leave its
    /// outcome, repeat until the pool stops.
    fn help(&self) {
        let mut machine = Machine::new();
        let mut st = self.lock();
        while !st.stopped {
            st = match st.claim(self.window) {
                Some(claimed) => self.run_claimed(st, claimed, &mut machine),
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
        machine: &mut Machine,
    ) -> MutexGuard<'s, State> {
        drop(st);
        let delivery = self.run(machine, script);
        let mut st = self.lock();
        if st.awaited == Some(i) {
            st.received = Some(delivery);
            self.delivered.notify_one();
        } else {
            st.entries[i].slot = Slot::Done(Box::new(delivery));
        }
        st
    }

    fn run(&self, machine: &mut Machine, script: Vec<u32>) -> Delivery {
        panic::catch_unwind(AssertUnwindSafe(|| {
            let started = Instant::now();
            let (outcome, script) = machine.run(self.runner, script);
            Ran { script, outcome, time: started.elapsed() }
        }))
    }

    /// The state, also after a thread panicked while holding it: runs
    /// and their panics happen with the lock released, and no update
    /// under it leaves the state half made.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
