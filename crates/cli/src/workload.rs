//! The priority-inversion scenario that `demo` runs and `serve` keeps
//! running in the background.

use revmon_core::Priority;
use revmon_locks::{RevocableMonitor, TCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{spawn, JoinHandle};
use std::time::Duration;

/// The scenario's threads and what they leave behind.
pub(crate) struct Workload {
    pub(crate) lows: Vec<JoinHandle<()>>,
    pub(crate) highs: Vec<JoinHandle<()>>,
    pub(crate) counter: TCell<i64>,
    /// Ends the low-priority loops once raised.
    pub(crate) stop: Arc<AtomicBool>,
    /// Sections the low-priority threads have committed.
    pub(crate) low_commits: Arc<AtomicU64>,
}

/// Start `low` aggregators — long revocable sections with yield points,
/// the "batch update" side of the paper's motivating scenario, each
/// looping until [`Workload::stop`] is raised — and `high` alarms, short
/// sections that should preempt the aggregators via revocation rather
/// than wait them out, each entered `n` times, `pause` apart. All contend
/// for one monitor named `name`.
pub(crate) fn start(name: &str, low: usize, high: usize, pause: Duration, n: u64) -> Workload {
    let m = Arc::new(RevocableMonitor::named(name));
    let counter = TCell::new(0);
    let stop = Arc::new(AtomicBool::new(false));
    let low_commits = Arc::new(AtomicU64::new(0));
    let lows = (0..low)
        .map(|_| {
            let (m, c, stop, commits) =
                (Arc::clone(&m), counter.clone(), Arc::clone(&stop), Arc::clone(&low_commits));
            spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    m.enter(Priority::LOW, |tx| {
                        for _ in 0..200 {
                            tx.update(&c, |v| v + 1);
                            tx.checkpoint();
                        }
                    });
                    commits.fetch_add(1, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            })
        })
        .collect();
    let highs = (0..high)
        .map(|_| {
            let (m, c) = (Arc::clone(&m), counter.clone());
            spawn(move || {
                for _ in 0..n {
                    std::thread::sleep(pause);
                    m.enter(Priority::HIGH, |tx| tx.update(&c, |v| v + 1));
                }
            })
        })
        .collect();
    Workload { lows, highs, counter, stop, low_commits }
}
