//! Helpers shared by the real-thread test files: ways to catch a section
//! mid-flight, and a watchdog for cases whose regression is a hang.
#![allow(dead_code)] // each test file uses its own subset

use revmon_core::Priority;
use revmon_locks::{RevocableMonitor, Tx};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::{self, Scope};
use std::time::{Duration, Instant};

/// `tx.rs`'s `TAIL_MAX`: the handles a thread's undo log keeps stored past
/// an outermost commit, and so the most cells it keeps alive by itself.
pub const LOG_TAIL_MAX: usize = 256;

/// How long a section that must be caught mid-flight keeps itself open.
const HOLD: Duration = Duration::from_secs(20);

/// Keep the calling section open, running `step` (the section's yield
/// points), until `arrived()` — the caller's evidence that its contender
/// has reached the monitor. A section that must be caught mid-flight
/// waits to *see* the contender rather than looping "long enough": how
/// long a loop of writes lasts is a property of the build (a repeat
/// write to a cell is a plain store of a few nanoseconds), not of the
/// protocol. Bounded at 20 s, so a broken protocol fails the caller's
/// assertions instead of hanging; `|| false` holds until the section is
/// unwound from inside `step`.
pub fn hold_section_until(arrived: impl Fn() -> bool, mut step: impl FnMut()) {
    let t0 = Instant::now();
    while !arrived() && t0.elapsed() < HOLD {
        step();
    }
}

/// Have a `HIGH` thread contend for `monitor`, then spin at `tx`'s yield
/// points until the revocation unwinds the caller.
pub fn be_revoked<'s>(scope: &'s Scope<'s, '_>, monitor: &'s RevocableMonitor, tx: &Tx<'_>) -> ! {
    scope.spawn(move || monitor.enter(Priority::HIGH, |_| {}));
    hold_section_until(|| false, || tx.checkpoint());
    panic!("the contender never revoked this section");
}

/// Run `case` on a thread of its own and give it `limit` to finish: a
/// case whose regression is a thread waiting for itself then fails by
/// panic (its thread is left behind) instead of hanging the test run. A
/// panic inside `case` is re-raised here.
pub fn within<R: Send + 'static>(limit: Duration, case: impl FnOnce() -> R + Send + 'static) -> R {
    let (done, finished) = mpsc::channel();
    let runner = thread::spawn(move || {
        // The receiver is gone only after a timeout: nothing to tell.
        let _ = done.send(catch_unwind(AssertUnwindSafe(case)));
    });
    match finished.recv_timeout(limit) {
        Ok(result) => {
            runner.join().expect("the runner catches the case's panics");
            result.unwrap_or_else(|payload| resume_unwind(payload))
        }
        Err(_) => panic!("the case did not finish within {limit:?}: a thread is stuck"),
    }
}
