//! Steady-state allocation test for a reused [`Machine`]: once one
//! schedule has filled the machine's buffers, a schedule of a small
//! explored program allocates only what it must hand back or cannot
//! recycle — the [`RunOutcome`](revmon_explore::RunOutcome)'s own
//! vectors (decisions, output, statics), the `BTreeMap` nodes of the
//! monitor table and the delegation results, the entry and combiner
//! queues of the monitors (built fresh with the table) and the
//! waits-for graph — and not one allocation per scheduling round. A
//! fresh machine's run of the same schedule allocates more than twice
//! as much. Counted are allocations and reallocations alike.
//!
//! Only the measuring thread counts: the allocator reads a thread-local
//! flag, so what libtest's main thread (or a sibling test) allocates
//! while the window is open is not seen.

use revmon_explore::{testprogs, Machine, Runner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Set on the measuring thread for the measured window. `const`, and
    /// a `Cell<bool>` has no destructor: reading it from inside `alloc`
    /// neither allocates nor registers anything.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

/// `System`, plus a counter armed only inside the measured window, on
/// the thread that opened it.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.load(Ordering::Relaxed), out)
}

/// The most a steady-state schedule of either program may allocate: 12,
/// taken by `delegated_adders`' default schedule.
const STEADY_MAX: u64 = 12;

/// The default schedule and a few that deviate early and late.
const SCRIPTS: [&[u32]; 6] = [&[], &[1], &[0, 1], &[1, 1], &[1, 0, 1], &[2, 1, 0, 1]];

/// Every script on a machine warmed up by one default schedule: the
/// most any of them allocates.
fn steady_state(name: &str, runner: &Runner) -> u64 {
    let mut machine = Machine::new();
    machine.run(runner, Vec::new());
    let mut most = 0;
    for script in SCRIPTS {
        let (n, (out, back)) = allocations(|| machine.run(runner, script.to_vec()));
        assert_eq!(back, script, "{name}: the script comes back");
        assert!(out.decisions.len() > 5, "{name} {script:?}: a schedule with choices");
        assert!(n <= STEADY_MAX, "{name} {script:?}: {n} allocations, more than {STEADY_MAX}");
        most = most.max(n);
    }
    most
}

#[test]
fn a_reused_machine_allocates_a_handful_of_times_per_schedule() {
    for (name, runner) in [
        ("delegated_adders", testprogs::delegated_adders()),
        ("two_incrementers(3)", testprogs::two_incrementers(3)),
    ] {
        let reused = steady_state(name, &runner);
        // The same schedule on a fresh machine, as `Runner::run` makes it.
        let (fresh, _) = allocations(|| runner.run(&[]));
        assert!(fresh > 2 * reused, "{name}: {fresh} allocations fresh, {reused} reused");
    }
}
