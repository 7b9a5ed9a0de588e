//! Steady-state allocation test: after one warmup pass has populated the
//! per-thread pools (section contexts, undo-log buffer, the cells'
//! saved-value buffers), the uncontended enter → logged-write → commit
//! cycle must perform **zero heap allocations** — the tentpole claim of
//! the hot-path overhaul. A counting `#[global_allocator]` proves it.
//!
//! The same file also checks the pooled rollback end to end: a revoked
//! section's writes (including repeated writes to one cell, which are
//! logged once) are undone, so the retry observes exactly the
//! pre-section values. And a blocked thread's handoff state lives in
//! its thread slot, so a steady wait/notify ping-pong allocates nothing
//! either.
//!
//! Only the measuring thread counts: the allocator reads a thread-local
//! flag and bumps a thread-local counter, so what libtest's main thread,
//! the measuring thread's partner or a sibling test allocates while the
//! window is open is not seen.

use revmon_core::{InversionPolicy, Priority};
use revmon_locks::{RevocableMonitor, TCell};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Barrier};
use std::thread;

thread_local! {
    /// Set on the measuring thread for the measured window, and the
    /// allocations it saw there. Both `const`, and a `Cell` of a number
    /// has no destructor: touching them from inside `alloc` neither
    /// allocates nor registers anything.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

/// The allocations `f` makes on the calling thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    ALLOCS.set(0);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCS.get()
}

/// `System`, plus a counter armed only inside the measured window, on
/// the thread that opened it.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn steady_state_makes_no_allocations() {
    let m = RevocableMonitor::new();
    let a = TCell::new(0i64);
    let b = TCell::new(0i64);
    let workload = |i: i64| {
        m.enter(Priority::NORM, |tx| {
            tx.write(&a, i);
            tx.update(&b, |v| v + i);
            let _ = tx.read(&a);
            m.enter(Priority::NORM, |tx2| {
                tx2.write(&a, i + 1);
            });
        });
    };
    // Warmup: grows the undo log, the cells' saved-value buffers, and
    // the section-context pool to their steady-state capacity.
    for i in 0..16 {
        workload(i);
    }
    let n = allocations_of(|| (0..1_000).for_each(workload));
    assert_eq!(n, 0, "steady-state enter + logged write must not allocate (saw {n} allocations)");
}

fn rollback_restores_pre_section_values_newest_first() {
    let m = Arc::new(RevocableMonitor::new());
    let a = Arc::new(TCell::new(1i64));
    let b = Arc::new(TCell::new(2i64));
    let entered = Arc::new(Barrier::new(2));
    let low = {
        let m = Arc::clone(&m);
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        let entered = Arc::clone(&entered);
        thread::spawn(move || {
            let mut attempt = 0;
            let mut seen_on_retry = None;
            m.enter(Priority::LOW, |tx| {
                attempt += 1;
                if attempt > 1 {
                    // The rollback put back a's one saved value (the 1
                    // displaced by the first write; the write of 30
                    // saved nothing) and b's 2; a stamp bug leaves a at
                    // 10 or 30 here.
                    seen_on_retry = Some((tx.read(&a), tx.read(&b)));
                    return;
                }
                tx.write(&a, 10);
                tx.write(&b, 20);
                tx.write(&a, 30);
                entered.wait();
                loop {
                    tx.checkpoint(); // revocation lands here
                    std::hint::spin_loop();
                }
            });
            seen_on_retry
        })
    };
    entered.wait();
    let high = m.enter(Priority::HIGH, |tx| (tx.read(&a), tx.read(&b)));
    assert_eq!(high, (1, 2), "HIGH must see fully restored pre-section values");
    assert_eq!(low.join().unwrap(), Some((1, 2)), "the retry starts from restored state");
    let st = m.stats();
    assert_eq!(st.rollbacks, 1);
    assert_eq!(
        st.entries_rolled_back, 2,
        "three writes to two cells: a cell is logged once per section (its first write), \
         so the rollback restores two entries, not three"
    );
}

#[test]
fn alloc_free_hot_path_and_pooled_rollback() {
    steady_state_makes_no_allocations();
    rollback_restores_pre_section_values_newest_first();
}

/// Two threads take turns through one monitor — each waits until the
/// turn counter is its own, bumps it and notifies the other — so the
/// measuring thread waits in nearly every round, and its re-acquisition
/// after a notify queues whenever its partner holds the monitor. Once a
/// pooled fat record has its queue and wait-set capacity, a round on it
/// allocates nothing: the waiters are their thread slots, and the
/// handoff flag is the slot's.
///
/// The few allocations a release run may still count (0–3) come from a
/// second record. When both threads inflate the monitor at once, the
/// loser leases a fresh side-table record and retires it unpublished, so
/// from then on each inflation after a deflation takes either of two
/// records. Whichever the warm-up has not yet used for a wait or a
/// queueing allocates on its first such use, once: one allocation for
/// its wait set's first push, two for its entry queue's first push (the
/// class table and the class's deque). Backtraces taken at each counted
/// allocation showed only these, each where record 1's first wait or
/// queueing fell after the warm-up on the measuring thread.
#[test]
fn a_wait_notify_round_allocates_nothing() {
    const WARMUP: u64 = 200;
    const ROUNDS: u64 = 2_000;
    let m = RevocableMonitor::with_policy(InversionPolicy::Blocking);
    let turn = TCell::new(0u64);
    let play = |me: u64, rounds: u64| {
        for _ in 0..rounds {
            m.enter(Priority::NORM, |tx| {
                while tx.read(&turn) % 2 != me {
                    tx.wait();
                }
                tx.update(&turn, |t| t + 1);
                tx.notify_all();
            });
        }
    };
    let n = thread::scope(|s| {
        s.spawn(|| play(1, WARMUP + ROUNDS));
        play(0, WARMUP);
        allocations_of(|| play(0, ROUNDS))
    });
    assert_eq!(turn.read_unsynchronized(), 2 * (WARMUP + ROUNDS));
    assert!(n <= 10, "{ROUNDS} wait/notify rounds allocated {n} times");
}
