//! Pool-leak and generation-reuse churn for the compact-monitor side
//! table: inflations and deflations split across threads must recycle
//! fat records (bounded high-water mark), and a record reused by a
//! *different* monitor under a fresh generation must never corrupt
//! either monitor's protocol (the ABA the generation stamp defeats).
//!
//! Single `#[test]` on purpose: the quiescence assertions at the end
//! (`pooled == high-water`) need this process to have no other monitor
//! activity in flight.

mod common;

use common::hold_section_until;
use revmon_core::Priority;
use revmon_locks::{fat_record_high_water, fat_records_pooled, RevocableMonitor, TCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

/// One deterministic inflate/deflate round on `m`: the holder keeps its
/// section open until a contender has blocked on the monitor (blocking
/// on a held monitor inflates it), then exits — the release path hands
/// the monitor to the contender, whose own exit deflates it.
fn churn_round(m: &RevocableMonitor, c: &TCell<i64>) {
    let before = m.stats().contended;
    let inside = AtomicBool::new(false);
    thread::scope(|s| {
        s.spawn(|| {
            m.enter(Priority::NORM, |tx| {
                tx.update(c, |v| v + 1);
                inside.store(true, Ordering::Release);
                hold_section_until(|| m.stats().contended > before, std::hint::spin_loop);
            });
        });
        // Touch the monitor only once the holder owns it, then block
        // behind it.
        while !inside.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        m.enter(Priority::NORM, |tx| tx.update(c, |v| v + 1));
    });
}

#[test]
fn churn_recycles_records_and_reuse_is_safe() {
    const PAIRS: usize = 4;
    const ROUNDS: usize = 50;
    let base_high_water = fat_record_high_water();

    // Phase 1 — concurrent churn: PAIRS independent monitors each run
    // ROUNDS inflate/deflate cycles in parallel.
    let workers: Vec<_> = (0..PAIRS)
        .map(|_| {
            thread::spawn(|| {
                let m = RevocableMonitor::new();
                let c = TCell::new(0i64);
                for _ in 0..ROUNDS {
                    churn_round(&m, &c);
                }
                let st = m.stats();
                assert!(st.inflations >= ROUNDS as u64, "every round must inflate");
                assert_eq!(
                    st.inflations, st.deflations,
                    "every inflation must deflate back to thin"
                );
                // 2 per round: holder's update + contender's update.
                assert_eq!(c.read_unsynchronized(), 2 * ROUNDS as i64);
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Leak bound: hundreds of inflations, but never more than a few
    // concurrent ones — the pool must have recycled records instead of
    // allocating per inflation. Generous slack for lease/retire overlap
    // across the worker threads.
    let high_water = fat_record_high_water() - base_high_water;
    assert!(
        high_water <= 4 * PAIRS as u32,
        "side table leaked records: {} new for {} concurrent pairs",
        high_water,
        PAIRS
    );

    // Phase 2 — cross-monitor reuse (generation ABA): two monitors
    // alternately inflate and deflate on one thread pair, so the *same*
    // pooled record serves both under successive generations. Any stale
    // (index, generation) acceptance would cross their state.
    let ma = RevocableMonitor::new();
    let mb = RevocableMonitor::new();
    let ca = TCell::new(0i64);
    let cb = TCell::new(0i64);
    for _ in 0..25 {
        churn_round(&ma, &ca);
        churn_round(&mb, &cb);
    }
    assert_eq!(ca.read_unsynchronized(), 50);
    assert_eq!(cb.read_unsynchronized(), 50);
    let (sa, sb) = (ma.stats(), mb.stats());
    assert_eq!(sa.inflations, sa.deflations);
    assert_eq!(sb.inflations, sb.deflations);
    // The alternating pair must ride the pool, not grow it.
    assert!(
        fat_record_high_water() - base_high_water <= 4 * PAIRS as u32 + 1,
        "alternating reuse must recycle one pooled record"
    );

    // Quiescence: nothing is inflated anymore, so every record ever
    // allocated is back in a freelist — the no-leak invariant.
    assert_eq!(
        fat_records_pooled(),
        fat_record_high_water() as usize,
        "all fat records must return to the pool at quiescence"
    );
}
