//! # revmon-locks — revocable monitors for real OS threads
//!
//! The "downstream-adoptable" half of the *revmon* reproduction of
//!
//! > Adam Welc, Antony L. Hosking, Suresh Jagannathan.
//! > *Preemption-Based Avoidance of Priority Inversion for Java.*
//! > ICPP 2004.
//!
//! Where `revmon-vm` reproduces the paper's experimental platform (a
//! Jikes-RVM-like green-thread VM), this crate packages the same
//! mechanism as a Rust library over native threads:
//!
//! * [`RevocableMonitor::enter`] runs a closure as a synchronized
//!   section at a given [`Priority`];
//! * shared data lives in [`TCell`]s, accessed through the [`Tx`] handle
//!   — a section's first write to a cell is *logged* (the paper's
//!   compiler-injected write barrier, which logs every store; a stamp
//!   beside the saved value makes later writes by the same section plain
//!   stores) and every access is a *yield point* that polls for
//!   revocation;
//! * when a higher-priority thread contends, the holder is preempted at
//!   its next yield point: its updates are rolled back newest-first, the
//!   monitor transfers to the high-priority thread, and the closure
//!   retries (Fig. 1 of the paper);
//! * deadlocks across monitors are detected on blocking and broken by
//!   revoking the lowest-priority cycle member;
//! * the JMM-consistency concerns of §2 are handled *statically*, by
//!   two properties together: [`TCell`]s are unreachable outside a
//!   `Tx`, and a [`Tx`] cannot leave the thread that entered the section
//!   (it is `!Send`: it borrows that thread's stamp and undo log, so
//!   every store through it is logged where the section's rollback will
//!   find it) — so speculative state cannot leak; the deliberate leak —
//!   Java `volatile` — exists as [`VolatileCell`], and writing one
//!   inside a section pins the section non-revocable, exactly the
//!   paper's rule;
//! * irrevocable effects ([`Tx::irrevocable`]) model native calls, and
//!   `wait`/`notify` are supported with the conservative §2.2 treatment.
//!
//! ## Quickstart
//!
//! ```
//! use revmon_core::Priority;
//! use revmon_locks::{RevocableMonitor, TCell};
//! use std::sync::Arc;
//!
//! let monitor = Arc::new(RevocableMonitor::new());
//! let counter = TCell::new(0i64);
//!
//! let handles: Vec<_> = (0..4)
//!     .map(|i| {
//!         let m = Arc::clone(&monitor);
//!         let c = counter.clone();
//!         let prio = if i == 0 { Priority::HIGH } else { Priority::LOW };
//!         std::thread::spawn(move || {
//!             for _ in 0..1_000 {
//!                 m.enter(prio, |tx| tx.update(&c, |v| v + 1));
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(counter.read_unsynchronized(), 4_000);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cell;
pub mod collections;
pub mod monitor;
pub mod obs;
mod registry;
mod sidetable;
mod signal;
pub mod stats;
pub mod tx;

pub use cell::{TCell, VolatileCell};
pub use monitor::{
    fat_record_high_water, fat_records_pooled, ArenaMonitor, MonitorArena, RevocableMonitor,
};
pub use registry::{aggregate_snapshot, wait_graph_snapshot, DEADLOCKS_BROKEN, DEADLOCKS_DETECTED};
pub use revmon_core::{InversionPolicy, Priority};
pub use stats::StatsSnapshot;
pub use tx::Tx;
