//! # revmon-core — shared vocabulary for revocable monitors
//!
//! This crate holds the pieces shared between the deterministic VM
//! substrate (`revmon-vm`) and the real-OS-thread library
//! (`revmon-locks`) of the *revmon* reproduction of:
//!
//! > Adam Welc, Antony L. Hosking, Suresh Jagannathan.
//! > *Preemption-Based Avoidance of Priority Inversion for Java.*
//! > ICPP 2004.
//!
//! The paper's mechanism — **revocable monitors** — resolves priority
//! inversion by preempting a low-priority lock holder, rolling back the
//! shared-state updates it made inside the synchronized section (via a
//! sequential undo log filled by compiler-injected write barriers), and
//! re-executing the section after the high-priority thread has run.
//!
//! The shared pieces are:
//!
//! * [`priority`] — thread priorities and identifier newtypes,
//! * [`policy`]   — which priority-inversion strategy a monitor runs under
//!   (blocking, revocation, priority inheritance, priority ceiling) and how
//!   inversion is detected,
//! * [`undo`]     — the sequential undo log with per-section marks,
//! * [`queue`]    — prioritized monitor entry queues (FIFO within a
//!   priority class),
//! * [`deadlock`] — a waits-for graph with cycle detection and victim
//!   selection,
//! * [`cost`]     — the virtual-clock cost model used by the simulator,
//! * [`metrics`]  — counters and small statistics helpers (means,
//!   confidence intervals) used by the benchmark harness,
//! * [`fx`]       — the one fast hasher for maps keyed by ids the
//!   runtimes generate themselves, the one state-fingerprint hasher
//!   ([`FoldHasher`]), and the one stable content digest ([`fnv1a`]),
//! * [`governor`] — the revocation request verdict and the adaptive
//!   revocation governor (bounded retries, exponential backoff,
//!   per-monitor fallback to blocking),
//! * [`delegate`] — combiner handoff rules for delegated critical
//!   sections (the VM's `Delegate`/`Await` instructions).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cost;
pub mod deadlock;
pub mod delegate;
pub mod fx;
pub mod governor;
pub mod metrics;
pub mod policy;
pub mod priority;
pub mod queue;
pub mod undo;

pub use cost::CostModel;
pub use deadlock::{Victim, WaitsForGraph};
pub use delegate::DelegateConfig;
pub use fx::{fnv1a, FoldHasher, FxHasher, FxMap, FxSet};
pub use governor::{
    revocation_verdict, Governor, GovernorConfig, GovernorVerdict, RevocationVerdict,
};
pub use metrics::Metrics;
pub use policy::{DetectionStrategy, InversionPolicy, PolicyNameError, QueueDiscipline};
pub use priority::{MonitorId, Priority, ThreadId};
pub use queue::PrioritizedQueue;
pub use undo::{LogMark, UndoLog};
