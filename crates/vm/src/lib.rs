//! # revmon-vm — a deterministic green-thread VM with revocable monitors
//!
//! This crate is the substrate for reproducing
//!
//! > Adam Welc, Antony L. Hosking, Suresh Jagannathan.
//! > *Preemption-Based Avoidance of Priority Inversion for Java.*
//! > ICPP 2004.
//!
//! It stands in for IBM's Jikes RVM 2.2.1, the paper's implementation
//! vehicle: a Java-like virtual machine with
//!
//! * **pseudo-preemptive green threads** — context switches only at
//!   yield points (explicit yields, taken backward branches, method
//!   entries, monitor operations), scheduled round-robin on a virtual
//!   uniprocessor clock;
//! * **monitors on every object**, with prioritized entry queues;
//! * a **mini bytecode ISA** covering exactly what the paper's technique
//!   manipulates: operand stack + locals, the three store kinds that get
//!   write barriers, `monitorenter`/`monitorexit`, exception scopes with
//!   `finally`, `wait`/`notify`, volatile slots, and irrevocable native
//!   calls;
//! * the **rewrite pass** (§3.1.1): synchronized-method wrapping,
//!   injected `SaveState` before each section's `monitorenter`, and
//!   injected rollback handlers;
//! * **revocable monitors** (§1.1, §3.1.2): write-barrier undo logging,
//!   priority-inversion detection at acquisition (or in the background),
//!   rollback at the next yield point with monitors released only after
//!   shared state is restored;
//! * the **JMM-consistency guard** (§2.2): sections whose speculative
//!   updates were observed by another thread become non-revocable, as do
//!   sections containing native calls or nested `wait`s;
//! * **deadlock detection and resolution** by victim revocation;
//! * baselines: plain blocking, priority inheritance (transitive), and
//!   priority ceiling, plus a priority-preemptive scheduler for
//!   ablations.
//!
//! ## Quick example
//!
//! ```
//! use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
//! use revmon_vm::{Vm, VmConfig};
//! use revmon_core::Priority;
//! use revmon_vm::value::Value;
//!
//! // static0 += 1, done inside `synchronized (arg0) { … }`
//! let mut pb = ProgramBuilder::new();
//! pb.statics(1);
//! let run = pb.declare_method("run", 1);
//! let mut b = MethodBuilder::new(1, 1);
//! b.sync_on_local(0, |b| {
//!     b.get_static(0);
//!     b.const_i(1);
//!     b.add();
//!     b.put_static(0);
//! });
//! b.ret_void();
//! pb.implement(run, b);
//!
//! let mut vm = Vm::new(pb.finish(), VmConfig::modified());
//! let lock = vm.heap_mut().alloc(0, 0);
//! for i in 0..4 {
//!     let prio = if i == 0 { Priority::HIGH } else { Priority::LOW };
//!     vm.spawn(&format!("t{i}"), run, vec![Value::Ref(lock)], prio);
//! }
//! let report = vm.run().unwrap();
//! assert_eq!(vm.read_static(0).unwrap(), Value::Int(4));
//! assert!(report.clock > 0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod asm;
pub mod builder;
pub mod bytecode;
pub mod disasm;
pub mod error;
mod fingerprint;
pub mod heap;
pub mod interp;
#[cfg(test)]
mod interp_parity;
pub mod jmm;
pub mod monitor;
pub mod probe;
mod revoke;
pub mod rewrite;
pub mod sched;
mod sync;
pub mod thread;
pub mod value;
pub mod verify;
pub mod vm;

pub use analysis::{analyze, ElisionTable};
pub use asm::{assemble, AsmError};
pub use disasm::{disassemble, disassemble_method};
pub use error::VmError;
pub use interp::{ARITH_TAG, NPE_TAG, OOB_TAG, OOM_TAG};
pub use probe::Probe;
pub use rewrite::rewrite_program;
pub use sched::{
    Candidate, DecisionRecord, SchedContext, SchedulePolicy, SchedulerKind, Scripted,
    DEFAULT_CHOICE,
};
pub use verify::{verify_program, VerifyError};
pub use vm::{MonitorReport, PreparedProgram, RoundOutcome, RunReport, ThreadReport, Vm, VmConfig};
