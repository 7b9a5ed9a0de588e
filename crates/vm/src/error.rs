//! VM faults.

use crate::heap::HeapError;
use crate::value::ValueError;
use revmon_core::ThreadId;
use std::fmt;

/// A fault that stops the whole VM. Program-level exceptions (including
/// null dereferences and bounds errors) are *not* `VmError`s — they throw
/// Java-style exceptions inside the program; only an uncaught one
/// terminates its thread (recorded in the thread's report).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// Heap fault the VM itself could not turn into a program exception
    /// (e.g. dangling internal reference — a VM bug).
    Heap(HeapError),
    /// Operand-stack underflow (malformed program).
    StackUnderflow {
        /// Method name.
        method: String,
        /// Faulting pc.
        pc: u32,
    },
    /// pc ran off the end of a method (missing return).
    BadPc {
        /// Method name.
        method: String,
        /// Faulting pc.
        pc: u32,
    },
    /// Monitor protocol violation (exit without enter, wait without
    /// ownership, unstructured section nesting).
    IllegalMonitorState(&'static str),
    /// The configured `max_steps` instruction budget was exhausted —
    /// the safety net against runaway programs.
    StepLimit(u64),
    /// No thread can make progress: every live thread is blocked and no
    /// sleeper exists. Contains the blocked threads (an unbroken deadlock
    /// or a lost wakeup).
    Stalled(Vec<ThreadId>),
    /// Value-level type confusion (malformed program).
    Value {
        /// Method name.
        method: String,
        /// Faulting pc.
        pc: u32,
        /// What was wrong with the value.
        error: ValueError,
    },
    /// Internal invariant violation; the payload describes it.
    Internal(&'static str),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Heap(e) => write!(f, "heap fault: {e}"),
            VmError::StackUnderflow { method, pc } => {
                write!(f, "operand stack underflow in {method} at pc {pc}")
            }
            VmError::BadPc { method, pc } => {
                write!(f, "pc {pc} out of bounds in {method} (missing return?)")
            }
            VmError::IllegalMonitorState(what) => write!(f, "illegal monitor state: {what}"),
            VmError::StepLimit(n) => write!(f, "step limit of {n} instructions exhausted"),
            VmError::Stalled(ts) => write!(f, "no runnable threads; blocked: {ts:?}"),
            VmError::Value { method, pc, error } => {
                write!(f, "value fault in {method} at pc {pc}: {error}")
            }
            VmError::Internal(what) => write!(f, "internal VM invariant violated: {what}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<HeapError> for VmError {
    fn from(e: HeapError) -> Self {
        VmError::Heap(e)
    }
}
