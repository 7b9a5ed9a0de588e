//! Execution probes: read-only hooks into the interpreter's shared-data
//! and monitor paths.
//!
//! A [`Probe`] lets an external oracle (the `revmon-explore` invariant
//! checker) observe every shared heap access, section entry, commit, and
//! rollback *as it happens*. Probes cannot mutate VM state; they exist to
//! check it. When no probe is attached the hooks cost one `Option` test.
//!
//! The two kinds of hook differ in what they are handed. The monitor
//! hooks (`on_section_enter`, `on_commit`, `on_rollback`) fire from the
//! slow paths in `sync`/`revoke` and get the whole VM to read. The heap
//! hooks (`on_heap_read`, `on_heap_write`) fire from inside the barrier
//! (`interp::Shared`), which both interpreter tiers call — `run_local`'s
//! fast loop while it holds the running frame and the heap borrowed
//! apart — so they get the access itself and no `&Vm`: everything an
//! oracle needs to mirror the write barrier is in the arguments.

use crate::heap::Location;
use crate::value::{ObjRef, Value};
use crate::vm::Vm;
use revmon_core::ThreadId;
use std::any::Any;

/// Read-only observer of VM execution events.
///
/// All hooks have empty default bodies so oracles implement only what
/// they need. Where a hook has a `&Vm` argument it is the machine state
/// *after* the event took effect.
#[allow(unused_variables)]
pub trait Probe: Any + Send {
    /// The probe as `Any` (implement as `{ self }`), so whoever attached
    /// it can downcast what [`Vm::detach_probe`] returns and take back
    /// the state the probe accumulated — owned by the probe during the
    /// run, with no shared handle for the hooks to lock.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;

    /// A synchronized section was entered (its record pushed): `tid` now
    /// holds `monitor` with fresh undo mark. The heap at this instant is
    /// the state a rollback of this section must restore.
    fn on_section_enter(&mut self, vm: &Vm, tid: ThreadId, monitor: ObjRef) {}

    /// A shared-heap word was written. `logged` is true when the write
    /// barrier's slow path logged the store — appended an undo entry for
    /// the word, or counted the store into the entry this section layer
    /// already holds for it.
    fn on_heap_write(
        &mut self,
        tid: ThreadId,
        loc: Location,
        old: Value,
        new: Value,
        logged: bool,
    ) {
    }

    /// A shared-heap word was read by `tid`.
    fn on_heap_read(&mut self, tid: ThreadId, loc: Location, value: Value) {}

    /// `tid`'s outermost section on `monitor` committed (undo log
    /// retired, updates now permanent).
    fn on_commit(&mut self, vm: &Vm, tid: ThreadId, monitor: ObjRef) {}

    /// `tid`'s section on `monitor` was rolled back; `entries` logged
    /// stores were undone (an undo entry stands for one or more). The VM state reflects the completed
    /// rollback (shared state restored, monitors released, control
    /// rewound).
    fn on_rollback(&mut self, vm: &Vm, tid: ThreadId, monitor: ObjRef, entries: u64) {}
}

impl Vm {
    /// Attach an execution probe (replacing any previous one).
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.probe = Some(probe);
    }

    /// Remove and return the attached probe, if any.
    pub fn detach_probe(&mut self) -> Option<Box<dyn Probe>> {
        self.probe.take()
    }

    /// Run `f` against the attached probe (if any) with the probe
    /// temporarily moved out, so it can borrow the whole VM immutably.
    #[inline]
    pub(crate) fn with_probe(&mut self, f: impl FnOnce(&mut dyn Probe, &Vm)) {
        if let Some(mut p) = self.probe.take() {
            f(&mut *p, self);
            self.probe = Some(p);
        }
    }
}
