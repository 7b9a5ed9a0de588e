//! Execution probes: read-only hooks into the interpreter's shared-data
//! and monitor paths.
//!
//! A [`Probe`] lets an external oracle (the `revmon-explore` invariant
//! checker) observe every shared heap access, section entry, commit, and
//! rollback *as it happens*, with full read access to the VM at each
//! hook. Probes cannot mutate VM state; they exist to check it. When no
//! probe is attached the hooks cost one `Option` test.

use crate::heap::Location;
use crate::value::{ObjRef, Value};
use crate::vm::Vm;
use revmon_core::ThreadId;
use std::any::Any;

/// Read-only observer of VM execution events.
///
/// All hooks have empty default bodies so oracles implement only what
/// they need. The `&Vm` argument is the machine state *after* the event
/// took effect.
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
    /// barrier's slow path appended an undo entry for it.
    fn on_heap_write(
        &mut self,
        vm: &Vm,
        tid: ThreadId,
        loc: Location,
        old: Value,
        new: Value,
        logged: bool,
    ) {
    }

    /// A shared-heap word was read by `tid`.
    fn on_heap_read(&mut self, vm: &Vm, tid: ThreadId, loc: Location, value: Value) {}

    /// `tid`'s outermost section on `monitor` committed (undo log
    /// retired, updates now permanent).
    fn on_commit(&mut self, vm: &Vm, tid: ThreadId, monitor: ObjRef) {}

    /// `tid`'s section on `monitor` was rolled back; `entries` undo
    /// entries were restored. The VM state reflects the completed
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
