//! The invariant catalog and the rollback oracle.
//!
//! Two layers of checking run during exploration:
//!
//! * **State invariants** ([`check_state`] / [`check_terminal`]) inspect
//!   the VM between scheduling rounds: monitor-header legality,
//!   prioritized entry-queue well-formedness, priority-boost sanity, and
//!   — at terminal states — that every undo log has been drained and no
//!   speculative write survives.
//! * **The [`Oracle`]** rides along as an execution [`Probe`], mirroring
//!   the write barrier: it snapshots the first-overwritten value of every
//!   location logged under each active section and, when a rollback
//!   completes, verifies the heap actually reads those pre-section values
//!   again (the paper's §3.1.2 claim that the undo log restores *"the
//!   (old) value itself"*). It also mirrors the speculative-write stamps
//!   to prove the JMM guard's soundness end to end: a value observed by
//!   another thread must never be rolled back (§2.2, Figs. 2–3). The
//!   oracle owns its state while the VM runs and hands it back when
//!   detached ([`Oracle::detach`]). It shadows the heap word by word, by
//!   the indices the access carries, so a hook costs a few indexed
//!   updates — no hash and no lock.
//!
//! Every violated check becomes a [`Violation`] with a stable name, so
//! schedule artifacts can assert "this schedule reproduces *that* bug".

use revmon_core::{FxMap, ThreadId};
use revmon_vm::heap::Location;
use revmon_vm::thread::ThreadState;
use revmon_vm::value::{ObjRef, Value};
use revmon_vm::{Probe, Vm};
use std::any::Any;

/// A broken invariant, with a stable machine-readable name and a
/// human-readable account of what was observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name (e.g. `rollback-restoration`).
    pub invariant: &'static str,
    /// What exactly went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Invariants checkable on any reachable state (between rounds).
pub fn check_state(vm: &Vm) -> Vec<Violation> {
    let mut v = Vec::new();
    let threads = vm.vm_threads();

    // No lost IPI: every cross-core revocation request ever posted is
    // either already acknowledged or still sitting in exactly one core
    // mailbox awaiting delivery. A posted-but-neither state would mean a
    // revocation request silently vanished in the revoker→victim
    // handshake.
    if vm.ipis_posted() != vm.ipis_acked() + vm.ipis_pending() as u64 {
        v.push(Violation {
            invariant: "no-lost-ipi",
            detail: format!(
                "{} IPIs posted but {} acked + {} pending",
                vm.ipis_posted(),
                vm.ipis_acked(),
                vm.ipis_pending()
            ),
        });
    }

    // Bounded revocation (no livelock by repeat-revocation): under an
    // enabled governor with retry budget `k`, no `(monitor, holder)`
    // pair's consecutive-revocation streak may ever exceed `k` — the
    // consult that would start revocation `k + 1` must have answered
    // `Fallback`, sending the contender to the prioritized entry queue.
    let gov = vm.config().governor;
    if gov.enabled() {
        let streak = vm.governor().max_streak();
        if streak > gov.k {
            v.push(Violation {
                invariant: "bounded-revocation",
                detail: format!(
                    "revocation streak {streak} exceeds the governor budget k={}",
                    gov.k
                ),
            });
        }
    }

    for (obj, m) in vm.monitor_table().iter() {
        // Monitor-header state machine: owner and recursion move together.
        match m.owner {
            None => {
                if m.recursion != 0 {
                    v.push(Violation {
                        invariant: "monitor-header",
                        detail: format!("{obj}: unowned but recursion={}", m.recursion),
                    });
                }
            }
            Some(owner) => {
                if m.recursion == 0 {
                    v.push(Violation {
                        invariant: "monitor-header",
                        detail: format!("{obj}: owned by {owner:?} with recursion=0"),
                    });
                }
                let t = &threads[owner.index()];
                if !t.held.contains(obj) {
                    v.push(Violation {
                        invariant: "monitor-header",
                        detail: format!("{obj}: owner {owner:?} does not list it as held"),
                    });
                }
                if matches!(t.state, ThreadState::BlockedEnter(b) if b == *obj) {
                    v.push(Violation {
                        invariant: "monitor-header",
                        detail: format!("{obj}: owner {owner:?} is blocked entering it"),
                    });
                }
            }
        }

        // Entry-queue well-formedness: internal order intact, no queued
        // owner, every queued thread really is suspended on this monitor.
        if !m.queue.is_well_formed() {
            v.push(Violation {
                invariant: "entry-queue",
                detail: format!("{obj}: arrival sequence numbers out of order"),
            });
        }
        for (&tid, _prio) in m.queue.iter_entries() {
            if m.owner == Some(tid) {
                v.push(Violation {
                    invariant: "entry-queue",
                    detail: format!("{obj}: owner {tid:?} is also queued"),
                });
            }
            let ok = matches!(
                threads[tid.index()].state,
                ThreadState::BlockedEnter(b) | ThreadState::BlockedReacquire(b) if b == *obj
            );
            if !ok {
                v.push(Violation {
                    invariant: "entry-queue",
                    detail: format!(
                        "{obj}: queued thread {tid:?} is in state {:?}",
                        threads[tid.index()].state
                    ),
                });
            }
        }
        for &tid in &m.wait_set {
            if !matches!(threads[tid.index()].state, ThreadState::Waiting(w) if w == *obj) {
                v.push(Violation {
                    invariant: "wait-set",
                    detail: format!(
                        "{obj}: wait-set thread {tid:?} is in state {:?}",
                        threads[tid.index()].state
                    ),
                });
            }
        }

        // Combiner queue: submissions exist only while someone holds the
        // monitor — every release drains (or hands the queue to a
        // granted waiter, which sets the owner synchronously), so an
        // unowned monitor with queued submissions is a stranded one.
        if !m.submissions.is_empty() && m.owner.is_none() {
            v.push(Violation {
                invariant: "combiner-queue",
                detail: format!(
                    "{obj}: {} submissions queued with no owner to drain them",
                    m.submissions.len()
                ),
            });
        }
    }

    for t in threads {
        // A thread parked on a delegation token must await a minted one.
        if let ThreadState::AwaitingDelegation(tok) = t.state {
            if tok >= vm.delegation_tokens() {
                v.push(Violation {
                    invariant: "combiner-queue",
                    detail: format!("{:?} awaits unminted delegation token {tok}", t.id),
                });
            }
        }
        // Priority boosts only ever raise a thread above its base.
        if t.effective_priority < t.base_priority {
            v.push(Violation {
                invariant: "priority-boost",
                detail: format!(
                    "{:?}: effective {:?} below base {:?}",
                    t.id, t.effective_priority, t.base_priority
                ),
            });
        }
        // Every held monitor agrees it is held.
        for &obj in &t.held {
            if vm.monitor_table().get(obj).map(|m| m.owner) != Some(Some(t.id)) {
                v.push(Violation {
                    invariant: "monitor-header",
                    detail: format!("{:?} lists {obj} as held but is not its owner", t.id),
                });
            }
        }
        // Sections and undo logs exist only while the thread is alive.
        if t.is_terminated() && (!t.sections.is_empty() || !t.undo.is_empty()) {
            v.push(Violation {
                invariant: "undo-drained",
                detail: format!(
                    "{:?} terminated with {} live sections, {} undo entries",
                    t.id,
                    t.sections.len(),
                    t.undo.len()
                ),
            });
        }
    }
    v
}

/// Invariants that must hold once every thread has terminated: all
/// shared-state speculation fully resolved.
pub fn check_terminal(vm: &Vm) -> Vec<Violation> {
    let mut v = check_state(vm);
    for t in vm.vm_threads() {
        if !t.is_terminated() {
            return v; // not a terminal state; only the general checks apply
        }
    }
    if vm.heap().speculative_len() != 0 {
        v.push(Violation {
            invariant: "jmm-drained",
            detail: format!(
                "{} speculative writes live after all threads terminated: {:?}",
                vm.heap().speculative_len(),
                vm.heap().speculative_writes().collect::<Vec<_>>()
            ),
        });
    }
    for (obj, m) in vm.monitor_table().iter() {
        if m.owner.is_some() || !m.queue.is_empty() || !m.wait_set.is_empty() {
            v.push(Violation {
                invariant: "monitor-drained",
                detail: format!(
                    "{obj}: owner {:?}, {} queued, {} waiting at termination",
                    m.owner,
                    m.queue.len(),
                    m.wait_set.len()
                ),
            });
        }
    }
    // Revoke-ack liveness: every posted IPI has been delivered and
    // acknowledged by the time all threads terminate — no request may be
    // stranded in a core mailbox. (The VM only declares a run done after
    // a full core scan, which drains every mailbox first, so a pending
    // IPI here means the handshake lost liveness.)
    if vm.ipis_pending() != 0 {
        v.push(Violation {
            invariant: "revoke-ack-liveness",
            detail: format!(
                "{} IPIs still undelivered after all threads terminated",
                vm.ipis_pending()
            ),
        });
    }
    // Exactly-once liveness: every submitted section has executed by the
    // time all threads terminate — no submission may be stranded in a
    // combiner queue.
    if vm.delegations_pending() != 0 {
        v.push(Violation {
            invariant: "delegation-drained",
            detail: format!(
                "{} delegated submissions still queued after all threads terminated",
                vm.delegations_pending()
            ),
        });
    }
    v
}

/// One mirrored section layer: the undo-log length at entry, a serial no
/// other layer shares, and the first-overwritten (pre-section) value of
/// every location logged while it was the innermost *recorded* layer, in
/// write order.
#[derive(Debug)]
struct Layer {
    mark_len: usize,
    serial: u64,
    expected: Vec<(Location, Value)>,
}

/// The oracle's shadow of one heap word.
#[derive(Clone, Copy, Debug, Default)]
struct Word {
    /// Mirror of the word's speculative-write stamp: writer, value, and
    /// whether a *different* thread has observed the value.
    speculative: Option<(ThreadId, Value, bool)>,
    /// Serial of the last layer that recorded this word (0: none has), so
    /// a repeat write under the same layer costs one compare.
    serial: u64,
}

/// A shadow heap shaped like [`revmon_vm::heap::Heap`]: one [`Word`] per
/// static and per object slot, reached by the indices the access itself
/// carries and grown on the first logged write past its end.
#[derive(Debug, Default)]
struct Shadow {
    statics: Vec<Word>,
    objects: Vec<Vec<Word>>,
}

impl Shadow {
    fn get_mut(&mut self, loc: Location) -> Option<&mut Word> {
        match loc {
            Location::Static(s) => self.statics.get_mut(s as usize),
            Location::Obj(r, off) => self.objects.get_mut(r.index())?.get_mut(off as usize),
        }
    }

    fn grow(&mut self, loc: Location) -> &mut Word {
        fn at(words: &mut Vec<Word>, i: usize) -> &mut Word {
            if words.len() <= i {
                words.resize(i + 1, Word::default());
            }
            &mut words[i]
        }
        match loc {
            Location::Static(s) => at(&mut self.statics, s as usize),
            Location::Obj(r, off) => {
                if self.objects.len() <= r.index() {
                    self.objects.resize_with(r.index() + 1, Vec::new);
                }
                at(&mut self.objects[r.index()], off as usize)
            }
        }
    }

    /// Drop `loc`'s speculative entry if `tid` made it, returning its
    /// value and whether another thread had observed it.
    fn clear(&mut self, loc: Location, tid: ThreadId) -> Option<(Value, bool)> {
        let word = self.get_mut(loc)?;
        match word.speculative {
            Some((writer, value, seen)) if writer == tid => {
                word.speculative = None;
                Some((value, seen))
            }
            _ => None,
        }
    }
}

/// What the oracle has seen and concluded. The [`Oracle`] owns it for
/// the length of a run — its hooks are plain field updates, no lock —
/// and [`Oracle::detach`] hands it back by value afterwards.
#[derive(Debug, Default)]
pub struct OracleState {
    /// Violations detected by the probe hooks.
    pub violations: Vec<Violation>,
    /// Rollbacks the oracle verified.
    pub rollbacks_checked: u64,
    /// Commits observed.
    pub commits: u64,
    /// Mirror of each thread's active section layers, indexed by
    /// `ThreadId`.
    layers: Vec<Vec<Layer>>,
    /// Mirror of the speculative-write stamps, word by word.
    shadow: Shadow,
    /// Serial of the newest layer; serials start at 1.
    serial: u64,
}

impl OracleState {
    /// `tid`'s layer stack, grown on a thread's first section.
    fn layers_of(&mut self, tid: ThreadId) -> &mut Vec<Layer> {
        if self.layers.len() <= tid.index() {
            self.layers.resize_with(tid.index() + 1, Vec::new);
        }
        &mut self.layers[tid.index()]
    }

    /// A fresh layer at undo-log length `mark_len`.
    fn layer(&mut self, mark_len: usize) -> Layer {
        self.serial += 1;
        Layer { mark_len, serial: self.serial, expected: Vec::new() }
    }
}

/// The execution probe that mirrors the write barrier and verifies
/// rollbacks. Hand a fresh one to [`Vm::attach_probe`]; when the run is
/// over, [`Oracle::detach`] takes it off the VM and returns its findings.
#[derive(Debug, Default)]
pub struct Oracle {
    state: OracleState,
}

impl Oracle {
    /// A fresh oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Detach `vm`'s probe and return its state, or `None` if the probe
    /// attached to `vm` is not an `Oracle` (or there is none).
    pub fn detach(vm: &mut Vm) -> Option<OracleState> {
        let oracle = vm.detach_probe()?.into_any().downcast::<Oracle>().ok()?;
        Some(oracle.state)
    }
}

impl Probe for Oracle {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn on_section_enter(&mut self, vm: &Vm, tid: ThreadId, _monitor: ObjRef) {
        let mark_len = vm.vm_threads()[tid.index()].undo.len();
        let layer = self.state.layer(mark_len);
        self.state.layers_of(tid).push(layer);
    }

    fn on_heap_write(
        &mut self,
        tid: ThreadId,
        loc: Location,
        old: Value,
        new: Value,
        logged: bool,
    ) {
        if !logged {
            // Unlogged writes happen only outside synchronized sections,
            // where the writer cannot have live speculative entries.
            return;
        }
        let st = &mut self.state;
        let word = st.shadow.grow(loc);
        if let Some(top) = st.layers.get_mut(tid.index()).and_then(|layers| layers.last_mut()) {
            // The first write under this layer keeps its pre-value.
            if word.serial != top.serial {
                word.serial = top.serial;
                top.expected.push((loc, old));
            }
        }
        word.speculative = Some((tid, new, false));
    }

    fn on_heap_read(&mut self, tid: ThreadId, loc: Location, value: Value) {
        if let Some(Word { speculative: Some((writer, v, seen)), .. }) =
            self.state.shadow.get_mut(loc)
        {
            if *writer != tid && *v == value {
                *seen = true; // a foreign thread observed the speculation
            }
        }
    }

    fn on_commit(&mut self, vm: &Vm, tid: ThreadId, _monitor: ObjRef) {
        let st = &mut self.state;
        st.commits += 1;
        // A word whose live speculation is `tid`'s is on one of its layers'
        // lists: walk those, not the heap.
        let layers = std::mem::take(st.layers_of(tid));
        for &(loc, _) in layers.iter().flat_map(|l| &l.expected) {
            st.shadow.clear(loc, tid);
        }
        // The VM retired the whole log at outermost exit; double-check.
        if !vm.vm_threads()[tid.index()].undo.is_empty() {
            st.violations.push(Violation {
                invariant: "undo-drained",
                detail: format!("{tid:?}: undo log not empty after outermost commit"),
            });
        }
    }

    fn on_rollback(&mut self, vm: &Vm, tid: ThreadId, monitor: ObjRef, _entries: u64) {
        let st = &mut self.state;
        st.rollbacks_checked += 1;
        // Everything past the post-rollback log length was undone.
        let restored_to = vm.vm_threads()[tid.index()].undo.len();
        let layers = std::mem::take(st.layers_of(tid));
        let (mut kept, undone): (Vec<Layer>, Vec<Layer>) =
            layers.into_iter().partition(|l| l.mark_len < restored_to);

        // Merge expectations outermost-first: the value a location must
        // read after rollback is the *oldest* logged pre-value. A layer
        // lists a location twice only when something else recorded the
        // word in between (another thread, or an inner layer since rolled
        // back); its first entry is still the older value, so the first
        // entry wins here too.
        let mut expected: FxMap<Location, Value> = FxMap::default();
        for &(loc, old) in undone.iter().flat_map(|l| &l.expected) {
            expected.entry(loc).or_insert(old);
        }
        for (loc, want) in &expected {
            match vm.heap().read(*loc) {
                Ok(got) if got == *want => {}
                Ok(got) => st.violations.push(Violation {
                    invariant: "rollback-restoration",
                    detail: format!(
                        "{tid:?} rolled back {monitor}: {loc:?} reads {got}, expected pre-section value {want}"
                    ),
                }),
                Err(e) => st.violations.push(Violation {
                    invariant: "rollback-restoration",
                    detail: format!("{tid:?} rolled back {monitor}: {loc:?} unreadable: {e}"),
                }),
            }
        }

        // JMM soundness: none of the undone writes may have been observed
        // by another thread while speculative.
        for &loc in expected.keys() {
            if let Some((val, true)) = st.shadow.clear(loc, tid) {
                st.violations.push(Violation {
                    invariant: "jmm-observed-write-revoked",
                    detail: format!(
                        "{tid:?} rolled back {monitor}: speculative value {val} at {loc:?} had been observed by another thread"
                    ),
                });
            }
        }

        // The surviving (post-wait restart) section, if any, starts a
        // fresh expectation layer at the restored log length.
        let live_sections = vm.vm_threads()[tid.index()].sections.len();
        while kept.len() < live_sections {
            kept.push(st.layer(restored_to));
        }
        *st.layers_of(tid) = kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmon_core::Priority;
    use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
    use revmon_vm::VmConfig;

    /// Run `program`, its threads started by `spawn`, under an oracle
    /// and hand back what it found.
    fn run_with_oracle(
        program: revmon_vm::bytecode::Program,
        fault_skip: u32,
        spawn: impl FnOnce(&mut Vm),
    ) -> (OracleState, Vm) {
        let mut cfg = VmConfig::modified();
        cfg.fault_skip_undo = fault_skip;
        let mut vm = Vm::new(program, cfg);
        spawn(&mut vm);
        vm.attach_probe(Box::new(Oracle::new()));
        vm.run().expect("run completes");
        let state = Oracle::detach(&mut vm).expect("the oracle attached above");
        (state, vm)
    }

    fn run_inversion(fault_skip: u32) -> (OracleState, Vm) {
        // A low thread holds the lock through long work; a high thread
        // arrives and revokes it. The section bumps two statics so a
        // skipped restore is observable.
        let mut pb = ProgramBuilder::new();
        pb.statics(2);
        let worker = pb.declare_method("worker", 1);
        let mut b = MethodBuilder::new(1, 1);
        b.sync_on_local(0, |b| {
            b.add_static(0, 1);
            b.add_static(1, 10);
            b.const_i(60_000);
            b.work();
        });
        b.ret_void();
        pb.implement(worker, b);
        run_with_oracle(pb.finish(), fault_skip, |vm| {
            let lock = vm.heap_mut().alloc(0, 0);
            vm.spawn("low", worker, vec![Value::Ref(lock)], Priority::LOW);
            vm.spawn("high", worker, vec![Value::Ref(lock)], Priority::HIGH);
        })
    }

    #[test]
    fn correct_rollback_passes_the_oracle() {
        let (st, mut vm) = run_inversion(0);
        assert!(st.rollbacks_checked > 0, "scenario must actually revoke");
        assert!(st.commits >= 2, "both workers commit");
        assert!(st.violations.is_empty(), "violations: {:?}", st.violations);
        assert!(check_terminal(&vm).is_empty());
        assert!(Oracle::detach(&mut vm).is_none(), "the state is handed back once");
    }

    #[test]
    fn injected_rollback_fault_is_caught() {
        let (st, _vm) = run_inversion(1);
        assert!(
            st.violations.iter().any(|v| v.invariant == "rollback-restoration"),
            "fault not caught: {:?}",
            st.violations
        );
    }

    /// low(a, b): sync a { s0 += 1; sync b { 5000 × { s1 += 1; s0 += 100 } } }
    /// high(b):   sleep; sync b { read s1 }
    ///
    /// `high` revokes only low's *inner* section. The rollback must put
    /// `s0` back to 1 — the outer section's own speculative value, which
    /// only the inner layer's expectation holds; the outer layer's
    /// pre-value for `s0` (`Null`) must stay out of the merge.
    fn run_nested_inversion(fault_skip: u32) -> (OracleState, Vm) {
        let mut pb = ProgramBuilder::new();
        pb.statics(2);
        let low = pb.declare_method("low", 2);
        let mut b = MethodBuilder::new(2, 3);
        b.sync_on_local(0, |b| {
            b.add_static(0, 1);
            b.sync_on_local(1, |b| {
                b.repeat(2, 5_000, |b| {
                    b.add_static(1, 1);
                    b.add_static(0, 100);
                });
            });
        });
        b.ret_void();
        pb.implement(low, b);
        let high = pb.declare_method("high", 1);
        let mut h = MethodBuilder::new(1, 1);
        h.const_i(30_000);
        h.sleep();
        h.sync_on_local(0, |b| {
            b.get_static(1);
            b.pop();
        });
        h.ret_void();
        pb.implement(high, h);
        run_with_oracle(pb.finish(), fault_skip, |vm| {
            let a = vm.heap_mut().alloc(0, 0);
            let b = vm.heap_mut().alloc(0, 0);
            vm.spawn("low", low, vec![Value::Ref(a), Value::Ref(b)], Priority::LOW);
            vm.spawn("high", high, vec![Value::Ref(b)], Priority::HIGH);
        })
    }

    #[test]
    fn inner_rollback_is_checked_against_the_inner_layer_only() {
        let (st, vm) = run_nested_inversion(0);
        assert!(st.rollbacks_checked > 0, "the inner section must be revoked");
        assert!(st.violations.is_empty(), "violations: {:?}", st.violations);
        assert_eq!(vm.heap().read(Location::Static(0)).unwrap(), Value::Int(500_001));
        assert!(check_terminal(&vm).is_empty());
    }

    #[test]
    fn skipped_restores_in_a_nested_rollback_name_the_inner_pre_values() {
        // Skip every restore (skipping only the newest is masked by the
        // older entries of the same word): both statics keep their
        // speculative values where the inner layer expects 1 and `Null`.
        let (st, _vm) = run_nested_inversion(u32::MAX);
        let mut restoration: Vec<&str> = st
            .violations
            .iter()
            .filter(|v| v.invariant == "rollback-restoration")
            .map(|v| v.detail.as_str())
            .collect();
        restoration.sort_unstable();
        assert_eq!(restoration.len(), 2, "violations: {:?}", st.violations);
        assert!(
            restoration[0].contains("Static(0)") && restoration[0].ends_with("value 1"),
            "s0 must be checked against the outer section's speculative 1: {}",
            restoration[0]
        );
        assert!(
            restoration[1].contains("Static(1)") && restoration[1].ends_with("value null"),
            "{}",
            restoration[1]
        );
    }

    #[test]
    fn clean_vm_state_has_no_violations() {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let main = pb.declare_method("main", 0);
        let mut b = MethodBuilder::new(0, 0);
        b.const_i(1);
        b.put_static(0);
        b.ret_void();
        pb.implement(main, b);
        let mut vm = Vm::new(pb.finish(), VmConfig::modified());
        vm.spawn("main", main, vec![], Priority::NORM);
        assert!(check_state(&vm).is_empty());
        vm.run().unwrap();
        assert!(check_terminal(&vm).is_empty());
    }
}
