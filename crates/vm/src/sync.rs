//! Monitor operations: enter/exit, wait/notify, priority protocols,
//! deadlock detection hooks.
//!
//! Uncontended acquisition deposits the acquirer's priority in the
//! monitor header (§4). Contended acquisition consults the configured
//! [`InversionPolicy`]: blocking does nothing; revocation compares
//! priorities and flags the holder (see `revoke.rs`); priority
//! inheritance boosts the holder chain; the ceiling protocol boosts at
//! acquisition instead. Monitor release hands ownership directly to the
//! next queued waiter (transfer semantics), so a freshly-revoked
//! low-priority thread re-running its `MonitorEnter` necessarily queues
//! *behind* the high-priority thread that evicted it — the behaviour in
//! Fig. 1(d–f).

use crate::bytecode::MethodId;
use crate::error::VmError;
use crate::monitor::DelegatedCall;
use crate::thread::{DelegatedFrame, Frame, Section, Snapshot, ThreadState};
use crate::value::{ObjRef, Value};
use crate::vm::Vm;
use revmon_core::ThreadId;
use revmon_core::{InversionPolicy, LogMark, MonitorId, Priority, Victim};
use revmon_obs::{Event, EventKind};

impl Vm {
    /// `monitorenter` on `obj` by `tid`. Returns whether the monitor was
    /// acquired (false = the thread blocked on the entry queue).
    pub(crate) fn monitor_enter(&mut self, tid: ThreadId, obj: ObjRef) -> Result<bool, VmError> {
        self.charge(self.config.cost.monitor_op);
        let eff = self.thread(tid).effective_priority;
        let owner = self.monitors.get_mut(obj).owner;
        match owner {
            Some(o) if o == tid => {
                // Reentrant acquisition.
                {
                    let m = self.monitors.get_mut(obj);
                    m.recursion += 1;
                    m.acquires += 1;
                }
                self.thread_mut(tid).metrics.monitor_acquires += 1;
                self.push_section(tid, obj);
                self.emit(tid, obj, EventKind::Acquire);
                Ok(true)
            }
            None => {
                self.take_monitor(tid, obj, 1, true);
                Ok(true)
            }
            Some(owner) => {
                self.thread_mut(tid).metrics.contended_acquires += 1;
                let holder_prio = self.monitors.get(obj).expect("exists").holder_priority;
                // Queue *first*, so that if an immediate revocation below
                // frees the monitor, the release handoff grants it to this
                // (highest-priority-waiting) requester — the paper's
                // sequence in Fig. 1(d–e).
                {
                    let m = self.monitors.get_mut(obj);
                    m.queue.push(tid, eff);
                    m.contended += 1;
                    m.peak_queue = m.peak_queue.max(m.queue.len());
                }
                self.thread_mut(tid).state = ThreadState::BlockedEnter(obj);
                self.graph.add_wait(tid, MonitorId(obj.0), owner);
                self.emit(tid, obj, EventKind::Block);
                match self.config.policy {
                    InversionPolicy::Blocking | InversionPolicy::PriorityCeiling(_) => {}
                    InversionPolicy::Revocation => {
                        // fault_force_inversion (test-only) treats every
                        // contended acquire as an inversion, forcing the
                        // pathological repeat-revocation the governor
                        // exists to bound.
                        if eff > holder_prio || self.config.fault_force_inversion {
                            self.thread_mut(tid).metrics.inversions_detected += 1;
                            if matches!(
                                self.config.detection,
                                revmon_core::DetectionStrategy::AtAcquisition
                            ) {
                                self.request_revocation(tid, owner, obj)?;
                            }
                        }
                    }
                    InversionPolicy::PriorityInheritance => {
                        if eff > holder_prio {
                            self.thread_mut(tid).metrics.inversions_detected += 1;
                        }
                        self.boost_chain(owner, eff);
                    }
                }
                // The immediate-revocation path may already have granted
                // the monitor to this thread (it becomes Ready with the
                // monitor owned); otherwise check for deadlock.
                if self.thread(tid).state == ThreadState::BlockedEnter(obj) {
                    self.deadlock_check_from(tid)?;
                }
                Ok(false)
            }
        }
    }

    /// Record the new active section for an acquisition that just
    /// succeeded (the `MonitorEnter` already advanced the pc).
    pub(crate) fn push_section(&mut self, tid: ThreadId, obj: ObjRef) {
        let (mid, enter_pc, depth) = {
            let t = self.thread(tid);
            let f = t.frame();
            (f.method, f.pc - 1, t.frames.len() - 1)
        };
        let region = self.program.methods[mid.index()]
            .sync_regions
            .iter()
            .find(|r| r.enter == enter_pc)
            .map(|r| (r.enter, r.exit));
        let acq_id = self.next_acq_id;
        self.next_acq_id += 1;
        let t = self.thread_mut(tid);
        let snapshot = t.pending_snapshot.take();
        let mark = t.undo.mark();
        t.sections.push(Section {
            monitor: obj,
            acq_id,
            mark,
            frame_depth: depth,
            snapshot,
            revocable: true,
            region,
        });
        self.with_probe(|p, vm| p.on_section_enter(vm, tid, obj));
    }

    /// Retire `tid`'s undo entries since `mark` — they can no longer be
    /// revoked — dropping the stamp each one set.
    fn commit_log(&mut self, tid: ThreadId, mark: LogMark) {
        let log = &mut self.threads[tid.index()].undo;
        for e in log.since(mark) {
            self.heap.clear_speculative(e.loc, tid);
        }
        log.commit_to(mark);
    }

    /// Pop the innermost section (must be on `obj`), commit the undo log
    /// if it was the outermost, and release one recursion level. Shared
    /// by `MonitorExit` and user-exception unwinding.
    pub(crate) fn exit_section_common(
        &mut self,
        tid: ThreadId,
        obj: ObjRef,
    ) -> Result<(), VmError> {
        let Some(top) = self.thread(tid).sections.last() else {
            return Err(VmError::IllegalMonitorState("monitorexit without an active section"));
        };
        if top.monitor != obj {
            return Err(VmError::IllegalMonitorState("unstructured monitorexit"));
        }
        let sec = self.thread_mut(tid).sections.pop().expect("checked");
        if self.thread(tid).sections.is_empty() {
            // Outermost exit: updates can no longer be revoked.
            self.commit_log(tid, sec.mark);
            self.emit(tid, obj, EventKind::Commit);
            self.with_probe(|p, vm| p.on_commit(vm, tid, obj));
            self.governor.record_commit(obj.0 as u64, tid.0 as u64, self.clock);
        }
        let t = self.thread_mut(tid);
        t.metrics.sections_committed += 1;
        t.consecutive_revocations = 0;
        self.release_one_level(tid, obj)
    }

    /// Release one recursion level of `obj`; on full release, hand the
    /// monitor to the next queued waiter.
    pub(crate) fn release_one_level(&mut self, tid: ThreadId, obj: ObjRef) -> Result<(), VmError> {
        {
            let m = self.monitors.get_mut(obj);
            if m.owner != Some(tid) {
                return Err(VmError::IllegalMonitorState("release of an unowned monitor"));
            }
            m.recursion -= 1;
            if m.recursion > 0 {
                return Ok(());
            }
            m.owner = None;
        }
        let t = self.thread_mut(tid);
        if let Some(p) = t.held.iter().position(|&h| h == obj) {
            t.held.remove(p);
        }
        self.recompute_effective(tid);
        self.emit(tid, obj, EventKind::Release);
        let next = self.monitors.get_mut(obj).queue.pop();
        if let Some(next) = next {
            self.grant(next, obj)?;
        }
        Ok(())
    }

    /// Transfer ownership of `obj` to `next`, which is blocked on it.
    pub(crate) fn grant(&mut self, next: ThreadId, obj: ObjRef) -> Result<(), VmError> {
        let state = self.thread(next).state;
        let (recursion, fresh_section) = match state {
            ThreadState::BlockedEnter(o) if o == obj => (1, true),
            ThreadState::BlockedReacquire(o) if o == obj => {
                (self.thread(next).wait_recursion.max(1), false)
            }
            _ => return Err(VmError::Internal("granted monitor to a thread not blocked on it")),
        };
        self.graph.remove_wait(next);
        // Refresh waits-for edges of the remaining waiters: they now wait
        // on the new owner.
        let waiters: Vec<ThreadId> =
            self.monitors.get(obj).map(|m| m.queue.iter().copied().collect()).unwrap_or_default();
        for w in waiters {
            self.graph.add_wait(w, MonitorId(obj.0), next);
        }
        self.take_monitor(next, obj, recursion, fresh_section);
        self.make_ready(next);
        Ok(())
    }

    /// Make `tid` the owner of the free monitor `obj` at `recursion`
    /// levels. A `fresh` acquisition (not a re-acquire after `wait`)
    /// counts and opens a section.
    fn take_monitor(&mut self, tid: ThreadId, obj: ObjRef, recursion: u32, fresh: bool) {
        let eff = self.thread(tid).effective_priority;
        {
            let m = self.monitors.get_mut(obj);
            m.owner = Some(tid);
            m.recursion = recursion;
            m.holder_priority = eff;
            m.acquires += 1;
            m.drained = 0;
        }
        self.thread_mut(tid).held.push(obj);
        self.apply_ceiling(tid);
        if fresh {
            self.thread_mut(tid).metrics.monitor_acquires += 1;
            self.push_section(tid, obj);
        }
        self.emit(tid, obj, EventKind::Acquire);
    }

    /// `Object.wait()` (§2.2 and footnote 2).
    ///
    /// The monitor is fully released (all recursion levels) and the
    /// thread parks in the wait set. Revocability treatment:
    ///
    /// * **nested wait** (any other section active): every active section
    ///   becomes non-revocable — a rolled-back `wait` would un-deliver a
    ///   `notify`, violating Java semantics;
    /// * **non-nested wait** (exactly one active section, on this
    ///   monitor): updates made before the `wait` are committed (they
    ///   became visible at the release anyway) and the section's restart
    ///   point moves to just after the `wait` — "a potential rollback
    ///   will therefore not reach beyond the point when wait was called".
    pub(crate) fn do_wait(&mut self, tid: ThreadId, obj: ObjRef) -> Result<(), VmError> {
        if !self.monitors.get(obj).map(|m| m.owned_by(tid)).unwrap_or(false) {
            return Err(VmError::IllegalMonitorState("wait on an unowned monitor"));
        }
        // The precise post-wait restart point (footnote 2) is only
        // representable when the `wait` executes in the *same frame* as
        // the section's `monitorenter`: the snapshot stores exactly one
        // frame, and a wait in a callee could be revoked after that
        // callee returned, when its frame no longer exists. Nested
        // sections, foreign monitors, and callee-frame waits all take the
        // conservative path: every enclosing section becomes
        // non-revocable.
        let nested = {
            let t = self.thread(tid);
            t.sections.len() > 1
                || t.sections.first().map(|s| s.monitor != obj).unwrap_or(true)
                || t.sections.first().map(|s| s.frame_depth != t.frames.len() - 1).unwrap_or(true)
        };
        if nested {
            let flipped = self.thread_mut(tid).mark_all_nonrevocable();
            self.global.monitors_marked_nonrevocable += flipped;
            if flipped > 0 {
                self.emit(tid, obj, EventKind::NonRevocable);
            }
        } else {
            // Single section on `obj`: commit the pre-wait updates and
            // move the restart point past the wait.
            let mark = self.thread(tid).sections[0].mark;
            self.commit_log(tid, mark);
            let t = self.thread_mut(tid);
            let new_mark = t.undo.mark();
            let resume_pc = t.frame().pc; // already advanced past Wait
            let (locals, stack) = {
                let f = t.frame();
                (f.locals.clone(), f.stack.clone())
            };
            let sec = &mut t.sections[0];
            sec.mark = new_mark;
            if sec.snapshot.is_some() {
                sec.snapshot = Some(Snapshot { locals, stack, resume_pc, after_wait: true });
            }
        }
        // Fully release and park.
        let recursion = self.monitors.get(obj).expect("owned").recursion;
        self.thread_mut(tid).wait_recursion = recursion;
        {
            let m = self.monitors.get_mut(obj);
            m.recursion = 1; // release_one_level drops the last level
        }
        self.release_one_level(tid, obj)?;
        self.monitors.get_mut(obj).wait_set.push(tid);
        self.thread_mut(tid).state = ThreadState::Waiting(obj);
        Ok(())
    }

    /// `Object.notify()` / `notifyAll()`. Rolled-back notifications need
    /// no compensation: Java permits spurious wake-ups (§2.2), so a
    /// wake-up whose `notify` was revoked is simply spurious.
    pub(crate) fn do_notify(
        &mut self,
        tid: ThreadId,
        obj: ObjRef,
        all: bool,
    ) -> Result<(), VmError> {
        if !self.monitors.get(obj).map(|m| m.owned_by(tid)).unwrap_or(false) {
            return Err(VmError::IllegalMonitorState("notify on an unowned monitor"));
        }
        loop {
            let woken = {
                let m = self.monitors.get_mut(obj);
                if m.wait_set.is_empty() {
                    break;
                }
                m.wait_set.remove(0)
            };
            let eff = self.thread(woken).effective_priority;
            self.thread_mut(woken).state = ThreadState::BlockedReacquire(obj);
            self.monitors.get_mut(obj).queue.push(woken, eff);
            self.graph.add_wait(woken, MonitorId(obj.0), tid);
            if !all {
                break;
            }
        }
        Ok(())
    }

    /// Apply the priority-ceiling boost after an acquisition.
    pub(crate) fn apply_ceiling(&mut self, tid: ThreadId) {
        if let InversionPolicy::PriorityCeiling(c) = self.config.policy {
            let t = self.thread_mut(tid);
            if t.effective_priority < c {
                t.effective_priority = c;
                t.metrics.priority_boosts += 1;
            }
        }
    }

    /// Recompute a thread's effective priority from its base priority,
    /// remaining inherited waiters, and held ceilings — after a release.
    pub(crate) fn recompute_effective(&mut self, tid: ThreadId) {
        let base = self.thread(tid).base_priority;
        let held = self.thread(tid).held.clone();
        let mut eff = base;
        match self.config.policy {
            InversionPolicy::PriorityInheritance => {
                for &h in &held {
                    if let Some(m) = self.monitors.get(h) {
                        if let Some(p) = m.queue.max_waiting_priority() {
                            eff = eff.max_of(p);
                        }
                    }
                }
            }
            InversionPolicy::PriorityCeiling(c) if !held.is_empty() => {
                eff = eff.max_of(c);
            }
            _ => {}
        }
        self.thread_mut(tid).effective_priority = eff;
        for &h in &held {
            if self.monitors.get(h).map(|m| m.owned_by(tid)).unwrap_or(false) {
                self.monitors.get_mut(h).holder_priority = eff;
            }
        }
    }

    /// Transitive priority-inheritance boost (§5: "it is a transitive
    /// operation"): boost `owner`, and if `owner` is itself blocked,
    /// propagate along the chain.
    pub(crate) fn boost_chain(&mut self, owner: ThreadId, needed: Priority) {
        let mut cur = owner;
        loop {
            if needed <= self.thread(cur).effective_priority {
                break;
            }
            self.thread_mut(cur).effective_priority = needed;
            self.thread_mut(cur).metrics.priority_boosts += 1;
            let held = self.thread(cur).held.clone();
            for h in held {
                if self.monitors.get(h).map(|m| m.owned_by(cur)).unwrap_or(false) {
                    self.monitors.get_mut(h).holder_priority = needed;
                }
            }
            // Re-prioritize `cur` in the queue it waits in (in place —
            // a remove + re-push would assign a fresh arrival sequence
            // and demote the boosted waiter behind later same-priority
            // arrivals), then follow the chain.
            match self.thread(cur).state {
                ThreadState::BlockedEnter(m2) | ThreadState::BlockedReacquire(m2) => {
                    let mon = self.monitors.get_mut(m2);
                    mon.queue.reprioritize(|&t| t == cur, needed);
                    match self.monitors.get(m2).and_then(|m| m.owner) {
                        Some(next_owner) => cur = next_owner,
                        None => break,
                    }
                }
                _ => break,
            }
        }
    }

    /// After `waiter` blocked: look for a deadlock cycle and, under the
    /// revocation policy, break it by revoking a victim (§1.1).
    pub(crate) fn deadlock_check_from(&mut self, waiter: ThreadId) -> Result<(), VmError> {
        let Some(cycle) = self.graph.find_cycle_from(waiter) else {
            return Ok(());
        };
        self.global.deadlocks_detected += 1;
        self.emit_raw(
            Event::NO_THREAD,
            Event::NO_MONITOR,
            EventKind::DeadlockDetected { cycle_len: cycle.len() as u64 },
        );
        if !self.config.policy.can_break_deadlock() {
            return Ok(()); // will surface as VmError::Stalled
        }
        let victim = self.graph.choose_victim(&cycle, |v, monitor| {
            let t = self.thread(v);
            let section = &t.sections[t.outermost_section_on(ObjRef(monitor.0))?];
            section.can_revoke().then_some((t.base_priority, section.acq_id))
        });
        let Some(Victim { thread: victim, section: acq, .. }) = victim else {
            return Ok(()); // unbreakable: all sections non-revocable
        };
        self.thread_mut(victim).pending_revoke = Some(acq);
        self.global.deadlocks_broken += 1;
        self.emit_raw(victim.0 as u64, Event::NO_MONITOR, EventKind::DeadlockBroken);
        // The victim is blocked (it is part of the cycle) — revoke now.
        self.perform_revocation(victim)?;
        Ok(())
    }

    // --- delegation (combiner) -----------------------------------------

    /// Enqueue a delegated critical section (`Insn::Delegate`) on `obj`'s
    /// combiner queue, in submitter-priority order. Returns the completion
    /// token. Works identically under every policy.
    pub(crate) fn submit_delegation(
        &mut self,
        tid: ThreadId,
        obj: ObjRef,
        method: MethodId,
        args: Vec<Value>,
    ) -> u32 {
        let token = self.next_token;
        self.next_token += 1;
        // A submission cannot be un-submitted by a rollback (it may have
        // executed on another thread by then): pin every enclosing
        // section, like a spawn.
        let flipped = self.thread_mut(tid).mark_all_nonrevocable();
        self.global.monitors_marked_nonrevocable += flipped;
        let prio = self.thread(tid).effective_priority;
        let holder = self.monitors.get(obj).and_then(|m| m.owner);
        {
            let m = self.monitors.get_mut(obj);
            m.submissions.push(DelegatedCall { token, method, args, submitter: tid }, prio);
            m.peak_submissions = m.peak_submissions.max(m.submissions.len());
        }
        self.global.delegations_submitted += 1;
        self.emit(
            tid,
            obj,
            EventKind::DelegateSubmit {
                holder: holder.map_or(Event::NO_THREAD, |h| h.0 as u64),
                token: token as u64,
            },
        );
        token
    }

    /// Whether `tid`, about to fully release `obj`, should instead drain
    /// a pending submission. Combiner handoff rule: drain in priority
    /// order until the queue is dry or the bounded drain budget is spent —
    /// but never stop while there is no entry-queue successor to take
    /// over (a parked awaiter cannot drain for itself).
    pub(crate) fn can_drain(&self, tid: ThreadId, obj: ObjRef) -> bool {
        let Some(m) = self.monitors.get(obj) else { return false };
        m.owned_by(tid)
            && m.recursion == 1
            && !m.submissions.is_empty()
            && (!self.config.delegate.exhausted(m.drained) || m.queue.is_empty())
    }

    /// Pop the best-priority submission of `obj` (which `tid` must hold)
    /// and push a delegated frame executing it. With `release_on_return`,
    /// the frame's return keeps draining and then releases the monitor;
    /// without it, control returns to the pending `MonitorExit`.
    pub(crate) fn drain_one_submission(
        &mut self,
        tid: ThreadId,
        obj: ObjRef,
        release_on_return: bool,
    ) {
        // Completion delivery is irrevocable (a rollback cannot un-deliver
        // a result to an awaiting thread): pin every enclosing section,
        // like a native call.
        let flipped = self.thread_mut(tid).mark_all_nonrevocable();
        self.global.monitors_marked_nonrevocable += flipped;
        let call = {
            let m = self.monitors.get_mut(obj);
            m.drained += 1;
            m.submissions.pop().expect("drain with an empty submission queue")
        };
        let locals_n = self.program.methods[call.method.index()].locals as usize;
        let mut locals = call.args;
        locals.resize(locals_n, Value::Null);
        let mut f = Frame::new(call.method, locals);
        f.delegated = Some(DelegatedFrame {
            token: call.token,
            monitor: obj,
            submitter: call.submitter,
            release_on_return,
        });
        self.thread_mut(tid).frames.push(f);
        self.emit(
            tid,
            obj,
            EventKind::DelegateExecute {
                submitter: call.submitter.0 as u64,
                token: call.token as u64,
            },
        );
    }

    /// Acquire the free monitor `obj` and start combining: used by a
    /// `Delegate` on an unowned monitor and by a helping `Await` (the
    /// awaited submission sits queued on a free monitor).
    pub(crate) fn become_combiner(&mut self, tid: ThreadId, obj: ObjRef) {
        debug_assert!(
            self.monitors.get(obj).and_then(|m| m.owner).is_none(),
            "become_combiner on an owned monitor"
        );
        self.take_monitor(tid, obj, 1, true);
        self.drain_one_submission(tid, obj, true);
    }

    /// A delegated frame returned: complete its token (deliver the result
    /// to a parked awaiter or bank it), then — for combiner-owned drains —
    /// keep draining or release the monitor.
    pub(crate) fn complete_delegation(
        &mut self,
        tid: ThreadId,
        d: DelegatedFrame,
        result: Value,
    ) -> Result<(), VmError> {
        self.global.delegations_completed += 1;
        self.emit(
            tid,
            d.monitor,
            EventKind::DelegateComplete { submitter: d.submitter.0 as u64, token: d.token as u64 },
        );
        let awaiter = self
            .threads
            .iter()
            .find(|t| t.state == ThreadState::AwaitingDelegation(d.token))
            .map(|t| t.id);
        match awaiter {
            Some(w) => {
                // The awaiter's `Await` already popped the token: push the
                // result it is parked on and wake it.
                self.push(w, result);
                self.make_ready(w);
            }
            None => {
                self.delegation_results.insert(d.token, result);
            }
        }
        if d.release_on_return {
            if self.can_drain(tid, d.monitor) {
                self.drain_one_submission(tid, d.monitor, true);
            } else {
                self.exit_section_common(tid, d.monitor)?;
            }
        }
        Ok(())
    }

    /// Host-side helper for tests: read a static slot after a run.
    pub fn read_static(&self, slot: u32) -> Result<Value, VmError> {
        Ok(self.heap.read(crate::heap::Location::Static(slot))?)
    }
}
