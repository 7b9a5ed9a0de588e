//! Revocation: requesting and performing the rollback of a synchronized
//! section (§1.1, §3.1.2).
//!
//! A revocation request flags the holder (`pending_revoke`); the flag is
//! honoured at the holder's next yield point (dispatch boundaries for
//! ready/running threads, immediately for threads suspended at a safe
//! point — blocked or sleeping). Performing the revocation:
//!
//! 1. **Restore shared state first** — the undo log is processed in
//!    reverse down to the target section's mark *"before a thread that
//!    has been interrupted releases any of its locks"*, so partial
//!    results never become visible to other threads;
//! 2. **Release monitors innermost-first** — what the injected rollback
//!    handlers do as the internal rollback exception propagates outward,
//!    skipping every user handler and `finally` block in between;
//! 3. **Restore control** — the target section's saved locals/operand
//!    stack are reinstated and the pc returns to the injected `SaveState`
//!    preceding the section's `MonitorEnter` (or, for a post-`wait`
//!    restart point, the thread queues to re-acquire the monitor and
//!    resume just after the `wait`).

use crate::error::VmError;
use crate::thread::ThreadState;
use crate::value::ObjRef;
use crate::vm::Vm;
use revmon_core::ThreadId;
use revmon_obs::prof::{timers, Phase};
use revmon_obs::EventKind;

impl Vm {
    /// Flag `holder` so that its outermost section on `obj` is revoked at
    /// its next yield point. No-op (counted as unresolved) when the
    /// section is non-revocable, sticky-blocked, or livelock-guarded.
    pub(crate) fn request_revocation(
        &mut self,
        by: ThreadId,
        holder: ThreadId,
        obj: ObjRef,
    ) -> Result<(), VmError> {
        let Some(idx) = self.thread(holder).outermost_section_on(obj) else {
            return Ok(()); // already released in the meantime
        };
        let livelock_denied = self.config.max_consecutive_revocations != 0
            && self.thread(holder).consecutive_revocations
                >= self.config.max_consecutive_revocations;
        let can = self.thread(holder).sections[idx].can_revoke() && !livelock_denied;
        if !can {
            self.global.inversions_unresolved += 1;
            self.emit(holder, obj, EventKind::InversionUnresolved { by: by.0 as u64 });
            return Ok(());
        }
        // Adaptive governor: once the (monitor, holder) pair has burnt its
        // retry budget, the contender stays blocked on the prioritized
        // entry queue instead of revoking — per-monitor degradation to the
        // blocking baseline, reversible after the decay window.
        match self.governor.consult(self.config.governor, obj.0 as u64, holder.0 as u64, self.clock)
        {
            revmon_core::GovernorVerdict::Allow => {}
            revmon_core::GovernorVerdict::Fallback { fresh } => {
                self.global.governor_throttles += 1;
                self.emit(holder, obj, EventKind::GovernorThrottle { by: by.0 as u64 });
                if fresh {
                    self.global.policy_fallbacks += 1;
                    self.emit(holder, obj, EventKind::PolicyFallback);
                }
                return Ok(());
            }
        }
        let acq = self.thread(holder).sections[idx].acq_id;
        self.global.revocations_requested += 1;
        if self.thread(by).core != self.thread(holder).core {
            // Cross-core: the requester cannot touch the victim's
            // revocation flag directly — on real hardware the victim may
            // be mid-section on its own processor. Post an IPI to the
            // victim's core; it is delivered (and acked) when that core
            // next takes its scheduling step, which is a yield point for
            // every thread pinned there. Staleness is re-checked at
            // delivery, not here.
            self.emit(holder, obj, EventKind::RevokeRequest { by: by.0 as u64 });
            let victim_core = self.thread(holder).core;
            self.cores[victim_core].ipis.push_back(crate::vm::Ipi {
                by,
                victim: holder,
                acq,
                monitor: obj,
            });
            self.ipis_posted += 1;
            self.emit(holder, obj, EventKind::IpiPosted { by: by.0 as u64 });
            return Ok(());
        }
        // Keep the shallowest (outermost) target if requests pile up.
        let replace = match self.thread(holder).pending_revoke {
            None => true,
            Some(existing) => match self.thread(holder).section_by_acq(existing) {
                Some(ei) => idx < ei,
                None => true, // stale target
            },
        };
        if replace {
            self.thread_mut(holder).pending_revoke = Some(acq);
        }
        self.emit(holder, obj, EventKind::RevokeRequest { by: by.0 as u64 });
        // Threads suspended at a safe point are revoked immediately: a
        // Ready thread was descheduled *at* a yield point, and blocked or
        // sleeping threads sit at monitor-enter / sleep yield points. On
        // one core the holder can never be Running while the requester
        // runs, so in practice every same-core revocation happens at the
        // holder's current yield point — the paper's "next yield point"
        // with zero scheduling delay. (A Running holder — possible only
        // via the background scanner firing mid-dispatch — is still
        // deferred to its next yield point in the dispatch loop.)
        match self.thread(holder).state {
            ThreadState::BlockedEnter(_)
            | ThreadState::Sleeping(_)
            | ThreadState::BlockedJoin(_)
            | ThreadState::AwaitingDelegation(_)
            | ThreadState::Ready => {
                self.perform_revocation(holder)?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Deliver every IPI pending on `core`, FIFO. Called at the head of
    /// the core's scheduling step — a yield point for all its threads —
    /// so delivery is the explicit revoker→victim handshake: each IPI is
    /// acknowledged exactly once (`IpiAck`), either as stale (the holder
    /// released, committed, or terminated while the request was in
    /// flight) or by arming `pending_revoke` and, for victims suspended
    /// at a safe point, performing the rollback on the spot.
    pub(crate) fn deliver_ipis(&mut self, core: usize) -> Result<(), VmError> {
        while let Some(ipi) = self.cores[core].ipis.pop_front() {
            self.ipis_acked += 1;
            let crate::vm::Ipi { by, victim, acq, monitor } = ipi;
            let stale = self.thread(victim).is_terminated()
                || self.monitors.get(monitor).and_then(|m| m.owner) != Some(victim)
                || self.thread(victim).section_by_acq(acq).is_none();
            if stale {
                self.ipis_stale += 1;
                self.emit(victim, monitor, EventKind::IpiAck { by: by.0 as u64, stale: true });
                continue;
            }
            let idx = self.thread(victim).section_by_acq(acq).expect("checked above");
            // Same shallowest-target merge as the same-core request path.
            let replace = match self.thread(victim).pending_revoke {
                None => true,
                Some(existing) => match self.thread(victim).section_by_acq(existing) {
                    Some(ei) => idx < ei,
                    None => true, // stale target
                },
            };
            if replace {
                self.thread_mut(victim).pending_revoke = Some(acq);
            }
            self.emit(victim, monitor, EventKind::IpiAck { by: by.0 as u64, stale: false });
            match self.thread(victim).state {
                ThreadState::BlockedEnter(_)
                | ThreadState::Sleeping(_)
                | ThreadState::BlockedJoin(_)
                | ThreadState::AwaitingDelegation(_)
                | ThreadState::Ready => {
                    self.perform_revocation(victim)?;
                }
                // Defensive: with cores advancing one at a time nothing is
                // Running during delivery, but a flagged thread would
                // still honour it at its next dispatch yield point.
                _ => {}
            }
        }
        Ok(())
    }

    /// Act on a pending revocation. Called at the holder's yield points
    /// and, for suspended holders, directly from `request_revocation` /
    /// the deadlock breaker.
    pub(crate) fn perform_revocation(&mut self, tid: ThreadId) -> Result<(), VmError> {
        let Some(acq) = self.thread_mut(tid).pending_revoke.take() else {
            return Ok(());
        };
        let Some(idx) = self.thread(tid).section_by_acq(acq) else {
            return Ok(()); // section exited before the flag was honoured
        };
        if !self.thread(tid).sections[idx].can_revoke() {
            // Became non-revocable after the request (JMM guard raced).
            self.global.inversions_unresolved += 1;
            return Ok(());
        }

        // Slow-path phase timers (host wall nanoseconds — see the
        // `revmon_obs::prof` docs for why the VM doesn't use ticks here).
        let prof = timers();

        let prior_state = self.thread(tid).state;
        // Detach from whatever the thread is suspended on.
        let t_signal = prof.start(Phase::SignalVictim);
        match prior_state {
            ThreadState::BlockedEnter(m) => {
                self.monitors.get_mut(m).queue.remove_where(|&t| t == tid);
                self.graph.remove_wait(tid);
            }
            ThreadState::Sleeping(_) => {}
            // Parked on a delegation token: not in any queue. The token's
            // completion simply banks its result (`delegation_results`);
            // the restored section re-runs `Await` and finds it there.
            ThreadState::AwaitingDelegation(_) => {}
            ThreadState::BlockedJoin(target) => {
                if let Some(ws) = self.join_waiters.get_mut(&target) {
                    ws.retain(|&w| w != tid);
                }
            }
            ThreadState::Running | ThreadState::Ready => {}
            ThreadState::Waiting(_) | ThreadState::BlockedReacquire(_) => {
                // Unreachable: a waiting thread does not own the monitor,
                // so nothing can target its sections for revocation.
                return Err(VmError::Internal("revocation of a waiting thread"));
            }
            ThreadState::Terminated => return Ok(()),
        }
        prof.finish(Phase::SignalVictim, t_signal);

        // 1. Restore shared state (before releasing any locks).
        let t_undo = prof.start(Phase::UndoWalk);
        let mark = self.thread(tid).sections[idx].mark;
        let mut entries: u64 = 0;
        {
            let mut log = std::mem::take(&mut self.threads[tid.index()].undo);
            let heap = &mut self.heap;
            let guard = self.config.jmm_guard;
            // Test-only fault injection: silently drop the restore of the
            // newest N entries (but still clear the JMM stamps and count them,
            // as the buggy rollback the fault models would).
            let mut skip = self.config.fault_skip_undo;
            log.rollback_to(mark, |e| {
                if guard {
                    heap.clear_speculative(e.loc, tid);
                }
                if skip > 0 {
                    skip -= 1;
                } else {
                    // The location was valid when logged; restoring cannot
                    // fail.
                    let _ = heap.write(e.loc, e.old);
                }
                entries += 1;
            });
            self.threads[tid.index()].undo = log;
        }
        let entered_at = self.thread(tid).sections[idx].entered_at;
        let discarded_ticks = self.clock.saturating_sub(entered_at);
        let t0 = self.clock;
        self.charge(self.config.cost.rollback(entries as usize));
        {
            let m = self.thread(tid).sections[idx].monitor;
            let duration = self.clock - t0;
            self.emit(tid, m, EventKind::Rollback { entries, duration });
        }
        prof.finish(Phase::UndoWalk, t_undo);

        // 2. Release monitors innermost-first, as the propagating rollback
        //    exception's handlers would.
        let t_requeue = prof.start(Phase::Requeue);
        let after_wait =
            self.thread(tid).sections[idx].snapshot.as_ref().map(|s| s.after_wait).unwrap_or(false);
        let to_release: Vec<ObjRef> =
            self.thread(tid).sections[idx..].iter().rev().map(|s| s.monitor).collect();
        for m in to_release {
            self.release_one_level(tid, m)?;
        }
        // Requeue resumes for the reschedule step below; the restore
        // phase between them is accounted separately.
        let requeue_part = t_requeue.map(|t0| t0.elapsed().as_nanos() as u64).unwrap_or(0);

        // 3. Restore control.
        let t_restore = prof.start(Phase::Restore);
        let target = self.thread(tid).sections[idx].clone();
        let snap = target.snapshot.clone().expect("can_revoke implies snapshot");
        {
            let t = self.thread_mut(tid);
            // For a post-wait restart the section record survives (the
            // thread is still lexically inside it and will re-acquire);
            // otherwise the section is gone until `MonitorEnter` re-runs.
            t.sections.truncate(if after_wait { idx + 1 } else { idx });
            t.frames.truncate(target.frame_depth + 1);
            let f = t.frames.last_mut().expect("section frame exists");
            f.locals = snap.locals.clone();
            f.stack = snap.stack.clone();
            f.pc = snap.resume_pc;
            t.metrics.rollbacks += 1;
            t.metrics.entries_rolled_back += entries;
            t.consecutive_revocations += 1;
        }
        self.governor.record_revocation(
            self.config.governor,
            target.monitor.0 as u64,
            tid.0 as u64,
            self.clock,
            entries,
            discarded_ticks,
        );
        prof.finish(Phase::Restore, t_restore);

        // 4. Reschedule.
        let t_requeue2 = prof.start(Phase::Requeue);
        if after_wait {
            let eff = self.thread(tid).effective_priority;
            self.thread_mut(tid).wait_recursion = 1;
            if self.monitors.get(target.monitor).and_then(|m| m.owner).is_none() {
                // Nobody took the monitor at release (empty queue): take it
                // back immediately and continue.
                self.thread_mut(tid).state = ThreadState::BlockedReacquire(target.monitor);
                self.monitors.get_mut(target.monitor).queue.push(tid, eff);
                let granted =
                    self.monitors.get_mut(target.monitor).queue.pop().expect("just pushed");
                self.grant(granted, target.monitor)?;
                // grant() made the thread Ready; if it was running it keeps
                // its dispatch only via the run queue now.
            } else {
                self.thread_mut(tid).state = ThreadState::BlockedReacquire(target.monitor);
                self.monitors.get_mut(target.monitor).queue.push(tid, eff);
                if let Some(owner) = self.monitors.get(target.monitor).and_then(|m| m.owner) {
                    self.graph.add_wait(tid, revmon_core::MonitorId(target.monitor.0), owner);
                }
            }
        } else {
            match prior_state {
                ThreadState::Running => { /* keeps running from the restart pc */ }
                ThreadState::Ready => { /* still queued */ }
                ThreadState::BlockedEnter(_)
                | ThreadState::Sleeping(_)
                | ThreadState::BlockedJoin(_)
                | ThreadState::AwaitingDelegation(_) => {
                    self.make_ready(tid);
                }
                _ => unreachable!("filtered above"),
            }
        }
        if let Some(t0) = t_requeue2 {
            // One Requeue sample per revocation: release + reschedule.
            prof.record(Phase::Requeue, requeue_part + t0.elapsed().as_nanos() as u64);
        }
        let rolled_monitor = target.monitor;
        self.with_probe(|p, vm| p.on_rollback(vm, tid, rolled_monitor, entries));
        Ok(())
    }
}
