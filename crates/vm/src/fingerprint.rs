//! Deterministic state fingerprinting for schedule exploration.
//!
//! The explorer (crate `revmon-explore`) deduplicates interleavings by
//! hashing the complete *logical* VM state at every scheduling decision
//! point: two executions that reach the same fingerprint with the same
//! remaining preemption budget explore identical futures, so one of them
//! can be pruned (classic stateful model-checking sleep/dedup).
//!
//! What is **included**: the virtual clock, RNG draw count (seed + draw
//! count pins the [`rand::rngs::SmallRng`] stream), emitted output, run
//! queue order (per-core queues, the core rotation cursor, and the IPI
//! mailboxes when more than one core is configured; the historical flat
//! shape on one core, so legacy fingerprints are unchanged),
//! last-dispatched thread, every thread's control state
//! (frames, locals, operand stacks, sections, snapshots, undo logs,
//! scheduling state, priorities), the heap (all object slots and
//! statics), monitor table (owners, recursion, deposited priorities,
//! entry queues with queued-at priorities, wait sets, ceilings, sticky
//! flags, pending delegated submissions and drain counts), the live JMM
//! speculative-write map, and the delegation token counter plus banked
//! results (tokens are program-visible values).
//!
//! What is deliberately **excluded**: metrics counters, peak-queue /
//! acquire / contention statistics, trace buffers, timing bookkeeping
//! (`steps`, `next_background_scan`, `quantum_left` is derived from the
//! dispatch loop), and — crucially — section **acquisition ids**. Acq ids
//! come from a global counter whose value depends on *how many* monitor
//! entries happened along the path, so two different interleavings that
//! converge to the same logical state would differ spuriously. A pending
//! revocation (`pending_revoke`, which stores an acq id) is therefore
//! encoded as the *index* of the targeted section in the thread's
//! section stack instead.

use crate::thread::ThreadState;
use crate::vm::Vm;
use revmon_core::{LogMark, UndoLog};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A mark at log position 0 (the public API only hands out marks at the
/// current tail, so the origin mark comes from an empty log).
fn origin_mark() -> LogMark {
    UndoLog::<crate::thread::UndoEntry>::new().mark()
}

impl Vm {
    /// Hash the complete logical machine state into a `u64`.
    ///
    /// Deterministic across runs and processes for the same logical
    /// state (uses [`DefaultHasher`] with its fixed default keys; no
    /// ambient randomness). See the module docs for what is included
    /// and what is deliberately left out.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();

        // Global execution position.
        self.clock.hash(&mut h);
        self.rng_draws.hash(&mut h);
        self.output.hash(&mut h);
        self.last_dispatched.hash(&mut h);
        // Run queue *order* matters: policies choose by index. On a
        // single core hash exactly the historical shape (queue length +
        // entries, nothing else) so every fingerprint recorded by
        // pre-multicore explorations — and the dedup behaviour of legacy
        // `.schedule.json` replays — is preserved bit-for-bit.
        if self.cores.len() == 1 {
            self.cores[0].run_queue.len().hash(&mut h);
            for tid in &self.cores[0].run_queue {
                tid.hash(&mut h);
            }
        } else {
            self.current_core.hash(&mut h);
            self.cores.len().hash(&mut h);
            for core in &self.cores {
                core.run_queue.len().hash(&mut h);
                for tid in &core.run_queue {
                    tid.hash(&mut h);
                }
                core.last_dispatched.hash(&mut h);
                // Mailbox order matters (FIFO delivery). The IPI's acq id
                // is path-dependent, so hash the *index* of the targeted
                // section instead, with the same sentinels as
                // `pending_revoke` below.
                core.ipis.len().hash(&mut h);
                for ipi in &core.ipis {
                    ipi.by.hash(&mut h);
                    ipi.victim.hash(&mut h);
                    ipi.monitor.hash(&mut h);
                    match self.threads[ipi.victim.index()].section_by_acq(ipi.acq) {
                        Some(idx) => (idx as u64).hash(&mut h),
                        None => (u64::MAX - 1).hash(&mut h),
                    }
                }
            }
        }

        // Threads.
        self.threads.len().hash(&mut h);
        for t in &self.threads {
            t.base_priority.hash(&mut h);
            t.effective_priority.hash(&mut h);
            hash_thread_state(t.state, &mut h);
            t.wait_recursion.hash(&mut h);
            t.consecutive_revocations.hash(&mut h);
            t.uncaught.hash(&mut h);
            t.held.hash(&mut h);

            t.frames.len().hash(&mut h);
            for f in &t.frames {
                f.method.hash(&mut h);
                f.pc.hash(&mut h);
                f.locals.hash(&mut h);
                f.stack.hash(&mut h);
                match &f.delegated {
                    None => false.hash(&mut h),
                    Some(d) => {
                        true.hash(&mut h);
                        d.token.hash(&mut h);
                        d.monitor.hash(&mut h);
                        d.submitter.hash(&mut h);
                        d.release_on_return.hash(&mut h);
                    }
                }
            }
            t.pending_delegation_token.hash(&mut h);

            t.sections.len().hash(&mut h);
            for s in &t.sections {
                s.monitor.hash(&mut h);
                s.mark.position().hash(&mut h);
                s.frame_depth.hash(&mut h);
                s.revocable.hash(&mut h);
                s.region.hash(&mut h);
                s.delegated.hash(&mut h);
                hash_snapshot(&s.snapshot, &mut h);
            }
            // Encode a pending revocation as the index of the targeted
            // section (acq ids are path-dependent; indices are not).
            match t.pending_revoke {
                None => u64::MAX.hash(&mut h),
                Some(acq) => match t.section_by_acq(acq) {
                    Some(idx) => (idx as u64).hash(&mut h),
                    // Target already gone (revocation raced with exit):
                    // distinct sentinel.
                    None => (u64::MAX - 1).hash(&mut h),
                },
            }
            hash_snapshot(&t.pending_snapshot, &mut h);

            let entries = t.undo.since(origin_mark());
            entries.len().hash(&mut h);
            for e in entries {
                e.loc.hash(&mut h);
                e.old.hash(&mut h);
            }
        }

        // Heap (objects + statics, deterministic order).
        self.heap.hash_state(&mut h);

        // Monitors (BTreeMap: ascending object order).
        self.monitors.len().hash(&mut h);
        for (obj, m) in self.monitors.iter() {
            obj.hash(&mut h);
            m.owner.hash(&mut h);
            m.recursion.hash(&mut h);
            m.holder_priority.hash(&mut h);
            m.ceiling.hash(&mut h);
            m.sticky_nonrevocable.hash(&mut h);
            m.queue.len().hash(&mut h);
            for (tid, prio) in m.queue.iter_entries() {
                tid.hash(&mut h);
                prio.hash(&mut h);
            }
            m.wait_set.hash(&mut h);
            // Pending submissions are logical state: the drain order (and
            // whether `can_drain` fires at all) depends on them.
            m.drained.hash(&mut h);
            m.submissions.len().hash(&mut h);
            for (c, prio) in m.submissions.iter_entries() {
                c.token.hash(&mut h);
                c.method.hash(&mut h);
                c.args.hash(&mut h);
                c.submitter.hash(&mut h);
                prio.hash(&mut h);
            }
        }

        // Delegation tokens are program-visible values (pushed by
        // `Delegate`), so the counter and the banked results are logical
        // state, not path-dependent bookkeeping.
        self.next_token.hash(&mut h);
        self.delegation_results.len().hash(&mut h);
        for (tok, v) in &self.delegation_results {
            tok.hash(&mut h);
            v.hash(&mut h);
        }

        // Live speculative writes (sorted by location).
        self.heap.speculative_len().hash(&mut h);
        for (loc, w) in self.heap.speculative_writes() {
            loc.hash(&mut h);
            w.writer.hash(&mut h);
            (w.log_pos as u64).hash(&mut h);
        }

        h.finish()
    }
}

fn hash_thread_state<H: Hasher>(s: ThreadState, h: &mut H) {
    match s {
        ThreadState::Ready => 0u8.hash(h),
        ThreadState::Running => 1u8.hash(h),
        ThreadState::BlockedEnter(m) => {
            2u8.hash(h);
            m.hash(h);
        }
        ThreadState::Waiting(m) => {
            3u8.hash(h);
            m.hash(h);
        }
        ThreadState::BlockedReacquire(m) => {
            4u8.hash(h);
            m.hash(h);
        }
        ThreadState::Sleeping(until) => {
            5u8.hash(h);
            until.hash(h);
        }
        ThreadState::BlockedJoin(t) => {
            6u8.hash(h);
            t.hash(h);
        }
        ThreadState::Terminated => 7u8.hash(h),
        ThreadState::AwaitingDelegation(tok) => {
            8u8.hash(h);
            tok.hash(h);
        }
    }
}

fn hash_snapshot<H: Hasher>(s: &Option<crate::thread::Snapshot>, h: &mut H) {
    match s {
        None => false.hash(h),
        Some(s) => {
            true.hash(h);
            s.locals.hash(h);
            s.stack.hash(h);
            s.resume_pc.hash(h);
            s.after_wait.hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::{MethodBuilder, ProgramBuilder};
    use crate::vm::{Vm, VmConfig};
    use revmon_core::Priority;

    fn fresh_vm() -> Vm {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let main = pb.declare_method("main", 0);
        let mut b = MethodBuilder::new(0, 0);
        b.const_i(7);
        b.put_static(0);
        b.ret_void();
        pb.implement(main, b);
        let mut vm = Vm::new(pb.finish(), VmConfig::modified());
        vm.spawn("main", main, vec![], Priority::NORM);
        vm
    }

    #[test]
    fn identical_states_agree() {
        let a = fresh_vm();
        let b = fresh_vm();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
    }

    #[test]
    fn stepping_changes_the_fingerprint() {
        let mut vm = fresh_vm();
        let before = vm.state_fingerprint();
        vm.run().unwrap();
        assert_ne!(before, vm.state_fingerprint());
    }

    #[test]
    fn replaying_the_same_run_reproduces_the_fingerprint() {
        let mut a = fresh_vm();
        let mut b = fresh_vm();
        a.run().unwrap();
        b.run().unwrap();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
    }
}
