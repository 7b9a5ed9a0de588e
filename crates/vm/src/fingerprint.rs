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
//! mailboxes when more than one core is configured; one flat queue on
//! one core),
//! last-dispatched thread, every thread's control state
//! (frames, locals, operand stacks, sections, snapshots, undo logs with
//! each entry's repeat count, scheduling state, priorities), the heap
//! (all object slots and statics), monitor table (owners, recursion,
//! deposited priorities, entry queues with queued-at priorities, wait
//! sets, pending delegated submissions and drain counts), the live JMM
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
//!
//! The hasher is [`FoldHasher`]: one folded multiply per machine word,
//! unkeyed, so values are stable across runs, processes and builds; no
//! artifact stores them. [`Vm::hash_state`] is the field walk alone, so
//! a test can run the same walk through another hasher and compare the
//! partitions of states the two draw.

use crate::thread::ThreadState;
use crate::vm::Vm;
use revmon_core::{FoldHasher, LogMark, UndoLog};
use std::hash::{Hash, Hasher};

/// A mark at log position 0 (the public API only hands out marks at the
/// current tail, so the origin mark comes from an empty log).
fn origin_mark() -> LogMark {
    UndoLog::<crate::thread::UndoEntry>::new().mark()
}

impl Vm {
    /// Hash the complete logical machine state into a `u64`.
    ///
    /// Deterministic across runs, processes and builds for the same
    /// logical state ([`FoldHasher`] has no keys and no ambient
    /// randomness). See the module docs for what is included and what is
    /// deliberately left out.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = FoldHasher::new();
        self.hash_state(&mut h);
        h.finish()
    }

    /// Feed the complete logical machine state into `h`, field by field
    /// in a fixed order — the walk behind [`Vm::state_fingerprint`], open
    /// to any [`Hasher`] the way [`Heap::hash_state`](crate::heap::Heap::hash_state)
    /// is.
    pub fn hash_state<H: Hasher>(&self, h: &mut H) {
        // Global execution position.
        self.clock.hash(h);
        self.rng_draws.hash(h);
        self.output.hash(h);
        self.last_dispatched.hash(h);
        // Run queue *order* matters: policies choose by index. On a
        // single core hash the flat shape (queue length + entries, nothing
        // else), which partitions single-core states exactly as the
        // pre-multicore fingerprint did.
        if self.cores.len() == 1 {
            self.cores[0].run_queue.len().hash(h);
            for tid in &self.cores[0].run_queue {
                tid.hash(h);
            }
        } else {
            self.current_core.hash(h);
            self.cores.len().hash(h);
            for core in &self.cores {
                core.run_queue.len().hash(h);
                for tid in &core.run_queue {
                    tid.hash(h);
                }
                core.last_dispatched.hash(h);
                // Mailbox order matters (FIFO delivery). The IPI's acq id
                // is path-dependent, so hash the *index* of the targeted
                // section instead, with the same sentinels as
                // `pending_revoke` below.
                core.ipis.len().hash(h);
                for ipi in &core.ipis {
                    ipi.by.hash(h);
                    ipi.victim.hash(h);
                    ipi.monitor.hash(h);
                    match self.threads[ipi.victim.index()].section_by_acq(ipi.acq) {
                        Some(idx) => (idx as u64).hash(h),
                        None => (u64::MAX - 1).hash(h),
                    }
                }
            }
        }

        // Threads.
        self.threads.len().hash(h);
        for t in &self.threads {
            t.base_priority.hash(h);
            t.effective_priority.hash(h);
            hash_thread_state(t.state, h);
            t.wait_recursion.hash(h);
            t.consecutive_revocations.hash(h);
            t.uncaught.hash(h);
            t.held.hash(h);

            t.frames.len().hash(h);
            for f in &t.frames {
                f.method.hash(h);
                f.pc.hash(h);
                f.locals.hash(h);
                f.stack.hash(h);
                match &f.delegated {
                    None => false.hash(h),
                    Some(d) => {
                        true.hash(h);
                        d.token.hash(h);
                        d.monitor.hash(h);
                        d.submitter.hash(h);
                        d.release_on_return.hash(h);
                    }
                }
            }

            t.sections.len().hash(h);
            for s in &t.sections {
                s.monitor.hash(h);
                s.mark.position().hash(h);
                s.frame_depth.hash(h);
                s.revocable.hash(h);
                s.region.hash(h);
                hash_snapshot(&s.snapshot, h);
            }
            // Encode a pending revocation as the index of the targeted
            // section (acq ids are path-dependent; indices are not).
            match t.pending_revoke {
                None => u64::MAX.hash(h),
                Some(acq) => match t.section_by_acq(acq) {
                    Some(idx) => (idx as u64).hash(h),
                    // Target already gone (revocation raced with exit):
                    // distinct sentinel.
                    None => (u64::MAX - 1).hash(h),
                },
            }
            hash_snapshot(&t.pending_snapshot, h);

            let entries = t.undo.since(origin_mark());
            entries.len().hash(h);
            for e in entries {
                e.loc.hash(h);
                e.old.hash(h);
                e.repeats.hash(h);
            }
        }

        // Heap (objects + statics, deterministic order).
        self.heap.hash_state(h);

        // Monitors (BTreeMap: ascending object order).
        self.monitors.len().hash(h);
        for (obj, m) in self.monitors.iter() {
            obj.hash(h);
            m.owner.hash(h);
            m.recursion.hash(h);
            m.holder_priority.hash(h);
            m.queue.len().hash(h);
            for (tid, prio) in m.queue.iter_entries() {
                tid.hash(h);
                prio.hash(h);
            }
            m.wait_set.hash(h);
            // Pending submissions are logical state: the drain order (and
            // whether `can_drain` fires at all) depends on them.
            m.drained.hash(h);
            m.submissions.len().hash(h);
            for (c, prio) in m.submissions.iter_entries() {
                c.token.hash(h);
                c.method.hash(h);
                c.args.hash(h);
                c.submitter.hash(h);
                prio.hash(h);
            }
        }

        // Delegation tokens are program-visible values (pushed by
        // `Delegate`), so the counter and the banked results are logical
        // state, not path-dependent bookkeeping.
        self.next_token.hash(h);
        self.delegation_results.len().hash(h);
        for (tok, v) in &self.delegation_results {
            tok.hash(h);
            v.hash(h);
        }

        // Live speculative writes (sorted by location).
        self.heap.speculative_len().hash(h);
        for (loc, w) in self.heap.speculative_writes() {
            loc.hash(h);
            w.writer.hash(h);
            (w.log_pos as u64).hash(h);
        }
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
    use crate::heap::Location;
    use crate::monitor::DelegatedCall;
    use crate::thread::{DelegatedFrame, Snapshot, ThreadState, UndoEntry};
    use crate::value::{ObjRef, Value};
    use crate::vm::{Ipi, Vm, VmConfig};
    use revmon_core::{FoldHasher, Priority, ThreadId, UndoLog};
    use std::hash::Hasher;

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

    /// Three workers on one lock, stopped after the first slice that
    /// logged a write: the returned thread is inside its section with an
    /// undo entry, a live speculative stamp and a pending revocation; the
    /// other two are queued.
    fn busy_vm(cores: usize) -> (Vm, usize) {
        let mut pb = ProgramBuilder::new();
        pb.statics(2);
        let worker = pb.declare_method("worker", 1);
        let mut b = MethodBuilder::new(1, 1);
        b.sync_on_local(0, |b| {
            b.add_static(0, 1);
            b.const_i(1_000);
            b.work();
            b.add_static(1, 1);
        });
        b.ret_void();
        pb.implement(worker, b);
        let mut cfg = VmConfig::modified().with_cores(cores);
        cfg.cost.quantum = 100;
        let mut vm = Vm::new(pb.finish(), cfg);
        let lock = vm.heap_mut().alloc(0, 2);
        for prio in [Priority::LOW, Priority::NORM, Priority::NORM] {
            vm.spawn("worker", worker, vec![Value::Ref(lock)], prio);
        }
        let holder = loop {
            let round = vm.run_round().expect("runs");
            assert_ne!(round, crate::vm::RoundOutcome::Done, "no slice ended inside a section");
            if let Some(i) = vm.threads.iter().position(|t| !t.undo.is_empty()) {
                break i;
            }
        };
        let t = &mut vm.threads[holder];
        t.pending_revoke = Some(t.sections[0].acq_id);
        (vm, holder)
    }

    /// A named change to one item of the machine (the holder's index is
    /// the second argument).
    type Perturbation = (&'static str, fn(&mut Vm, usize));

    /// One change per item the module docs list as included.
    const INCLUDED: &[Perturbation] = &[
        ("clock", |vm, _| vm.clock += 1),
        ("rng draws", |vm, _| vm.rng_draws += 1),
        ("output", |vm, _| vm.output.push(Value::Int(0))),
        ("last dispatched", |vm, _| vm.last_dispatched = Some(ThreadId(9))),
        ("run queue order", |vm, _| vm.cores[0].run_queue.rotate_left(1)),
        ("base priority", |vm, h| vm.threads[h].base_priority = Priority::MAX),
        ("effective priority", |vm, h| vm.threads[h].effective_priority = Priority::MAX),
        ("thread state", |vm, h| vm.threads[h].state = ThreadState::Sleeping(1)),
        ("wait recursion", |vm, h| vm.threads[h].wait_recursion += 1),
        ("consecutive revocations", |vm, h| vm.threads[h].consecutive_revocations += 1),
        ("uncaught", |vm, h| vm.threads[h].uncaught = Some(3)),
        ("held monitors", |vm, h| vm.threads[h].held.push(ObjRef(9))),
        ("frames", |vm, h| {
            let f = vm.threads[h].frames[0].clone();
            vm.threads[h].frames.push(f);
        }),
        ("pc", |vm, h| vm.threads[h].frames[0].pc += 1),
        ("locals", |vm, h| vm.threads[h].frames[0].locals[0] = Value::Int(5)),
        ("operand stack", |vm, h| vm.threads[h].frames[0].stack.push(Value::Null)),
        ("delegated frame", |vm, h| {
            vm.threads[h].frames[0].delegated = Some(DelegatedFrame {
                token: 0,
                monitor: ObjRef(0),
                submitter: ThreadId(0),
                release_on_return: false,
            });
        }),
        ("sections", |vm, h| {
            let s = vm.threads[h].sections[0].clone();
            vm.threads[h].sections.push(s);
        }),
        ("section monitor", |vm, h| vm.threads[h].sections[0].monitor = ObjRef(9)),
        ("section mark", |vm, h| {
            let mut log = UndoLog::new();
            log.push(UndoEntry::new(Location::Static(0), Value::Null));
            vm.threads[h].sections[0].mark = log.mark();
        }),
        ("section frame depth", |vm, h| vm.threads[h].sections[0].frame_depth += 1),
        ("section revocable", |vm, h| vm.threads[h].sections[0].revocable ^= true),
        ("section region", |vm, h| {
            let s = &mut vm.threads[h].sections[0];
            s.region = if s.region.is_some() { None } else { Some((0, 1)) };
        }),
        ("section snapshot", |vm, h| vm.threads[h].sections[0].snapshot = None),
        ("snapshot resume pc", |vm, h| {
            vm.threads[h].sections[0].snapshot.as_mut().expect("rewritten").resume_pc += 1;
        }),
        ("pending revocation", |vm, h| vm.threads[h].pending_revoke = None),
        ("pending snapshot", |vm, h| {
            vm.threads[h].pending_snapshot =
                Some(Snapshot { locals: vec![], stack: vec![], resume_pc: 0, after_wait: false });
        }),
        ("undo log", |vm, h| {
            vm.threads[h].undo.push(UndoEntry::new(Location::Static(1), Value::Null));
        }),
        ("undo repeat count", |vm, h| {
            vm.threads[h].undo.get_mut(0).expect("holder logged a write").repeats += 1;
        }),
        ("object slot", |vm, _| {
            vm.heap.write(Location::Obj(ObjRef(0), 1), Value::Int(1)).unwrap();
        }),
        ("static", |vm, _| {
            vm.heap.write(Location::Static(1), Value::Int(7)).unwrap();
        }),
        ("objects", |vm, _| {
            vm.heap.alloc(0, 0);
        }),
        ("speculative write", |vm, _| vm.heap.record_write(Location::Static(1), ThreadId(1), 0)),
        ("speculative writer", |vm, _| vm.heap.record_write(Location::Static(0), ThreadId(2), 0)),
        ("monitor owner", |vm, _| vm.monitors.get_mut(ObjRef(0)).owner = None),
        ("monitor recursion", |vm, _| vm.monitors.get_mut(ObjRef(0)).recursion += 1),
        ("holder priority", |vm, _| vm.monitors.get_mut(ObjRef(0)).holder_priority = Priority::MAX),
        ("entry queue", |vm, _| {
            vm.monitors.get_mut(ObjRef(0)).queue.push(ThreadId(1), Priority::NORM)
        }),
        ("wait set", |vm, _| vm.monitors.get_mut(ObjRef(0)).wait_set.push(ThreadId(2))),
        ("drain count", |vm, _| vm.monitors.get_mut(ObjRef(0)).drained += 1),
        ("submissions", |vm, h| {
            let call = DelegatedCall {
                token: 0,
                method: vm.threads[h].frames[0].method,
                args: vec![],
                submitter: ThreadId(1),
            };
            vm.monitors.get_mut(ObjRef(0)).submissions.push(call, Priority::NORM);
        }),
        ("monitor table", |vm, _| {
            vm.monitors.get_mut(ObjRef(9));
        }),
        ("delegation tokens", |vm, _| vm.next_token += 1),
        ("banked results", |vm, _| {
            vm.delegation_results.insert(0, Value::Int(1));
        }),
    ];

    /// Items hashed only when more than one core is configured.
    const MULTI_CORE: &[Perturbation] = &[
        ("core cursor", |vm, _| vm.current_core = (vm.current_core + 1) % vm.cores.len()),
        ("core last dispatched", |vm, _| vm.cores[1].last_dispatched = Some(ThreadId(9))),
        ("second core's run queue", |vm, _| vm.cores[1].run_queue.push_back(ThreadId(0))),
        ("IPI mailbox", |vm, h| {
            let acq = vm.threads[h].sections[0].acq_id;
            let ipi = Ipi { by: ThreadId(1), victim: ThreadId(h as u32), acq, monitor: ObjRef(0) };
            vm.cores[1].ipis.push_back(ipi);
        }),
    ];

    /// One change per item the module docs list as excluded.
    const EXCLUDED: &[Perturbation] = &[
        ("global metrics", |vm, _| vm.global.instructions += 1),
        ("thread metrics", |vm, h| vm.threads[h].metrics.rollbacks += 1),
        ("acquisition ids", |vm, _| {
            vm.next_acq_id += 100;
            for t in &mut vm.threads {
                for s in &mut t.sections {
                    s.acq_id += 100;
                }
                t.pending_revoke = t.pending_revoke.map(|a| a + 100);
            }
        }),
        ("steps", |vm, _| vm.steps += 1),
        ("background scan", |vm, _| vm.next_background_scan = 5),
        ("quantum", |vm, _| vm.quantum_left += 1),
        ("trace", |vm, _| {
            let kind = revmon_obs::EventKind::Commit;
            vm.trace.push(revmon_obs::Event { ts: 0, thread: 0, monitor: 0, core: 0, kind });
        }),
        ("monitor statistics", |vm, _| {
            let m = vm.monitors.get_mut(ObjRef(0));
            m.acquires += 1;
            m.contended += 1;
            m.peak_queue += 1;
        }),
        ("IPI counters", |vm, _| {
            vm.ipis_posted += 1;
            vm.ipis_acked += 1;
            vm.ipis_stale += 1;
        }),
        ("thread name and times", |vm, h| {
            let t = &mut vm.threads[h];
            t.name.push('!');
            t.start_time = Some(1);
            t.end_time = Some(2);
        }),
    ];

    #[test]
    fn every_included_item_moves_the_fingerprint_and_no_excluded_one_does() {
        for cores in [1, 2] {
            let base = busy_vm(cores).0.state_fingerprint();
            let included = INCLUDED.iter().chain(if cores > 1 { MULTI_CORE } else { &[] });
            for (name, perturb) in included {
                let (mut vm, holder) = busy_vm(cores);
                perturb(&mut vm, holder);
                assert_ne!(vm.state_fingerprint(), base, "{name} (cores={cores}) is hashed");
            }
            for (name, perturb) in EXCLUDED {
                let (mut vm, holder) = busy_vm(cores);
                perturb(&mut vm, holder);
                assert_eq!(vm.state_fingerprint(), base, "{name} (cores={cores}) is not hashed");
            }
        }
    }

    #[test]
    fn the_fingerprint_is_the_field_walk_through_the_fold_hasher() {
        let (vm, _) = busy_vm(2);
        let mut h = FoldHasher::new();
        vm.hash_state(&mut h);
        assert_eq!(vm.state_fingerprint(), h.finish());
        let mut heap = FoldHasher::new();
        vm.heap.hash_state(&mut heap);
        assert_eq!(vm.heap_fingerprint(), heap.finish());
    }
}
