//! The write barrier's undo log against the log it replaced.
//!
//! The barrier logs a word once per section layer: a repeat store by the
//! same thread to a word it already logged at or past the innermost
//! section's mark counts itself into that entry's `repeats`. The paper's
//! barrier (§3.1.2), which this VM ran before, appends every store.
//! [`Reference`] below keeps that log-every-store barrier as the
//! reference model, the way `explore/tests/oracle_reference.rs` keeps the
//! map-based oracle: a probe that appends `(location, old value)` for
//! every logged store, takes a mark at every section entry, restores
//! newest-first at every rollback into a mirror of the heap, and retires
//! its log at every commit — outermost exit, and the pre-`wait` commit of
//! a non-nested `wait`, which has no hook and shows as the VM's log
//! emptied by a round that reported neither.
//!
//! After each rollback the VM must agree with the reference on
//!
//! * the heap (every word the mirror has seen),
//! * the entries the rollback reports to the probe and in its
//!   `Rollback` event, and the clock that event charges
//!   (`cost.rollback(entries)`),
//! * the thread's `entries_rolled_back` and `log_entries` counters;
//!
//! and after every round, each thread's log must stand for exactly the
//! stores the reference holds (`Σ (1 + repeats)`), with counters to
//! match, and every live stamp must name its writer's entry for its
//! word. Inputs: seeded random section programs (nesting, repeated
//! stores, other threads' stores to the same words in and out of
//! sections, HIGH contenders arriving at random times) and a post-`wait`
//! restart program, each under a sweep of scripts that switches threads
//! at every early decision point, with the JMM guard on and off. Three
//! directed programs pin the log's shape: how many entries a word takes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use revmon_core::{FxMap, Priority, ThreadId};
use revmon_obs::EventKind;
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::{MethodId, Program};
use revmon_vm::heap::Location;
use revmon_vm::thread::ThreadState;
use revmon_vm::value::{ObjRef, Value};
use revmon_vm::{Probe, RoundOutcome, Scripted, Vm, VmConfig};
use std::any::Any;

// --- The reference: the log-every-store barrier. -----------------------

/// One thread's reference log.
#[derive(Debug, Default)]
struct Log {
    /// Every logged store: where, and the value it overwrote.
    entries: Vec<(Location, Value)>,
    /// Per section entry not yet retired: the VM's log length and this
    /// log's length at that moment.
    marks: Vec<(usize, usize)>,
    /// Logged stores seen.
    logged: u64,
    /// Stores undone by rollbacks.
    rolled_back: u64,
}

#[derive(Debug, Default)]
struct Reference {
    logs: Vec<Log>,
    /// The heap as the reference sees it: every word written so far.
    mirror: FxMap<Location, Value>,
    /// Every rollback: thread and stores undone, in order.
    rollbacks: Vec<(ThreadId, u64)>,
    /// Disagreements, with where they were found.
    errors: Vec<String>,
}

impl Reference {
    fn log(&mut self, tid: ThreadId) -> &mut Log {
        if self.logs.len() <= tid.index() {
            self.logs.resize_with(tid.index() + 1, Log::default);
        }
        &mut self.logs[tid.index()]
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The mirror against the VM's heap, word by word.
    fn check_heap(&mut self, vm: &Vm, when: &str) {
        let wrong: Vec<String> = self
            .mirror
            .iter()
            .filter(|(loc, want)| vm.heap().read(**loc).ok() != Some(**want))
            .map(|(loc, want)| format!("{loc:?} reads {:?}, want {want:?}", vm.heap().read(*loc)))
            .collect();
        if !wrong.is_empty() {
            self.errors.push(format!("{when}: heap differs: {wrong:?}"));
        }
    }

    /// What holds between rounds: each VM log stands for the stores its
    /// reference log holds, and the counters count every store.
    fn check_round(&mut self, vm: &Vm, round: usize) {
        for (i, t) in vm.vm_threads().iter().enumerate() {
            let tid = ThreadId(i as u32);
            let stores: u64 = t.undo.since(origin()).iter().map(|e| e.stores()).sum();
            let waiting = matches!(t.state, ThreadState::Waiting(_));
            if waiting && stores == 0 && !self.log(tid).entries.is_empty() {
                // A non-nested `wait` committed the pre-wait stores.
                let log = self.log(tid);
                log.entries.clear();
                log.marks = vec![(0, 0)];
            }
            let log = &self.logs.get(i);
            let (held, logged) = log.map_or((0, 0), |l| (l.entries.len() as u64, l.logged));
            self.check(stores == held, || {
                format!("round {round}: {tid:?}'s log stands for {stores} stores, the reference holds {held}")
            });
            let m = &t.metrics;
            self.check(m.log_entries == logged && m.barrier_slow_paths == logged, || {
                format!(
                    "round {round}: {tid:?} counted {} log entries and {} slow paths, the reference {logged}",
                    m.log_entries, m.barrier_slow_paths
                )
            });
        }
        // A live stamp names its writer's entry for the word: the entry a
        // repeat store folds into.
        for (loc, w) in vm.heap().speculative_writes() {
            let entry = vm.vm_threads()[w.writer.index()].undo.since(origin()).get(w.log_pos);
            self.check(entry.is_some_and(|e| e.loc == loc), || {
                format!("round {round}: the stamp on {loc:?} names {w:?}, whose entry is {entry:?}")
            });
        }
    }
}

/// A mark at log position 0.
fn origin() -> revmon_core::LogMark {
    revmon_core::UndoLog::<()>::new().mark()
}

impl Probe for Reference {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn on_section_enter(&mut self, vm: &Vm, tid: ThreadId, _monitor: ObjRef) {
        let vm_len = vm.vm_threads()[tid.index()].undo.len();
        let live = vm.vm_threads()[tid.index()].sections.len();
        let log = self.log(tid);
        // Sections that exited without a commit leave their marks behind.
        log.marks.truncate(live - 1);
        log.marks.push((vm_len, log.entries.len()));
    }

    fn on_heap_write(
        &mut self,
        tid: ThreadId,
        loc: Location,
        old: Value,
        new: Value,
        logged: bool,
    ) {
        if let Some(&seen) = self.mirror.get(&loc) {
            self.check(seen == old, || {
                format!("{tid:?} overwrote {loc:?}: {old:?}, mirror {seen:?}")
            });
        }
        self.mirror.insert(loc, new);
        if logged {
            let log = self.log(tid);
            log.entries.push((loc, old));
            log.logged += 1;
        }
    }

    fn on_commit(&mut self, vm: &Vm, tid: ThreadId, _monitor: ObjRef) {
        let log = self.log(tid);
        log.entries.clear();
        log.marks.clear();
        self.check(vm.vm_threads()[tid.index()].undo.is_empty(), || {
            format!("{tid:?} committed its outermost section and kept its log")
        });
    }

    fn on_rollback(&mut self, vm: &Vm, tid: ThreadId, monitor: ObjRef, entries: u64) {
        let t = &vm.vm_threads()[tid.index()];
        let restored_to = t.undo.len();
        let log = self.log(tid);
        // The rolled-back section is the newest one entered at that length
        // of the VM's log.
        let Some(&(_, cut)) = log.marks.iter().rev().find(|(vm_len, _)| *vm_len == restored_to)
        else {
            let marks = log.marks.clone();
            self.errors
                .push(format!("{tid:?} rolled back to {restored_to}, no mark there: {marks:?}"));
            return;
        };
        let undone = (log.entries.len() - cut) as u64;
        let restore: Vec<(Location, Value)> = log.entries.drain(cut..).rev().collect();
        log.marks.retain(|(vm_len, _)| *vm_len < restored_to);
        if t.sections.len() > log.marks.len() {
            log.marks.push((restored_to, cut)); // the post-wait restart's section survives
        }
        log.rolled_back += undone;
        let rolled_back = log.rolled_back;
        for (loc, old) in restore {
            self.mirror.insert(loc, old);
        }
        self.rollbacks.push((tid, undone));
        self.check(entries == undone, || {
            format!("{tid:?} rolled back {monitor} reporting {entries} entries, the reference undid {undone}")
        });
        self.check(t.metrics.entries_rolled_back == rolled_back, || {
            format!(
                "{tid:?} counts {} entries rolled back, the reference {rolled_back}",
                t.metrics.entries_rolled_back
            )
        });
        self.check_heap(vm, &format!("{tid:?} rolled back {monitor}"));
    }
}

// --- Driving a run. -----------------------------------------------------

/// Round cap per run: a stop for livelocks.
const MAX_ROUNDS: usize = 50_000;

/// What a run came to, to show the comparisons were not vacuous.
#[derive(Default)]
struct Tally {
    rollbacks: u64,
    undone: u64,
    /// Rollbacks that undid more stores than the VM's log held entries.
    folded: u64,
}

/// Run `vm` (threads spawned, `trace` on) under `script` with the
/// reference attached; panic on the first disagreement.
fn run_against_reference(label: &str, mut vm: Vm, script: &[u32], tally: &mut Tally) {
    vm.set_schedule_policy(Box::new(Scripted::new(script.to_vec())));
    vm.attach_probe(Box::new(Reference::default()));
    let mut peak_entries = 0;
    for round in 0..MAX_ROUNDS {
        let done = !matches!(vm.run_round(), Ok(r) if r != RoundOutcome::Done);
        let longest = vm.vm_threads().iter().map(|t| t.undo.len()).max().unwrap_or(0);
        peak_entries = peak_entries.max(longest);
        let mut reference = detach(&mut vm);
        reference.check_round(&vm, round);
        assert!(reference.errors.is_empty(), "{label} script={script:?}: {:#?}", reference.errors);
        vm.attach_probe(reference);
        if done {
            break;
        }
    }
    let mut reference = detach(&mut vm);
    reference.check_heap(&vm, "end of run");
    let events: Vec<(u64, u64, u64)> = vm
        .take_trace()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Rollback { entries, duration } => Some((e.thread, entries, duration)),
            _ => None,
        })
        .collect();
    let cost = vm.config().cost;
    let want: Vec<(u64, u64, u64)> = reference
        .rollbacks
        .iter()
        .map(|&(tid, n)| (tid.0 as u64, n, cost.rollback(n as usize)))
        .collect();
    assert!(reference.errors.is_empty(), "{label} script={script:?}: {:#?}", reference.errors);
    assert_eq!(events, want, "{label} script={script:?}: Rollback events (thread, entries, ticks)");
    tally.rollbacks += want.len() as u64;
    let undone: u64 = want.iter().map(|w| w.1).sum();
    tally.undone += undone;
    tally.folded += (undone > peak_entries as u64 && !want.is_empty()) as u64;
}

fn detach(vm: &mut Vm) -> Box<Reference> {
    let probe = vm.detach_probe().expect("attached by the run");
    probe.into_any().downcast().expect("the probe is the reference")
}

/// Scripts that switch away from the default at each of the first
/// `points` decisions, to each of two alternatives.
fn sweep(points: usize) -> Vec<Vec<u32>> {
    let mut scripts = vec![vec![]];
    for k in 0..points {
        for alt in [1, 2] {
            let mut s = vec![0; k];
            s.push(alt);
            scripts.push(s);
        }
    }
    scripts
}

fn method(p: &Program, name: &str) -> MethodId {
    p.method_by_name(name).expect("declared")
}

fn locks(vm: &mut Vm, n: usize) -> Vec<Value> {
    (0..n).map(|_| Value::Ref(vm.heap_mut().alloc(0, 0))).collect()
}

// --- Random section programs. ------------------------------------------

const LOCKS: u16 = 3;
const STATICS: u16 = 3;
const ARRAY: i64 = 4;
/// Locals: the locks, the array, then one loop counter per nesting depth.
const LOCALS: u16 = LOCKS + 1 + 3;

/// One block of 1–4 random statements, `depth` more levels of `sync`
/// and loops allowed inside. Few words, so stores repeat.
fn emit_block(b: &mut MethodBuilder, rng: &mut SmallRng, depth: u16) {
    for _ in 0..rng.gen_range(1..5) {
        match rng.gen_range(0..10) {
            0..=2 => b.add_static(rng.gen_range(0..STATICS), rng.gen_range(1..5)),
            3 => {
                b.const_i(rng.gen_range(0..9));
                b.put_static(rng.gen_range(0..STATICS));
            }
            4 => {
                b.load(LOCKS);
                b.const_i(rng.gen_range(0..ARRAY));
                b.const_i(rng.gen_range(0..9));
                b.astore();
            }
            5 => {
                b.const_i(rng.gen_range(1..200));
                b.sleep();
            }
            6..=7 if depth > 0 => {
                let counter = LOCKS + depth;
                b.repeat(counter, rng.gen_range(2..8), |b| emit_block(b, rng, depth - 1));
            }
            _ if depth > 0 => {
                let lock = rng.gen_range(0..LOCKS);
                b.sync_on_local(lock, |b| emit_block(b, rng, depth - 1));
            }
            _ => b.add_static(0, 1),
        }
    }
}

/// A random program on one core, its threads spawned, drawn from `seed`.
fn random_vm(seed: u64, jmm_guard: bool) -> Vm {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    pb.statics(STATICS as u32);
    let threads = rng.gen_range(2..5);
    let methods: Vec<MethodId> = (0..threads)
        .map(|t| {
            let m = pb.declare_method(&format!("t{t}"), LOCKS + 1);
            let mut b = MethodBuilder::new(LOCKS + 1, LOCALS);
            emit_block(&mut b, &mut rng, 3);
            b.ret_void();
            pb.implement(m, b);
            m
        })
        .collect();
    let mut cfg = VmConfig::modified();
    cfg.cost.quantum = rng.gen_range(1..40);
    cfg.jmm_guard = jmm_guard;
    cfg.trace = true;
    let mut vm = Vm::new(pb.finish(), cfg);
    let mut args = locks(&mut vm, LOCKS as usize);
    args.push(Value::Ref(vm.heap_mut().alloc_array(ARRAY as u32)));
    for (t, m) in methods.into_iter().enumerate() {
        let prio = [Priority::LOW, Priority::NORM, Priority::HIGH][rng.gen_range(0..3usize)];
        vm.spawn(&format!("t{t}"), m, args.clone(), prio);
    }
    vm
}

#[test]
fn random_section_programs_agree_with_the_log_every_store_barrier() {
    let mut tally = Tally::default();
    for seed in 0..80 {
        for jmm_guard in [true, false] {
            for script in sweep(6) {
                let label = format!("random seed {seed} guard={jmm_guard}");
                run_against_reference(&label, random_vm(seed, jmm_guard), &script, &mut tally);
            }
        }
    }
    assert!(tally.rollbacks > 100, "{} rollbacks", tally.rollbacks);
    assert!(tally.folded > 0, "no rollback undid a folded store");
}

// --- The post-wait restart. --------------------------------------------

/// `waiter(lock)`: `sync lock { 3 × s0 += 1; while s1 == 0 wait;
/// 400 × { s2 += 1; s0 += 1 } }`; a notifier; and a HIGH contender whose
/// arrival `delay` sweeps the post-wait part, where a revocation restarts
/// the section after the `wait` and must not undo the pre-wait stores.
fn post_wait_vm(delay: i64, jmm_guard: bool) -> Vm {
    let mut pb = ProgramBuilder::new();
    pb.statics(3);
    let waiter = pb.declare_method("waiter", 1);
    let mut w = MethodBuilder::new(1, 2);
    w.sync_on_local(0, |b| {
        b.repeat(1, 3, |b| b.add_static(0, 1));
        let check = b.here();
        b.get_static(1);
        let go = b.new_label();
        b.if_non_zero(go);
        b.wait_on_local(0);
        b.goto(check);
        b.place(go);
        b.repeat(1, 400, |b| {
            b.add_static(2, 1);
            b.add_static(0, 1);
        });
    });
    w.ret_void();
    pb.implement(waiter, w);
    let notifier = pb.declare_method("notifier", 1);
    let mut n = MethodBuilder::new(1, 1);
    n.const_i(300);
    n.sleep();
    n.sync_on_local(0, |b| {
        b.const_i(1);
        b.put_static(1);
        b.notify_all_local(0);
    });
    n.ret_void();
    pb.implement(notifier, n);
    let contender = pb.declare_method("contender", 1);
    let mut c = MethodBuilder::new(1, 1);
    c.const_i(delay);
    c.sleep();
    c.sync_on_local(0, |b| b.add_static(2, 100));
    c.ret_void();
    pb.implement(contender, c);
    let program = pb.finish();
    let mut cfg = VmConfig::modified();
    cfg.cost.quantum = 50;
    cfg.jmm_guard = jmm_guard;
    cfg.trace = true;
    let mut vm = Vm::new(program.clone(), cfg);
    let l = locks(&mut vm, 1);
    vm.spawn("waiter", method(&program, "waiter"), l.clone(), Priority::LOW);
    vm.spawn("notifier", method(&program, "notifier"), l.clone(), Priority::NORM);
    vm.spawn("contender", method(&program, "contender"), l, Priority::HIGH);
    vm
}

#[test]
fn post_wait_restarts_agree_with_the_log_every_store_barrier() {
    let mut tally = Tally::default();
    for delay in (0..3_000).step_by(150) {
        for jmm_guard in [true, false] {
            for script in sweep(3) {
                let label = format!("post-wait delay={delay} guard={jmm_guard}");
                run_against_reference(&label, post_wait_vm(delay, jmm_guard), &script, &mut tally);
            }
        }
    }
    assert!(tally.rollbacks > 10 && tally.folded > 0, "{} rollbacks", tally.rollbacks);
}

// --- The log's shape. ---------------------------------------------------

/// Run `body` as one thread's method (locals: two locks, a counter)
/// round by round and return the largest its undo log grew.
fn peak_log(body: impl FnOnce(&mut MethodBuilder)) -> usize {
    let mut pb = ProgramBuilder::new();
    pb.statics(2);
    let main = pb.declare_method("main", 2);
    let mut b = MethodBuilder::new(2, 3);
    body(&mut b);
    b.ret_void();
    pb.implement(main, b);
    let program = pb.finish();
    let mut cfg = VmConfig::modified();
    cfg.cost.quantum = 7;
    cfg.trace = true;
    let mut vm = Vm::new(program.clone(), cfg);
    let l = locks(&mut vm, 2);
    vm.spawn("main", method(&program, "main"), l, Priority::NORM);
    let mut peak = 0;
    while matches!(vm.run_round(), Ok(r) if r != RoundOutcome::Done) {
        peak = peak.max(vm.vm_threads()[0].undo.len());
    }
    assert!(vm.vm_threads()[0].metrics.log_entries > 100, "the section stores");
    peak
}

#[test]
fn a_word_takes_one_entry_per_section_layer() {
    // Repeat stores fold into the word's first entry — also the first
    // entry of the log, at the section's mark.
    assert_eq!(peak_log(|b| b.sync_on_local(0, |b| b.repeat(2, 200, |b| b.add_static(0, 1)))), 1);
    // Two words, two entries.
    let two = peak_log(|b| {
        b.sync_on_local(0, |b| {
            b.repeat(2, 100, |b| {
                b.add_static(0, 1);
                b.add_static(1, 1);
            })
        })
    });
    assert_eq!(two, 2);
    // A nested section logs the word again (its rollback must restore
    // the outer section's value); after it exits, the outer section's
    // stores fold into that newer entry.
    let nested = peak_log(|b| {
        b.sync_on_local(0, |b| {
            b.add_static(0, 1);
            b.sync_on_local(1, |b| b.repeat(2, 100, |b| b.add_static(0, 1)));
            b.repeat(2, 100, |b| b.add_static(0, 1));
        })
    });
    assert_eq!(nested, 2);
}
