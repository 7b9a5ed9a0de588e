//! The rollback oracle against its reference.
//!
//! `invariants::Oracle` shadows heap words by index: per word, the live
//! speculative entry and the serial of the last layer that recorded it;
//! per section layer, a first-write list. [`MapOracle`] below is the
//! oracle as it was written on maps — per layer, location → first
//! pre-value; per location, the speculative entry — kept verbatim as the
//! reference model, the way `obs/tests/writer_reference.rs` keeps the old
//! trace writers. One [`Tee`] probe drives both through the same runs, and
//! they must agree on the rollbacks checked, the commits seen and the
//! violations found (sorted: neither promises an order) over
//!
//! * every corpus program at 1 and 2 cores under `runner_pin`'s six
//!   scripts, with rollback correct and with `fault_skip_undo` 1 and
//!   1 000 000;
//! * every `testprogs` runner under those scripts and random ones;
//! * the nested-rollback, post-`wait` and JMM scenarios of
//!   `crates/vm/tests`, and a speculative write overwritten outside any
//!   section before a foreign read;
//! * 240 seeded random programs in `differential.rs`'s style, a third of
//!   them with the JMM guard off.
//!
//! The scenarios run with the JMM guard off as well, which is how the
//! `jmm-observed-write-revoked` path gets exercised: a speculative write
//! another thread read is then rolled back.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use revmon_core::{FxMap, GovernorConfig, Priority, ThreadId};
use revmon_explore::{testprogs, Oracle, OracleState, Runner, Violation};
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::{MethodId, Program};
use revmon_vm::heap::Location;
use revmon_vm::value::{ObjRef, Value};
use revmon_vm::{Probe, RoundOutcome, Scripted, Vm, VmConfig};
use std::any::Any;

// --- The reference: the map-based oracle as it was. -------------------

/// One mirrored section layer: the undo-log length at entry and the
/// first-overwritten (pre-section) value of every location logged while
/// it was the innermost *recorded* layer.
#[derive(Debug)]
struct Layer {
    mark_len: usize,
    expected: FxMap<Location, Value>,
}

/// What the reference has seen and concluded.
#[derive(Debug, Default)]
struct MapState {
    violations: Vec<Violation>,
    rollbacks_checked: u64,
    commits: u64,
    /// Mirror of each thread's active section layers, indexed by
    /// `ThreadId`.
    layers: Vec<Vec<Layer>>,
    /// Mirror of the speculative-write stamps: location → (writer, value),
    /// plus whether a *different* thread has observed the value.
    speculative: FxMap<Location, (ThreadId, Value, bool)>,
}

impl MapState {
    /// `tid`'s layer stack, grown on a thread's first section.
    fn layers_of(&mut self, tid: ThreadId) -> &mut Vec<Layer> {
        if self.layers.len() <= tid.index() {
            self.layers.resize_with(tid.index() + 1, Vec::new);
        }
        &mut self.layers[tid.index()]
    }
}

#[derive(Debug, Default)]
struct MapOracle {
    state: MapState,
}

impl Probe for MapOracle {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn on_section_enter(&mut self, vm: &Vm, tid: ThreadId, _monitor: ObjRef) {
        let mark_len = vm.vm_threads()[tid.index()].undo.len();
        self.state.layers_of(tid).push(Layer { mark_len, expected: FxMap::default() });
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
        if let Some(top) = st.layers.get_mut(tid.index()).and_then(|layers| layers.last_mut()) {
            top.expected.entry(loc).or_insert(old);
        }
        st.speculative.insert(loc, (tid, new, false));
    }

    fn on_heap_read(&mut self, tid: ThreadId, loc: Location, value: Value) {
        if let Some(entry) = self.state.speculative.get_mut(&loc) {
            if entry.0 != tid && entry.1 == value {
                entry.2 = true; // a foreign thread observed the speculation
            }
        }
    }

    fn on_commit(&mut self, vm: &Vm, tid: ThreadId, _monitor: ObjRef) {
        let st = &mut self.state;
        st.commits += 1;
        st.layers_of(tid).clear();
        st.speculative.retain(|_, &mut (w, _, _)| w != tid);
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
        // read after rollback is the *oldest* logged pre-value.
        let mut expected: FxMap<Location, Value> = FxMap::default();
        for layer in &undone {
            for (&loc, &old) in &layer.expected {
                expected.entry(loc).or_insert(old);
            }
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
        for (loc, &(w, val, seen)) in st.speculative.iter() {
            if w == tid && seen && expected.contains_key(loc) {
                st.violations.push(Violation {
                    invariant: "jmm-observed-write-revoked",
                    detail: format!(
                        "{tid:?} rolled back {monitor}: speculative value {val} at {loc:?} had been observed by another thread"
                    ),
                });
            }
        }
        st.speculative.retain(|loc, &mut (w, _, _)| !(w == tid && expected.contains_key(loc)));

        // The surviving (post-wait restart) section, if any, starts a
        // fresh expectation layer at the restored log length.
        let live_sections = vm.vm_threads()[tid.index()].sections.len();
        while kept.len() < live_sections {
            kept.push(Layer { mark_len: restored_to, expected: FxMap::default() });
        }
        *st.layers_of(tid) = kept;
    }
}

// --- Both oracles on one run. -----------------------------------------

/// Forwards every hook to the oracle under test and to the reference.
struct Tee {
    new: Box<Oracle>,
    reference: MapOracle,
}

impl Probe for Tee {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn on_section_enter(&mut self, vm: &Vm, tid: ThreadId, monitor: ObjRef) {
        self.new.on_section_enter(vm, tid, monitor);
        self.reference.on_section_enter(vm, tid, monitor);
    }

    fn on_heap_write(
        &mut self,
        tid: ThreadId,
        loc: Location,
        old: Value,
        new: Value,
        logged: bool,
    ) {
        self.new.on_heap_write(tid, loc, old, new, logged);
        self.reference.on_heap_write(tid, loc, old, new, logged);
    }

    fn on_heap_read(&mut self, tid: ThreadId, loc: Location, value: Value) {
        self.new.on_heap_read(tid, loc, value);
        self.reference.on_heap_read(tid, loc, value);
    }

    fn on_commit(&mut self, vm: &Vm, tid: ThreadId, monitor: ObjRef) {
        self.new.on_commit(vm, tid, monitor);
        self.reference.on_commit(vm, tid, monitor);
    }

    fn on_rollback(&mut self, vm: &Vm, tid: ThreadId, monitor: ObjRef, entries: u64) {
        self.new.on_rollback(vm, tid, monitor, entries);
        self.reference.on_rollback(vm, tid, monitor, entries);
    }
}

/// What an oracle concluded: rollbacks checked, commits, and the sorted
/// `(invariant, detail)` list.
type Findings = (u64, u64, Vec<(&'static str, String)>);

fn findings(rollbacks: u64, commits: u64, violations: &[Violation]) -> Findings {
    let mut v: Vec<(&'static str, String)> =
        violations.iter().map(|v| (v.invariant, v.detail.clone())).collect();
    v.sort();
    (rollbacks, commits, v)
}

/// Round cap per run: generous for the corpus, a stop for livelocks.
const MAX_ROUNDS: u32 = 200_000;

/// Run `vm` (threads already spawned) under `script` with both oracles
/// attached; require equal findings and return them.
fn run_both(label: &str, mut vm: Vm, script: &[u32]) -> Findings {
    let (policy, _log) = Scripted::new(script.to_vec());
    vm.set_schedule_policy(Box::new(policy));
    vm.attach_probe(Box::new(Tee {
        new: Box::new(Oracle::new()),
        reference: MapOracle::default(),
    }));
    for _ in 0..MAX_ROUNDS {
        match vm.run_round() {
            Ok(RoundOutcome::Done) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let tee = vm.detach_probe().expect("attached above");
    let tee = *tee.into_any().downcast::<Tee>().expect("the probe is the tee");
    vm.attach_probe(tee.new);
    let new: OracleState = Oracle::detach(&mut vm).expect("re-attached above");
    let reference = tee.reference.state;
    let got = findings(new.rollbacks_checked, new.commits, &new.violations);
    let want = findings(reference.rollbacks_checked, reference.commits, &reference.violations);
    assert_eq!(got, want, "{label} script={script:?}: the oracle and its reference disagree");
    got
}

/// A fresh VM running `program`'s parameterless `entry`, as `Runner::run`
/// builds one.
fn vm_for(program: &Program, entry: &str, cfg: VmConfig) -> Vm {
    let mut vm = Vm::new(program.clone(), cfg);
    vm.spawn(entry, method(program, entry), vec![], Priority::NORM);
    vm
}

fn method(p: &Program, name: &str) -> MethodId {
    p.method_by_name(name).expect("declared")
}

/// Totals over many runs, to show the comparisons were not vacuous.
#[derive(Default)]
struct Tally {
    rollbacks: u64,
    commits: u64,
    violations: FxMap<&'static str, u64>,
}

impl Tally {
    fn add(&mut self, f: &Findings) {
        self.rollbacks += f.0;
        self.commits += f.1;
        for (name, _) in &f.2 {
            *self.violations.entry(name).or_default() += 1;
        }
    }

    fn saw(&self, invariant: &str) -> u64 {
        self.violations.get(invariant).copied().unwrap_or(0)
    }
}

/// `runner_pin`'s scripts: the default schedule, single deviations at the
/// first three decision points, and two double deviations.
const SCRIPTS: [&[u32]; 6] = [&[], &[1], &[0, 1], &[1, 1], &[0, 0, 1], &[1, 0, 1]];

// --- Corpus and testprogs. --------------------------------------------

#[test]
fn corpus_programs_agree_at_one_and_two_cores_with_and_without_faults() {
    let dir = format!("{}/../../programs", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("programs/")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .filter(|n| n.ends_with(".rvm"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 8, "{names:?}");
    let mut tally = Tally::default();
    for name in &names {
        let src = std::fs::read_to_string(format!("{dir}/{name}")).expect("readable");
        let program = testprogs::assemble_corpus(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for cores in [1, 2] {
            for skip in [0, 1, 1_000_000] {
                let cfg =
                    VmConfig { fault_skip_undo: skip, ..VmConfig::modified().with_cores(cores) };
                for script in SCRIPTS {
                    let label = format!("{name} cores={cores} skip={skip}");
                    tally.add(&run_both(&label, vm_for(&program, "main", cfg), script));
                }
            }
        }
    }
    assert!(tally.rollbacks > 0 && tally.commits > 0);
    assert!(tally.saw("rollback-restoration") > 0, "the injected faults must be found");
}

#[test]
fn every_testprogs_runner_agrees() {
    let runners: [(&str, Runner); 8] = [
        ("two_incrementers(3)", testprogs::two_incrementers(3)),
        ("inversion_pair", testprogs::inversion_pair()),
        ("faulty_inversion_pair(1)", testprogs::faulty_inversion_pair(1)),
        ("faulty_inversion_pair(1000000)", testprogs::faulty_inversion_pair(1_000_000)),
        (
            "forced_repeat_revocation(k=1)",
            testprogs::forced_repeat_revocation(GovernorConfig { k: 1, backoff: 8, decay: 0 }),
        ),
        (
            "forced_repeat_revocation(ungoverned)",
            testprogs::forced_repeat_revocation(GovernorConfig::disabled()),
        ),
        ("delegated_adders", testprogs::delegated_adders()),
        ("deadlock_pair", testprogs::deadlock_pair()),
    ];
    let mut rng = SmallRng::seed_from_u64(0x02ac1e);
    let mut tally = Tally::default();
    for (name, runner) in &runners {
        let random: Vec<Vec<u32>> =
            (0..24).map(|_| (0..16).map(|_| rng.gen_range(0..4)).collect()).collect();
        for script in SCRIPTS.iter().copied().chain(random.iter().map(Vec::as_slice)) {
            let vm = vm_for(runner.program(), runner.entry_name(), *runner.config());
            tally.add(&run_both(name, vm, script));
        }
    }
    assert!(tally.rollbacks > 0 && tally.commits > 0);
    assert!(tally.saw("rollback-restoration") > 0);
}

// --- The nested-rollback, post-wait and JMM scenarios. ----------------

/// A program, and how to start its threads.
struct Scenario {
    name: &'static str,
    program: Program,
    spawn: fn(&mut Vm, &Program),
}

fn locks(vm: &mut Vm, n: usize) -> Vec<Value> {
    (0..n).map(|_| Value::Ref(vm.heap_mut().alloc(0, 0))).collect()
}

/// `sleep(delay); sync local0 { read s }`, at `name`.
fn late_reader(pb: &mut ProgramBuilder, name: &str, delay: i64, s: u16) {
    let m = pb.declare_method(name, 1);
    let mut b = MethodBuilder::new(1, 1);
    b.const_i(delay);
    b.sleep();
    b.sync_on_local(0, |b| {
        b.get_static(s);
        b.pop();
    });
    b.ret_void();
    pb.implement(m, b);
}

/// `low(a, b)`: `sync a { s0 += 1; sync b { 5000 × { s1 += 1; s0 += 100 } } }`;
/// `high(b)` revokes the inner section only.
fn nested_inner() -> Scenario {
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
    late_reader(&mut pb, "high", 30_000, 1);
    Scenario {
        name: "nested inner rollback",
        program: pb.finish(),
        spawn: |vm, p| {
            let l = locks(vm, 2);
            vm.spawn("low", method(p, "low"), l.clone(), Priority::LOW);
            vm.spawn("high", method(p, "high"), vec![l[1]], Priority::HIGH);
        },
    }
}

/// `low(lock)`: `sync lock { s0 += 1; sync lock { 5000 × s1 += 1 } }`,
/// revoked through its recursive hold.
fn recursive() -> Scenario {
    let mut pb = ProgramBuilder::new();
    pb.statics(2);
    let low = pb.declare_method("low", 1);
    let mut b = MethodBuilder::new(1, 3);
    b.sync_on_local(0, |b| {
        b.add_static(0, 1);
        b.sync_on_local(0, |b| b.repeat(1, 5_000, |b| b.add_static(1, 1)));
    });
    b.ret_void();
    pb.implement(low, b);
    late_reader(&mut pb, "high", 30_000, 1);
    Scenario {
        name: "recursive section",
        program: pb.finish(),
        spawn: |vm, p| {
            let l = locks(vm, 1);
            vm.spawn("low", method(p, "low"), l.clone(), Priority::LOW);
            vm.spawn("high", method(p, "high"), l, Priority::HIGH);
        },
    }
}

/// `waiter(lock)`: `sync lock { s0 = 11; while s1 == 0 wait; s2 = 22;
/// 20000 × s3 += 1 }`, a notifier, and a late HIGH contender that revokes
/// the post-wait part (the restart point of footnote 2).
fn post_wait() -> Scenario {
    let mut pb = ProgramBuilder::new();
    pb.statics(4);
    let waiter = pb.declare_method("waiter", 1);
    let mut w = MethodBuilder::new(1, 2);
    w.sync_on_local(0, |b| {
        b.const_i(11);
        b.put_static(0);
        let check = b.here();
        b.get_static(1);
        let go = b.new_label();
        b.if_non_zero(go);
        b.wait_on_local(0);
        b.goto(check);
        b.place(go);
        b.const_i(22);
        b.put_static(2);
        b.repeat(1, 20_000, |b| b.add_static(3, 1));
    });
    w.ret_void();
    pb.implement(waiter, w);
    let notifier = pb.declare_method("notifier", 1);
    let mut n = MethodBuilder::new(1, 1);
    n.const_i(30_000);
    n.sleep();
    n.sync_on_local(0, |b| {
        b.const_i(1);
        b.put_static(1);
        b.notify_all_local(0);
    });
    n.ret_void();
    pb.implement(notifier, n);
    late_reader(&mut pb, "contender", 120_000, 0);
    Scenario {
        name: "post-wait restart",
        program: pb.finish(),
        spawn: |vm, p| {
            let l = locks(vm, 1);
            vm.spawn("waiter", method(p, "waiter"), l.clone(), Priority::LOW);
            vm.spawn("notifier", method(p, "notifier"), l.clone(), Priority::NORM);
            vm.spawn("contender", method(p, "contender"), l, Priority::HIGH);
        },
    }
}

/// Figure 2: `writer(outer, inner)`: `sync outer { sync inner { s0 = 1 }
/// 30000 × s1 += 1 }`, a reader of `s0` under `inner`, and a HIGH
/// contender for `outer`.
fn figure2() -> Scenario {
    let mut pb = ProgramBuilder::new();
    pb.statics(2);
    let writer = pb.declare_method("writer", 2);
    let mut w = MethodBuilder::new(2, 3);
    w.sync_on_local(0, |b| {
        b.sync_on_local(1, |b| {
            b.const_i(1);
            b.put_static(0);
        });
        b.repeat(2, 30_000, |b| b.add_static(1, 1));
    });
    w.ret_void();
    pb.implement(writer, w);
    late_reader(&mut pb, "reader", 30_000, 0);
    late_reader(&mut pb, "contender", 60_000, 1);
    Scenario {
        name: "figure 2",
        program: pb.finish(),
        spawn: |vm, p| {
            let l = locks(vm, 2);
            vm.spawn("T", method(p, "writer"), l.clone(), Priority::LOW);
            vm.spawn("T'", method(p, "reader"), vec![l[1]], Priority::LOW);
            vm.spawn("Th", method(p, "contender"), vec![l[0]], Priority::HIGH);
        },
    }
}

/// Figure 3: a volatile written inside a monitor, spun on by a thread
/// that holds no monitor, and a HIGH contender.
fn figure3() -> Scenario {
    let mut pb = ProgramBuilder::new();
    pb.statics(3);
    pb.volatile_static(0);
    let writer = pb.declare_method("writer", 1);
    let mut w = MethodBuilder::new(1, 2);
    w.sync_on_local(0, |b| {
        b.const_i(1);
        b.put_static(0);
        b.repeat(1, 30_000, |b| b.add_static(1, 1));
    });
    w.ret_void();
    pb.implement(writer, w);
    let reader = pb.declare_method("reader", 0);
    let mut r = MethodBuilder::new(0, 0);
    let spin = r.here();
    r.get_static(0);
    let seen = r.new_label();
    r.if_non_zero(seen);
    r.goto(spin);
    r.place(seen);
    r.const_i(1);
    r.put_static(2);
    r.ret_void();
    pb.implement(reader, r);
    late_reader(&mut pb, "contender", 60_000, 1);
    Scenario {
        name: "figure 3",
        program: pb.finish(),
        spawn: |vm, p| {
            let l = locks(vm, 1);
            vm.spawn("T", method(p, "writer"), l.clone(), Priority::LOW);
            vm.spawn("T'", method(p, "reader"), vec![], Priority::LOW);
            vm.spawn("Th", method(p, "contender"), l, Priority::HIGH);
        },
    }
}

/// A `wait` inside a nested monitor pins both enclosing sections.
fn nested_wait() -> Scenario {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let waiter = pb.declare_method("waiter", 2);
    let mut w = MethodBuilder::new(2, 2);
    w.sync_on_local(0, |b| {
        b.add_static(0, 1);
        b.sync_on_local(1, |b| b.wait_on_local(1));
        b.add_static(0, 1);
    });
    w.ret_void();
    pb.implement(waiter, w);
    let notifier = pb.declare_method("notifier", 2);
    let mut n = MethodBuilder::new(2, 2);
    n.const_i(50_000);
    n.sleep();
    n.sync_on_local(1, |b| b.notify_all_local(1));
    n.sync_on_local(0, |b| b.add_static(0, 10));
    n.ret_void();
    pb.implement(notifier, n);
    Scenario {
        name: "nested wait",
        program: pb.finish(),
        spawn: |vm, p| {
            let l = locks(vm, 2);
            vm.spawn("waiter", method(p, "waiter"), l.clone(), Priority::LOW);
            vm.spawn("notifier", method(p, "notifier"), l, Priority::HIGH);
        },
    }
}

/// `writer(lock)`: `sync lock { s0 = 1; 30000 × s1 += 1 }`; a meddler
/// outside any section overwrites `s0` (unlogged) and reads it back — a
/// foreign read that does *not* see the speculative value — before a
/// HIGH contender revokes the writer.
fn overwritten_speculation() -> Scenario {
    let mut pb = ProgramBuilder::new();
    pb.statics(2);
    let writer = pb.declare_method("writer", 1);
    let mut w = MethodBuilder::new(1, 2);
    w.sync_on_local(0, |b| {
        b.const_i(1);
        b.put_static(0);
        b.repeat(1, 30_000, |b| b.add_static(1, 1));
    });
    w.ret_void();
    pb.implement(writer, w);
    let meddler = pb.declare_method("meddler", 0);
    let mut m = MethodBuilder::new(0, 0);
    m.const_i(20_000);
    m.sleep();
    m.const_i(2);
    m.put_static(0);
    m.get_static(0);
    m.pop();
    m.ret_void();
    pb.implement(meddler, m);
    late_reader(&mut pb, "contender", 60_000, 1);
    Scenario {
        name: "overwritten speculation",
        program: pb.finish(),
        spawn: |vm, p| {
            let l = locks(vm, 1);
            vm.spawn("writer", method(p, "writer"), l.clone(), Priority::LOW);
            vm.spawn("meddler", method(p, "meddler"), vec![], Priority::LOW);
            vm.spawn("contender", method(p, "contender"), l, Priority::HIGH);
        },
    }
}

#[test]
fn nested_rollback_post_wait_and_jmm_scenarios_agree() {
    let mut tally = Tally::default();
    let scenarios = [
        nested_inner(),
        recursive(),
        post_wait(),
        figure2(),
        figure3(),
        nested_wait(),
        overwritten_speculation(),
    ];
    for scenario in scenarios {
        for cores in [1, 2] {
            for skip in [0, 1, u32::MAX] {
                for jmm_guard in [true, false] {
                    let mut cfg = VmConfig::modified().with_cores(cores);
                    cfg.fault_skip_undo = skip;
                    cfg.jmm_guard = jmm_guard;
                    let mut vm = Vm::new(scenario.program.clone(), cfg);
                    (scenario.spawn)(&mut vm, &scenario.program);
                    let label =
                        format!("{} cores={cores} skip={skip} guard={jmm_guard}", scenario.name);
                    tally.add(&run_both(&label, vm, &[]));
                }
            }
        }
    }
    assert!(tally.rollbacks > 0 && tally.commits > 0);
    assert!(tally.saw("rollback-restoration") > 0, "{:?}", tally.violations);
    assert!(tally.saw("jmm-observed-write-revoked") > 0, "{:?}", tally.violations);
}

// --- Random programs. ---------------------------------------------------

const LOCKS: u16 = 3;
const STATICS: u16 = 4;
const ARRAY: i64 = 8;
/// Locals: the locks, the array, then one loop counter per nesting depth.
const LOCALS: u16 = LOCKS + 1 + 3;

/// One block of 1–4 random statements; `depth` more levels of `sync` and
/// loops may nest inside it.
fn emit_block(b: &mut MethodBuilder, rng: &mut SmallRng, depth: u16) {
    for _ in 0..rng.gen_range(1..5) {
        match rng.gen_range(0..10) {
            0..=2 => b.add_static(rng.gen_range(0..STATICS), rng.gen_range(1..5)),
            3 => {
                b.get_static(rng.gen_range(0..STATICS));
                b.pop();
            }
            4 => {
                b.load(LOCKS);
                b.const_i(rng.gen_range(0..ARRAY));
                b.const_i(rng.gen_range(0..9));
                b.astore();
            }
            5 => {
                b.const_i(rng.gen_range(1..300));
                b.work();
            }
            6 => {
                b.const_i(rng.gen_range(1..400));
                b.sleep();
            }
            7 if depth > 0 => {
                let counter = LOCKS + depth;
                b.repeat(counter, rng.gen_range(2..6), |b| emit_block(b, rng, depth - 1));
            }
            _ if depth > 0 => {
                let lock = rng.gen_range(0..LOCKS);
                b.sync_on_local(lock, |b| emit_block(b, rng, depth - 1));
            }
            _ => b.add_static(0, 1),
        }
    }
}

/// A random program, its configuration and a random script — all drawn
/// from `seed`. Locks nest in any order, so deadlocks (and the
/// revocations that break them) come up too.
fn random_case(seed: u64) -> (Vm, Vec<u32>) {
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
    let mut cfg = VmConfig::modified().with_cores(rng.gen_range(1..3));
    cfg.cost.quantum = rng.gen_range(1..60);
    cfg.jmm_guard = rng.gen_range(0..3) != 0;
    cfg.fault_skip_undo = [0, 0, 1, 1_000_000][rng.gen_range(0..4usize)];
    let mut vm = Vm::new(pb.finish(), cfg);
    let mut args = locks(&mut vm, LOCKS as usize);
    args.push(Value::Ref(vm.heap_mut().alloc_array(ARRAY as u32)));
    for (t, m) in methods.into_iter().enumerate() {
        let prio = [Priority::LOW, Priority::NORM, Priority::HIGH][rng.gen_range(0..3usize)];
        vm.spawn(&format!("t{t}"), m, args.clone(), prio);
    }
    let script = (0..rng.gen_range(0..12)).map(|_| rng.gen_range(0..4)).collect();
    (vm, script)
}

#[test]
fn seeded_random_programs_agree() {
    let mut tally = Tally::default();
    for seed in 0..240 {
        let (vm, script) = random_case(seed);
        tally.add(&run_both(&format!("random seed {seed}"), vm, &script));
    }
    assert!(tally.rollbacks > 0 && tally.commits > 0);
    assert!(tally.saw("rollback-restoration") > 0, "{:?}", tally.violations);
}
