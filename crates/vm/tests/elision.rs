//! End-to-end write-barrier elision (§1.1's compiler optimization):
//! observational equivalence, cheaper stores, and soundness under
//! cross-monitor calls and delegated sections.

use revmon_core::Priority;
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::{MethodId, Program};
use revmon_vm::value::Value;
use revmon_vm::{Vm, VmConfig};

/// `run(lock, iters)`: an *unmonitored* store loop on static 1, then a
/// synchronized counting section on static 0, then `helper()` (which
/// stores to static 2) called outside the monitor.
fn mixed_program() -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    pb.statics(3);
    let helper = pb.declare_method("helper", 0);
    let mut h = MethodBuilder::new(0, 0);
    h.get_static(2);
    h.const_i(1);
    h.add();
    h.put_static(2);
    h.ret_void();
    pb.implement(helper, h);
    let run = pb.declare_method("run", 2);
    let mut b = MethodBuilder::new(2, 3);
    // unmonitored store loop
    b.const_i(0);
    b.store(2);
    let top = b.here();
    b.load(2);
    b.load(1);
    let done = b.new_label();
    b.if_ge(done);
    b.get_static(1);
    b.const_i(1);
    b.add();
    b.put_static(1);
    b.load(2);
    b.const_i(1);
    b.add();
    b.store(2);
    b.goto(top);
    b.place(done);
    // monitored section
    b.sync_on_local(0, |b| {
        b.const_i(0);
        b.store(2);
        let t2 = b.here();
        b.load(2);
        b.load(1);
        let d2 = b.new_label();
        b.if_ge(d2);
        b.get_static(0);
        b.const_i(1);
        b.add();
        b.put_static(0);
        b.load(2);
        b.const_i(1);
        b.add();
        b.store(2);
        b.goto(t2);
        b.place(d2);
    });
    b.call(helper);
    b.ret_void();
    pb.implement(run, b);
    (pb.finish(), run)
}

fn run_mixed(elide: bool) -> (Vm, revmon_vm::RunReport) {
    let (p, run) = mixed_program();
    let cfg = if elide { VmConfig::modified().with_elision() } else { VmConfig::modified() };
    let mut vm = Vm::new(p, cfg);
    let lock = vm.heap_mut().alloc(0, 0);
    for i in 0..3 {
        let prio = if i == 0 { Priority::HIGH } else { Priority::LOW };
        vm.spawn(&format!("t{i}"), run, vec![Value::Ref(lock), Value::Int(2_000)], prio);
    }
    let r = vm.run().expect("run");
    (vm, r)
}

#[test]
fn elision_preserves_results() {
    let (a, ra) = run_mixed(false);
    let (b, rb) = run_mixed(true);
    for s in 0..3 {
        assert_eq!(a.read_static(s).unwrap(), b.read_static(s).unwrap(), "static {s} differs");
    }
    // Rollback behaviour unchanged — elided stores were never logged
    // anyway (they are outside every section).
    assert_eq!(ra.global.rollbacks, rb.global.rollbacks);
    assert_eq!(ra.global.log_entries, rb.global.log_entries);
}

#[test]
fn elision_reduces_barrier_fast_paths() {
    let (_, full) = run_mixed(false);
    let (_, elided) = run_mixed(true);
    assert!(
        elided.global.barrier_fast_paths < full.global.barrier_fast_paths,
        "elided {} vs full {}",
        elided.global.barrier_fast_paths,
        full.global.barrier_fast_paths
    );
    assert!(elided.global.barriers_elided > 0);
    // Every store either took the barrier or was elided.
    assert_eq!(
        elided.global.barrier_fast_paths + elided.global.barriers_elided,
        full.global.barrier_fast_paths
    );
    // Slow paths are exactly the in-section stores, i.e. the logged ones
    // — elision (outside-section stores only) cannot change that count.
    assert_eq!(full.global.barrier_slow_paths, full.global.log_entries);
    assert_eq!(elided.global.barrier_slow_paths, full.global.barrier_slow_paths);
}

#[test]
fn elision_reduces_virtual_time() {
    let (_, full) = run_mixed(false);
    let (_, elided) = run_mixed(true);
    assert!(elided.clock < full.clock, "elided {} vs full {}", elided.clock, full.clock);
}

#[test]
fn elision_table_statistics_exposed() {
    let (p, _) = mixed_program();
    let vm = Vm::new(p, VmConfig::modified().with_elision());
    let t = vm.elision_table().expect("analysis ran");
    assert!(t.store_sites >= 3);
    assert!(t.elided_sites >= 2, "unmonitored loop + helper stores elide");
    assert!(t.elided_sites < t.store_sites, "in-section store kept");
}

#[test]
fn monitored_helper_is_not_elided() {
    // helper() called from INSIDE the monitor keeps its barrier: its
    // stores must be logged for rollback.
    let mut pb = ProgramBuilder::new();
    pb.statics(2);
    let helper = pb.declare_method("helper", 0);
    let mut h = MethodBuilder::new(0, 0);
    h.get_static(1);
    h.const_i(1);
    h.add();
    h.put_static(1);
    h.ret_void();
    pb.implement(helper, h);
    let run = pb.declare_method("run", 2);
    let mut b = MethodBuilder::new(2, 3);
    b.sync_on_local(0, |b| {
        b.const_i(0);
        b.store(2);
        let t = b.here();
        b.load(2);
        b.load(1);
        let d = b.new_label();
        b.if_ge(d);
        b.call(helper);
        b.load(2);
        b.const_i(1);
        b.add();
        b.store(2);
        b.goto(t);
        b.place(d);
    });
    b.ret_void();
    pb.implement(run, b);
    let mut vm = Vm::new(pb.finish(), VmConfig::modified().with_elision());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("low", run, vec![Value::Ref(lock), Value::Int(3_000)], Priority::LOW);
    vm.spawn("high", run, vec![Value::Ref(lock), Value::Int(300)], Priority::HIGH);
    let r = vm.run().expect("run");
    // helper's stores were logged (they're in-section via the call chain)…
    assert!(r.global.log_entries > 0);
    // …and the rollback machinery still restores them exactly.
    assert!(r.global.rollbacks >= 1);
    assert_eq!(vm.read_static(1).unwrap(), Value::Int(3_300));
}

/// A delegated method runs inside the combiner's section on whatever
/// thread holds the monitor, so its stores keep their barriers even
/// though no region calls it: `programs/delegation_storm.rvm` logs all
/// 650 of its in-section stores with elision on (a debug build asserts
/// that no elided store runs under a monitor).
#[test]
fn delegated_stores_keep_their_barriers() {
    let run = |cfg: VmConfig| {
        let p = revmon_vm::assemble(include_str!("../../../programs/delegation_storm.rvm"))
            .expect("corpus program assembles");
        let main = p.method_by_name("main").expect("corpus program has main");
        let mut vm = Vm::new(p, cfg);
        vm.spawn("main", main, vec![], Priority::NORM);
        let r = vm.run().expect("run");
        (vm.output().to_vec(), r.global)
    };
    let (out, full) = run(VmConfig::modified());
    let (elided_out, elided) = run(VmConfig::modified().with_elision());
    assert_eq!(out, [Value::Int(650)]);
    assert_eq!(elided_out, out);
    assert_eq!(elided.log_entries, full.log_entries);
    assert_eq!(elided.log_entries, 650);
    assert_eq!(elided.barriers_elided, 0, "every store of the program can run under the monitor");
}
