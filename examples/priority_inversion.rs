//! The paper's Figure 1 walkthrough on the VM substrate, plus a
//! side-by-side latency comparison of the four inversion policies.
//!
//! A low-priority thread `Tl` is caught inside a long synchronized
//! section when high-priority `Th` arrives. Under revocation, `Tl` is
//! preempted: its updates to `o1` are undone, control returns to its
//! `monitorenter`, and `Th` enters first — the exact event sequence of
//! Fig. 1(a)–(f), printed from the VM's trace.
//!
//! Run with `cargo run --release --example priority_inversion`.

use revmon::core::{InversionPolicy, Priority};
use revmon::obs::EventKind;
use revmon::vm::builder::{MethodBuilder, ProgramBuilder};
use revmon::vm::value::{ObjRef, Value};
use revmon::vm::{SchedulerKind, Vm, VmConfig};

/// `run(lock, iters)`: one synchronized section updating a shared field
/// `iters` times.
fn program() -> (revmon::vm::bytecode::Program, revmon::vm::bytecode::MethodId) {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let run = pb.declare_method("run", 2);
    let mut b = MethodBuilder::new(2, 3);
    b.sync_on_local(0, |b| {
        b.const_i(0);
        b.store(2);
        let top = b.here();
        b.load(2);
        b.load(1);
        let done = b.new_label();
        b.if_ge(done);
        b.get_static(0);
        b.const_i(1);
        b.add();
        b.put_static(0);
        b.load(2);
        b.const_i(1);
        b.add();
        b.store(2);
        b.goto(top);
        b.place(done);
    });
    b.ret_void();
    pb.implement(run, b);
    (pb.finish(), run)
}

fn run_with(cfg: VmConfig) -> (u64, u64, u64) {
    let (p, run) = program();
    let mut vm = Vm::new(p, cfg);
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("Tl", run, vec![Value::Ref(lock), Value::Int(50_000)], Priority::LOW);
    vm.spawn("Th", run, vec![Value::Ref(lock), Value::Int(500)], Priority::HIGH);
    let r = vm.run().expect("run");
    let th = r.threads.iter().find(|t| t.name == "Th").unwrap();
    (th.elapsed(), r.overall_elapsed(), r.global.rollbacks)
}

fn main() {
    // --- the Figure 1 trace ---------------------------------------------
    let (p, run) = program();
    let mut vm = Vm::new(p, VmConfig::modified().with_trace());
    let lock = vm.heap_mut().alloc(0, 0);
    vm.spawn("Tl", run, vec![Value::Ref(lock), Value::Int(50_000)], Priority::LOW);
    vm.spawn("Th", run, vec![Value::Ref(lock), Value::Int(500)], Priority::HIGH);
    vm.run().expect("run");
    println!("Figure 1 event sequence (virtual-clock timestamps):");
    for ev in vm.take_trace() {
        let (thread, monitor) = (ev.thread, ObjRef(ev.monitor as u32));
        let line = match ev.kind {
            EventKind::Acquire => format!("T{thread} enters the synchronized section on {monitor}"),
            EventKind::Block => {
                format!("T{thread} blocks on {monitor} (held by a lower-priority thread)")
            }
            // A revoke request's `thread` is the flagged holder.
            EventKind::RevokeRequest { by } => {
                format!("T{by} flags T{thread} for revocation of its section on {monitor}")
            }
            EventKind::Rollback { entries, .. } => {
                format!(
                    "T{thread} rolls back {entries} logged updates, reverting {monitor}'s state"
                )
            }
            EventKind::Commit => format!("T{thread} commits its section on {monitor}"),
            EventKind::Release => format!("T{thread} releases {monitor}"),
            other => format!("{other:?}"),
        };
        println!("  [{:>9}] {line}", ev.ts);
    }

    // --- policy comparison ------------------------------------------------
    println!("\nHigh-priority latency under each policy (virtual ticks):");
    println!("{:<46} {:>12} {:>12} {:>10}", "policy", "Th elapsed", "overall", "rollbacks");
    let cases: Vec<(&str, VmConfig)> = vec![
        ("blocking (unmodified VM, round-robin)", VmConfig::unmodified()),
        ("revocation (modified VM, round-robin)", VmConfig::modified()),
        ("priority inheritance (preemptive sched)", {
            let mut c = VmConfig::unmodified();
            c.policy = InversionPolicy::PriorityInheritance;
            c.scheduler = SchedulerKind::PriorityPreemptive;
            c
        }),
        ("priority ceiling = MAX (preemptive sched)", {
            let mut c = VmConfig::unmodified();
            c.policy = InversionPolicy::PriorityCeiling(Priority::MAX);
            c.scheduler = SchedulerKind::PriorityPreemptive;
            c
        }),
    ];
    for (name, cfg) in cases {
        let (th, overall, rb) = run_with(cfg);
        println!("{name:<46} {th:>12} {overall:>12} {rb:>10}");
    }
}
