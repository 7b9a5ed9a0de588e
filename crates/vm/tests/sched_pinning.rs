//! Golden-trace pinning for the scheduler extraction.
//!
//! These tests freeze the *observable* behaviour of the round-robin and
//! priority-preemptive schedulers — trace-event sequences, final clock,
//! output order, and context-switch counts — as captured on the code
//! before the dispatch logic moved into `sched.rs`. Any behavioural
//! drift introduced by a scheduling refactor fails here first.
//!
//! To re-capture the goldens after an *intentional* semantic change:
//!
//! ```text
//! cargo test -p revmon-vm --test sched_pinning -- --ignored --nocapture
//! ```
//!
//! and paste the printed blocks over the `GOLDEN_*` constants.

use revmon_core::Priority;
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::{MethodId, Program};
use revmon_vm::value::Value;
use revmon_vm::{SchedulerKind, Vm, VmConfig};

/// Three threads of distinct priorities bump a shared static inside a
/// synchronized block, with enough spinning per iteration to force
/// quantum expiries while a monitor is held — exercising contention,
/// hand-off, and (under the modified config) revocation.
fn contended_counter() -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let run = pb.declare_method("run", 2); // arg0 = lock, arg1 = ordinal
    let mut b = MethodBuilder::new(2, 3);
    b.const_i(0);
    b.store(2);
    let top = b.here();
    b.load(2);
    b.const_i(6);
    let done = b.new_label();
    b.if_ge(done);
    b.sync_on_local(0, |b| {
        b.get_static(0);
        b.const_i(1);
        b.add();
        b.put_static(0);
        b.const_i(5_000);
        b.work();
    });
    b.load(2);
    b.const_i(1);
    b.add();
    b.store(2);
    b.goto(top);
    b.place(done);
    b.load(1);
    b.native(revmon_vm::bytecode::NativeOp::Emit);
    b.ret_void();
    pb.implement(run, b);
    (pb.finish(), run)
}

/// One run summarized as printable, comparable lines.
fn digest(vm: &mut Vm) -> Vec<String> {
    let r = vm.run().expect("run completes");
    let mut lines = Vec::new();
    lines.push(format!("clock={}", r.clock));
    lines.push(format!(
        "output={:?}",
        r.output
            .iter()
            .map(|v| match v {
                Value::Int(i) => *i,
                _ => i64::MIN,
            })
            .collect::<Vec<_>>()
    ));
    lines.push(format!(
        "switches={} rollbacks={} acquires={} contended={}",
        r.global.context_switches,
        r.global.rollbacks,
        r.global.monitor_acquires,
        r.global.contended_acquires
    ));
    let mut trace = Vec::new();
    revmon_obs::write_events_jsonl(&mut trace, &vm.take_trace()).expect("writes to a Vec");
    lines.extend(String::from_utf8(trace).expect("JSONL is UTF-8").lines().map(str::to_string));
    lines
}

fn run_counter(kind: SchedulerKind) -> Vec<String> {
    let (p, run) = contended_counter();
    let mut cfg = VmConfig::modified().with_trace();
    cfg.scheduler = kind;
    let mut vm = Vm::new(p, cfg);
    let lock = vm.heap_mut().alloc(0, 0);
    let prios = [Priority::HIGH, Priority::LOW, Priority::NORM];
    for (i, &prio) in prios.iter().enumerate() {
        vm.spawn(&format!("t{i}"), run, vec![Value::Ref(lock), Value::Int(i as i64)], prio);
    }
    digest(&mut vm)
}

fn run_corpus(name: &str, kind: SchedulerKind) -> Vec<String> {
    let path = format!("{}/../../programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("corpus program exists");
    let program = revmon_vm::assemble(&src).expect("assembles");
    let mut cfg = VmConfig::modified().with_trace();
    cfg.scheduler = kind;
    let mut vm = Vm::new(program.clone(), cfg);
    let entry = program.method_by_name("main").expect("has main");
    vm.spawn("main", entry, vec![], Priority::NORM);
    digest(&mut vm)
}

fn assert_matches_golden(actual: &[String], golden: &str, what: &str) {
    let expect: Vec<&str> = golden.trim().lines().map(|l| l.trim()).collect();
    let got: Vec<&str> = actual.iter().map(|s| s.as_str()).collect();
    assert_eq!(got, expect, "{what}: scheduler behaviour drifted from the pinned golden");
}

/// Prints the goldens in paste-ready form. Run with `--ignored`.
#[test]
#[ignore = "capture helper, not a check"]
fn print_goldens() {
    for (label, lines) in [
        ("COUNTER_RR", run_counter(SchedulerKind::RoundRobin)),
        ("COUNTER_PRIO", run_counter(SchedulerKind::PriorityPreemptive)),
        ("INVERSION_RR", run_corpus("priority_inversion.rvm", SchedulerKind::RoundRobin)),
        ("DEADLOCK_RR", run_corpus("deadlock.rvm", SchedulerKind::RoundRobin)),
    ] {
        println!("const GOLDEN_{label}: &str = r#\"");
        for l in lines {
            println!("{l}");
        }
        println!("\"#;");
    }
}

const GOLDEN_COUNTER_RR: &str = r#"
clock=94748
output=[0, 2, 1]
switches=20 rollbacks=7 acquires=25 contended=16
{"ts":128,"thread":0,"monitor":0,"kind":"Acquire"}
{"ts":5162,"thread":0,"monitor":0,"kind":"Commit"}
{"ts":5162,"thread":0,"monitor":0,"kind":"Release"}
{"ts":5193,"thread":0,"monitor":0,"kind":"Acquire"}
{"ts":10227,"thread":0,"monitor":0,"kind":"Commit"}
{"ts":10227,"thread":0,"monitor":0,"kind":"Release"}
{"ts":10258,"thread":0,"monitor":0,"kind":"Acquire"}
{"ts":15292,"thread":0,"monitor":0,"kind":"Commit"}
{"ts":15292,"thread":0,"monitor":0,"kind":"Release"}
{"ts":15323,"thread":0,"monitor":0,"kind":"Acquire"}
{"ts":20463,"thread":1,"monitor":0,"kind":"Block"}
{"ts":20591,"thread":2,"monitor":0,"kind":"Block"}
{"ts":20713,"thread":0,"monitor":0,"kind":"Commit"}
{"ts":20713,"thread":0,"monitor":0,"kind":"Release"}
{"ts":20713,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":20744,"thread":0,"monitor":0,"kind":"Block"}
{"ts":20744,"thread":2,"monitor":0,"kind":"RevokeRequest","by":0}
{"ts":20944,"thread":2,"monitor":0,"kind":"Rollback","entries":0,"duration":200}
{"ts":20944,"thread":2,"monitor":0,"kind":"Release"}
{"ts":20944,"thread":0,"monitor":0,"kind":"Acquire"}
{"ts":21066,"thread":2,"monitor":0,"kind":"Block"}
{"ts":26200,"thread":0,"monitor":0,"kind":"Commit"}
{"ts":26200,"thread":0,"monitor":0,"kind":"Release"}
{"ts":26200,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":26231,"thread":0,"monitor":0,"kind":"Block"}
{"ts":26231,"thread":2,"monitor":0,"kind":"RevokeRequest","by":0}
{"ts":26431,"thread":2,"monitor":0,"kind":"Rollback","entries":0,"duration":200}
{"ts":26431,"thread":2,"monitor":0,"kind":"Release"}
{"ts":26431,"thread":0,"monitor":0,"kind":"Acquire"}
{"ts":26553,"thread":2,"monitor":0,"kind":"Block"}
{"ts":31687,"thread":0,"monitor":0,"kind":"Commit"}
{"ts":31687,"thread":0,"monitor":0,"kind":"Release"}
{"ts":31687,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":36832,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":36832,"thread":2,"monitor":0,"kind":"Release"}
{"ts":36832,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":36863,"thread":2,"monitor":0,"kind":"Block"}
{"ts":36863,"thread":1,"monitor":0,"kind":"RevokeRequest","by":2}
{"ts":37063,"thread":1,"monitor":0,"kind":"Rollback","entries":0,"duration":200}
{"ts":37063,"thread":1,"monitor":0,"kind":"Release"}
{"ts":37063,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":37185,"thread":1,"monitor":0,"kind":"Block"}
{"ts":42319,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":42319,"thread":2,"monitor":0,"kind":"Release"}
{"ts":42319,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":42350,"thread":2,"monitor":0,"kind":"Block"}
{"ts":42350,"thread":1,"monitor":0,"kind":"RevokeRequest","by":2}
{"ts":42550,"thread":1,"monitor":0,"kind":"Rollback","entries":0,"duration":200}
{"ts":42550,"thread":1,"monitor":0,"kind":"Release"}
{"ts":42550,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":42672,"thread":1,"monitor":0,"kind":"Block"}
{"ts":47806,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":47806,"thread":2,"monitor":0,"kind":"Release"}
{"ts":47806,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":47837,"thread":2,"monitor":0,"kind":"Block"}
{"ts":47837,"thread":1,"monitor":0,"kind":"RevokeRequest","by":2}
{"ts":48037,"thread":1,"monitor":0,"kind":"Rollback","entries":0,"duration":200}
{"ts":48037,"thread":1,"monitor":0,"kind":"Release"}
{"ts":48037,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":48159,"thread":1,"monitor":0,"kind":"Block"}
{"ts":53293,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":53293,"thread":2,"monitor":0,"kind":"Release"}
{"ts":53293,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":53324,"thread":2,"monitor":0,"kind":"Block"}
{"ts":53324,"thread":1,"monitor":0,"kind":"RevokeRequest","by":2}
{"ts":53524,"thread":1,"monitor":0,"kind":"Rollback","entries":0,"duration":200}
{"ts":53524,"thread":1,"monitor":0,"kind":"Release"}
{"ts":53524,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":53646,"thread":1,"monitor":0,"kind":"Block"}
{"ts":58780,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":58780,"thread":2,"monitor":0,"kind":"Release"}
{"ts":58780,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":58811,"thread":2,"monitor":0,"kind":"Block"}
{"ts":58811,"thread":1,"monitor":0,"kind":"RevokeRequest","by":2}
{"ts":59011,"thread":1,"monitor":0,"kind":"Rollback","entries":0,"duration":200}
{"ts":59011,"thread":1,"monitor":0,"kind":"Release"}
{"ts":59011,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":59133,"thread":1,"monitor":0,"kind":"Block"}
{"ts":64267,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":64267,"thread":2,"monitor":0,"kind":"Release"}
{"ts":64267,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":69412,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":69412,"thread":1,"monitor":0,"kind":"Release"}
{"ts":69443,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":74477,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":74477,"thread":1,"monitor":0,"kind":"Release"}
{"ts":74508,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":79542,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":79542,"thread":1,"monitor":0,"kind":"Release"}
{"ts":79573,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":84607,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":84607,"thread":1,"monitor":0,"kind":"Release"}
{"ts":84638,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":89672,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":89672,"thread":1,"monitor":0,"kind":"Release"}
{"ts":89703,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":94737,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":94737,"thread":1,"monitor":0,"kind":"Release"}
"#;

const GOLDEN_COUNTER_PRIO: &str = r#"
clock=91494
output=[0, 2, 1]
switches=3 rollbacks=0 acquires=18 contended=0
{"ts":128,"thread":0,"monitor":0,"kind":"Acquire"}
{"ts":5162,"thread":0,"monitor":0,"kind":"Commit"}
{"ts":5162,"thread":0,"monitor":0,"kind":"Release"}
{"ts":5193,"thread":0,"monitor":0,"kind":"Acquire"}
{"ts":10227,"thread":0,"monitor":0,"kind":"Commit"}
{"ts":10227,"thread":0,"monitor":0,"kind":"Release"}
{"ts":10258,"thread":0,"monitor":0,"kind":"Acquire"}
{"ts":15292,"thread":0,"monitor":0,"kind":"Commit"}
{"ts":15292,"thread":0,"monitor":0,"kind":"Release"}
{"ts":15323,"thread":0,"monitor":0,"kind":"Acquire"}
{"ts":20357,"thread":0,"monitor":0,"kind":"Commit"}
{"ts":20357,"thread":0,"monitor":0,"kind":"Release"}
{"ts":20388,"thread":0,"monitor":0,"kind":"Acquire"}
{"ts":25422,"thread":0,"monitor":0,"kind":"Commit"}
{"ts":25422,"thread":0,"monitor":0,"kind":"Release"}
{"ts":25453,"thread":0,"monitor":0,"kind":"Acquire"}
{"ts":30487,"thread":0,"monitor":0,"kind":"Commit"}
{"ts":30487,"thread":0,"monitor":0,"kind":"Release"}
{"ts":30626,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":35660,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":35660,"thread":2,"monitor":0,"kind":"Release"}
{"ts":35691,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":40725,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":40725,"thread":2,"monitor":0,"kind":"Release"}
{"ts":40756,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":45790,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":45790,"thread":2,"monitor":0,"kind":"Release"}
{"ts":45821,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":50855,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":50855,"thread":2,"monitor":0,"kind":"Release"}
{"ts":50886,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":55920,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":55920,"thread":2,"monitor":0,"kind":"Release"}
{"ts":55951,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":60985,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":60985,"thread":2,"monitor":0,"kind":"Release"}
{"ts":61124,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":66158,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":66158,"thread":1,"monitor":0,"kind":"Release"}
{"ts":66189,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":71223,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":71223,"thread":1,"monitor":0,"kind":"Release"}
{"ts":71254,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":76288,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":76288,"thread":1,"monitor":0,"kind":"Release"}
{"ts":76319,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":81353,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":81353,"thread":1,"monitor":0,"kind":"Release"}
{"ts":81384,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":86418,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":86418,"thread":1,"monitor":0,"kind":"Release"}
{"ts":86449,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":91483,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":91483,"thread":1,"monitor":0,"kind":"Release"}
"#;

const GOLDEN_INVERSION_RR: &str = r#"
clock=968123
output=[7140]
switches=11 rollbacks=1 acquires=3 contended=2
{"ts":232,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":60573,"thread":2,"monitor":0,"kind":"Block"}
{"ts":60573,"thread":1,"monitor":0,"kind":"RevokeRequest","by":2}
{"ts":67441,"thread":1,"monitor":0,"kind":"Rollback","entries":3334,"duration":6868}
{"ts":67441,"thread":1,"monitor":0,"kind":"Release"}
{"ts":67441,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":67563,"thread":1,"monitor":0,"kind":"Block"}
{"ts":67688,"thread":2,"monitor":0,"kind":"Commit"}
{"ts":67688,"thread":2,"monitor":0,"kind":"Release"}
{"ts":67688,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":968021,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":968021,"thread":1,"monitor":0,"kind":"Release"}
"#;

const GOLDEN_DEADLOCK_RR: &str = r#"
clock=723480
output=[2]
switches=30 rollbacks=1 acquires=5 contended=2
{"ts":236,"thread":1,"monitor":0,"kind":"Acquire"}
{"ts":20337,"thread":2,"monitor":1,"kind":"Acquire"}
{"ts":482665,"thread":1,"monitor":1,"kind":"Block"}
{"ts":482815,"thread":2,"monitor":0,"kind":"Block"}
{"ts":482815,"thread":18446744073709551615,"monitor":null,"kind":"DeadlockDetected","cycle_len":2}
{"ts":482815,"thread":2,"monitor":null,"kind":"DeadlockBroken"}
{"ts":483015,"thread":2,"monitor":1,"kind":"Rollback","entries":0,"duration":200}
{"ts":483015,"thread":2,"monitor":1,"kind":"Release"}
{"ts":483015,"thread":1,"monitor":1,"kind":"Acquire"}
{"ts":483147,"thread":1,"monitor":1,"kind":"Release"}
{"ts":483169,"thread":1,"monitor":0,"kind":"Commit"}
{"ts":483169,"thread":1,"monitor":0,"kind":"Release"}
{"ts":483292,"thread":2,"monitor":1,"kind":"Acquire"}
{"ts":723320,"thread":2,"monitor":0,"kind":"Acquire"}
{"ts":723352,"thread":2,"monitor":0,"kind":"Release"}
{"ts":723374,"thread":2,"monitor":1,"kind":"Commit"}
{"ts":723374,"thread":2,"monitor":1,"kind":"Release"}
"#;

#[test]
fn round_robin_counter_trace_is_pinned() {
    assert_matches_golden(
        &run_counter(SchedulerKind::RoundRobin),
        GOLDEN_COUNTER_RR,
        "round-robin contended counter",
    );
}

#[test]
fn priority_preemptive_counter_trace_is_pinned() {
    assert_matches_golden(
        &run_counter(SchedulerKind::PriorityPreemptive),
        GOLDEN_COUNTER_PRIO,
        "priority-preemptive contended counter",
    );
}

#[test]
fn priority_inversion_corpus_trace_is_pinned() {
    assert_matches_golden(
        &run_corpus("priority_inversion.rvm", SchedulerKind::RoundRobin),
        GOLDEN_INVERSION_RR,
        "priority_inversion.rvm",
    );
}

#[test]
fn deadlock_corpus_trace_is_pinned() {
    assert_matches_golden(
        &run_corpus("deadlock.rvm", SchedulerKind::RoundRobin),
        GOLDEN_DEADLOCK_RR,
        "deadlock.rvm",
    );
}
