//! Every `programs/*.rvm` assembles, verifies and lists completely and
//! deterministically, and — for the adversarial programs added alongside
//! the exploration subsystem — executes to its documented outputs. (The
//! listing is for reading: it is not assembler syntax and is not
//! assembled back.)

mod common;

use revmon_vm::value::Value;
use revmon_vm::{assemble, disassemble, verify_program, Vm, VmConfig};

fn read(name: &str) -> String {
    let (_, src) = common::corpus().into_iter().find(|(file, _)| file == name).expect(name);
    src
}

#[test]
fn every_corpus_program_assembles_and_verifies() {
    for (name, src) in &common::corpus() {
        let program = assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        verify_program(&program).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

#[test]
fn disassembly_is_deterministic_and_complete_for_the_corpus() {
    // The listing is a pure function of the program, and every declared
    // method appears in it — nothing is dropped in transit.
    for (name, src) in &common::corpus() {
        let a = disassemble(&assemble(src).unwrap_or_else(|e| panic!("{name}: {e}")));
        let b = disassemble(&assemble(src).unwrap_or_else(|e| panic!("{name}: {e}")));
        assert_eq!(a, b, "{name}: disassembly must be deterministic");
        let program = assemble(src).unwrap();
        for m in &program.methods {
            assert!(a.contains(&format!("method {}", m.name)), "{name}: `{}` missing", m.name);
        }
    }
}

#[test]
fn adversarial_listings_show_their_distinguishing_instructions() {
    let nested = disassemble(&assemble(&read("nested_wait_revoke.rvm")).expect("assembles"));
    assert!(nested.contains("wait"), "nested wait must survive disassembly");
    assert!(nested.contains("notifyall"), "notify must survive disassembly");

    let volatile = assemble(&read("volatile_revoke.rvm")).expect("assembles");
    assert_eq!(volatile.volatile_statics, vec![1]);
    let listing = disassemble(&volatile);
    assert!(listing.contains("1 volatile"), "volatile marking must appear in the listing");
}

fn run_to_output(name: &str) -> Vec<Value> {
    let program = assemble(&read(name)).expect("assembles");
    let entry = program.method_by_name("main").expect("main exists");
    let mut vm = Vm::new(program, VmConfig::modified());
    vm.spawn("main", entry, vec![], revmon_core::Priority::NORM);
    let report = vm.run().unwrap_or_else(|e| panic!("{name}: VM fault: {e}"));
    report.output
}

#[test]
fn nested_wait_revoke_commits_each_counter_exactly_once() {
    assert_eq!(run_to_output("nested_wait_revoke.rvm"), vec![Value::Int(1), Value::Int(1)]);
}

#[test]
fn volatile_revoke_publishes_the_final_value() {
    // s0 commits at 42 and the lock-free spy's snapshot of the published
    // state must agree — a rolled-back observation would break this.
    assert_eq!(run_to_output("volatile_revoke.rvm"), vec![Value::Int(42), Value::Int(42)]);
}
