//! Episode reconstruction over deterministic VM traces: the corpus
//! scenarios must analyze into exact, byte-stable reports — the paper's
//! Figure-1 inversion resolves by revocation with measurable wasted
//! work, and the philosophers' deadlock classifies as a deadlock-break.

use revmon_core::Priority;
use revmon_obs::{write_report, Analysis, Resolution, TsUnit};
use revmon_vm::{assemble, Vm, VmConfig};

/// Assemble and run a corpus program on the modified VM, traced; return
/// the VM (for names) and the run's events.
fn traced_run(name: &str) -> (Vm, Vec<revmon_obs::Event>) {
    let path = format!("{}/../../programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let program = assemble(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let entry = program.method_by_name("main").expect("corpus program has a main");
    let mut vm = Vm::new(program, VmConfig::modified().with_trace());
    vm.spawn("main", entry, vec![], Priority::NORM);
    vm.run().unwrap_or_else(|e| panic!("{name}: {e}"));
    let events = vm.take_trace();
    (vm, events)
}

#[test]
fn priority_inversion_episode_report_is_byte_stable() {
    let (vm, events) = traced_run("priority_inversion.rvm");
    let a = Analysis::from_events(&events);

    // Structured expectations first, so a failure names the field.
    assert_eq!(a.episodes.len(), 1);
    let e = &a.episodes[0];
    assert_eq!(e.resolution, Resolution::Revocation);
    assert_eq!(e.holder, 1, "low-priority thread holds");
    assert_eq!(e.requester, 2, "high-priority thread requests");
    assert!(e.wasted_entries > 0, "revocation must roll back undo entries");
    assert!(e.wasted_time > 0, "discarded section time must be accounted");
    assert_eq!(e.end, Some(e.start + 6868), "inversion latency in virtual ticks");
    assert_eq!(e.wasted_entries, 3334);

    // Then the whole report, byte for byte: virtual-tick determinism
    // means re-running the scenario can never change this text without
    // a deliberate VM or cost-model change (update the golden file).
    let names = vm.monitor_names();
    assert_eq!(names.get(&0).map(String::as_str), Some("lock"));
    let mut buf = Vec::new();
    write_report(&mut buf, &a, &names, TsUnit::VirtualTicks).unwrap();
    let report = String::from_utf8(buf).unwrap();
    let golden = include_str!("golden/priority_inversion_report.txt");
    assert_eq!(report, golden, "episode report drifted from golden file");
}

#[test]
fn priority_inversion_trace_is_deterministic_across_runs() {
    let (_, a) = traced_run("priority_inversion.rvm");
    let (_, b) = traced_run("priority_inversion.rvm");
    assert_eq!(a, b, "same program, same config, different trace");
}

#[test]
fn deadlock_classifies_as_deadlock_break() {
    let (vm, events) = traced_run("deadlock.rvm");
    let episodes = Analysis::from_events(&events).episodes;
    assert_eq!(episodes.len(), 1, "episodes: {episodes:?}");
    let e = &episodes[0];
    assert_eq!(e.resolution, Resolution::DeadlockBreak);
    assert_eq!(e.rollbacks, 1, "breaking the cycle rolls the victim back");
    assert!(e.end.is_some(), "the broken deadlock must resolve");

    // Two chopsticks, one class name: instances disambiguate by
    // allocation order.
    let names = vm.monitor_names();
    assert_eq!(names.get(&0).map(String::as_str), Some("chopstick#0"));
    assert_eq!(names.get(&1).map(String::as_str), Some("chopstick#1"));
}

#[test]
fn blocking_policy_yields_natural_release_episodes_not_revocations() {
    // Under the unmodified (blocking) VM the same scenario still shows
    // the inversion — but it resolves by the holder finishing, and no
    // work is wasted. The analyzer must tell these apart.
    let path = format!("{}/../../programs/priority_inversion.rvm", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap();
    let program = assemble(&src).unwrap();
    let entry = program.method_by_name("main").unwrap();
    let mut vm = Vm::new(program, VmConfig::unmodified().with_trace());
    vm.spawn("main", entry, vec![], Priority::NORM);
    vm.run().unwrap();
    let events = vm.take_trace();

    let a = Analysis::from_events(&events);
    assert_eq!(a.revocation_episodes(), 0, "blocking VM cannot revoke");
    assert_eq!(a.wasted_entries, 0);
    for e in &a.episodes {
        assert_ne!(e.resolution, Resolution::Revocation, "episode: {e:?}");
    }
}
