//! Contention flamegraphs from the Figure-1 inversion scenario: the
//! folded-stack export must attribute the episode's critical path to the
//! contended monitor, one `monitor;resolution;phase weight` line per
//! stack. The bytes themselves are pinned by `analysis_pin`.

mod common;

use revmon_core::Priority;
use revmon_obs::FoldedStacks;
use revmon_vm::{assemble, Vm, VmConfig};
use std::path::PathBuf;

#[test]
fn folded_stacks_attribute_the_inversion_to_the_contended_monitor() {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs/priority_inversion.rvm");
    let src = std::fs::read_to_string(&p).expect("read priority_inversion.rvm");
    let program = assemble(&src).expect("assemble");
    let entry = program.method_by_name("main").expect("main");

    let mut vm = Vm::try_new(program, VmConfig::modified().with_trace()).expect("verified");
    vm.spawn("main", entry, vec![], Priority::NORM);
    vm.run().expect("run");

    let events = vm.take_trace();
    let names = vm.monitor_names();
    let episodes = revmon_obs::reconstruct_episodes(&events);
    assert!(!episodes.is_empty(), "the scenario must produce an inversion episode");

    let stacks = FoldedStacks::from_episodes(&episodes, &names);
    assert!(!stacks.is_empty(), "no stacks from {} episode(s)", episodes.len());

    let folded = stacks.folded();
    // Every line is `frame;frame;frame weight` over the named monitor.
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("weight column");
        assert_eq!(stack.split(';').count(), 3, "frames: {line}");
        weight.parse::<u64>().unwrap_or_else(|_| panic!("weight not integral: {line}"));
    }
    assert!(folded.contains("lock;"), "monitor frame missing:\n{folded}");
    assert!(folded.contains(";revocation;"), "resolution frame missing:\n{folded}");
    assert!(folded.contains(";undo-walk "), "critical-path phase missing:\n{folded}");
}
