//! Shared program builders and corpus access for the VM integration
//! tests.
//!
//! Not every test binary uses every helper; silence per-binary dead-code
//! analysis.
#![allow(dead_code)]

use revmon_core::Priority;
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::{MethodId, Program};
use revmon_vm::value::Value;
use revmon_vm::{Vm, VmConfig};

/// Every `programs/*.rvm` as `(file name, source)`, sorted by name: the
/// fixed order the pin tests record their runs in.
pub fn corpus() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("programs/ directory")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 file name"))
        .filter(|n| n.ends_with(".rvm"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|file| {
            let src = std::fs::read_to_string(dir.join(&file)).expect("read corpus");
            (file, src)
        })
        .collect()
}

/// Build the canonical contention workload: `run(lock, iters)` executes
/// one synchronized section on `lock` whose body increments `static 0`
/// `iters` times.
///
/// Locals: 0 = lock, 1 = iters, 2 = i.
pub fn counting_section_program() -> (Program, MethodId) {
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

/// Like [`counting_section_program`] but the whole body repeats the
/// section `sections` times: `run(lock, iters, sections)`.
///
/// Locals: 0 = lock, 1 = iters, 2 = sections, 3 = s, 4 = i.
pub fn repeated_sections_program() -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    pb.statics(1);
    let run = pb.declare_method("run", 3);
    let mut b = MethodBuilder::new(3, 5);
    b.const_i(0);
    b.store(3);
    let outer = b.here();
    b.load(3);
    b.load(2);
    let done = b.new_label();
    b.if_ge(done);
    b.sync_on_local(0, |b| {
        b.const_i(0);
        b.store(4);
        let top = b.here();
        b.load(4);
        b.load(1);
        let sec_done = b.new_label();
        b.if_ge(sec_done);
        b.get_static(0);
        b.const_i(1);
        b.add();
        b.put_static(0);
        b.load(4);
        b.const_i(1);
        b.add();
        b.store(4);
        b.goto(top);
        b.place(sec_done);
    });
    b.load(3);
    b.const_i(1);
    b.add();
    b.store(3);
    b.goto(outer);
    b.place(done);
    b.ret_void();
    pb.implement(run, b);
    (pb.finish(), run)
}

/// Spawn `lows` low-priority and `highs` high-priority threads all
/// running `run(lock, iters_low/iters_high)` and return the finished VM
/// plus its report.
pub fn run_contenders(
    cfg: VmConfig,
    lows: usize,
    iters_low: i64,
    highs: usize,
    iters_high: i64,
) -> (Vm, revmon_vm::RunReport) {
    let (p, run) = counting_section_program();
    let mut vm = Vm::new(p, cfg);
    let lock = vm.heap_mut().alloc(0, 0);
    for i in 0..lows {
        vm.spawn(
            &format!("low{i}"),
            run,
            vec![Value::Ref(lock), Value::Int(iters_low)],
            Priority::LOW,
        );
    }
    for i in 0..highs {
        vm.spawn(
            &format!("high{i}"),
            run,
            vec![Value::Ref(lock), Value::Int(iters_high)],
            Priority::HIGH,
        );
    }
    let report = vm.run().expect("run succeeds");
    (vm, report)
}
