//! Behaviour pin for the interpreter's faults.
//!
//! Every directed fault case — operand-stack underflow at each arity,
//! locals out of range, a reference where an integer is needed,
//! arithmetic traps, null, integer and dangling receivers, every kind of
//! array index, field and static slots out of range, stacks one operand
//! short, and a read of another thread's speculative write — runs
//! through the two-tier harness of `interp_parity` (batched and
//! step-only, bare and probed, all four required to agree), and one line
//! per case records what came of it: the result, `steps`, clock, the
//! nonzero `Metrics` counters, output, uncaught exceptions, the event
//! trace, the probe's hook calls and both fingerprints. The lines are
//! compared against `tests/golden/fault_pin.txt`.
//!
//! To re-capture after an *intentional* change:
//!
//! ```text
//! cargo test -p revmon-vm --lib fault_pin -- --ignored bless
//! ```

use crate::bytecode::Insn;
use crate::interp_parity::{
    caught_trap, each_way, falls_off_the_end, foreign_stamp_read, parity, parity_of, program,
    uncaught_trap, underflow_program, underflows, well_formed, Observed, ARR, ARR_LEN, INT, OBJ,
    STATICS, TRAPS,
};
use crate::value::{ObjRef, Value};
use crate::VmConfig;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fault_pin.txt");

/// One line: `name`, then everything `o` can be told apart by.
fn line(out: &mut String, name: &str, o: &Observed) {
    let result = match &o.result {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("err({e})"),
    };
    let _ = write!(out, "{name} | {result} steps={} clock={}", o.steps, o.clock);
    o.metrics.for_each_field(|field, v| {
        if v != 0 {
            let _ = write!(out, " {field}={v}");
        }
    });
    let output: Vec<String> = o.output.iter().map(Value::to_string).collect();
    let uncaught: Vec<String> =
        o.uncaught.iter().map(|u| u.map_or("-".into(), |tag| format!("{tag:#x}"))).collect();
    let trace: Vec<String> = o
        .trace
        .iter()
        .map(|e| format!("{:?}@{}/t{}/m{}/c{}", e.kind, e.ts, e.thread, e.monitor, e.core))
        .collect();
    let _ = writeln!(
        out,
        " output=[{}] uncaught=[{}] trace=[{}] seen={:?} state={:016x} heap={:016x}",
        output.join(","),
        uncaught.join(","),
        trace.join(","),
        o.seen.as_deref().unwrap_or_default(),
        o.state,
        o.heap
    );
}

fn underflow(out: &mut String) {
    for (insn, have) in underflows() {
        let o = parity(&underflow_program(insn, have), VmConfig::unmodified(), 1);
        line(out, &format!("underflow {insn:?} on {have}"), &o);
    }
}

fn locals(out: &mut String) {
    for insn in [Insn::Load(2), Insn::Store(2)] {
        let code = vec![Insn::Const(Value::Int(1)), Insn::Dup, insn, Insn::RetVoid];
        let o = parity(&program(code, 2, vec![]), VmConfig::unmodified(), 1);
        line(out, &format!("locals {insn:?}"), &o);
    }
}

fn reference_as_int(out: &mut String) {
    for insn in [Insn::Add, Insn::Mul, Insn::Rem, Insn::Neg, Insn::IfLt(0), Insn::IfGe(0)] {
        for operands in [[Value::Int(1), OBJ], [OBJ, Value::Int(1)]] {
            let code = vec![
                Insn::Nop,
                Insn::Const(operands[0]),
                Insn::Const(operands[1]),
                insn,
                Insn::RetVoid,
            ];
            let o = parity(&program(code, 0, vec![]), VmConfig::unmodified(), 1);
            line(out, &format!("ref-as-int {insn:?} on {operands:?}"), &o);
        }
    }
}

fn arithmetic_traps(out: &mut String) {
    for (insn, a, b) in TRAPS {
        let o = parity(&caught_trap(insn, a, b), VmConfig::unmodified(), 1);
        line(out, &format!("arith caught {insn:?} {a} {b}"), &o);
    }
    line(out, "arith uncaught Div 1 0", &parity(&uncaught_trap(), VmConfig::unmodified(), 1));
}

fn bad_pc(out: &mut String) {
    line(out, "bad-pc", &parity(&falls_off_the_end(), VmConfig::unmodified(), 1));
}

/// `insn` on `operands` inside and outside a section under every
/// configuration, one line each.
fn each_way_lines(out: &mut String, name: &str, operands: &[Value], insn: Insn) {
    each_way(operands, insn, |place, o| {
        line(out, &format!("{name} {insn:?} on {operands:?} {place}"), o);
    });
}

fn receivers(out: &mut String) {
    for (insn, operands) in well_formed().into_iter().take(4) {
        for r in [Value::Null, INT, Value::Ref(ObjRef(77))] {
            let with_receiver = [&[r][..], &operands[1..]].concat();
            each_way_lines(out, "receiver", &with_receiver, insn);
        }
    }
}

fn array_indices(out: &mut String) {
    for (insn, operands) in [(Insn::ALoad, vec![ARR, INT]), (Insn::AStore, vec![ARR, INT, INT])] {
        let indices = [OBJ, Value::Null]
            .into_iter()
            .chain([-1, ARR_LEN, i64::MIN, i64::MAX, 1 << 32, (1 << 32) + 1].map(Value::Int));
        for i in indices {
            let with_index = [&operands[..1], &[i][..], &operands[2..]].concat();
            each_way_lines(out, "index", &with_index, insn);
        }
    }
}

fn array_lengths(out: &mut String) {
    for n in [(1 << 32) + 2, 1 << 32, i64::MAX] {
        each_way_lines(out, "length", &[Value::Int(n)], Insn::NewArray);
    }
}

fn slots_out_of_range(out: &mut String) {
    let cases = [
        (Insn::GetField(3), vec![OBJ]),
        (Insn::PutField(3), vec![OBJ, INT]),
        (Insn::GetStatic(STATICS as u16), vec![]),
        (Insn::PutStatic(STATICS as u16), vec![INT]),
    ];
    for (insn, operands) in cases {
        each_way_lines(out, "slot", &operands, insn);
    }
}

fn one_short(out: &mut String) {
    for (insn, operands) in well_formed() {
        let Some((_, short)) = operands.split_first() else { continue };
        each_way_lines(out, "one-short", short, insn);
    }
}

fn foreign_stamp(out: &mut String) {
    let (p, ths, mut cfg) = foreign_stamp_read();
    for guard in [true, false] {
        cfg.jmm_guard = guard;
        line(out, &format!("foreign-stamp read guard={guard}"), &parity_of(&p, cfg, &ths));
    }
}

/// The whole pin, one line per case, in a fixed order.
fn capture() -> String {
    let mut out = String::new();
    for group in [
        underflow,
        locals,
        reference_as_int,
        arithmetic_traps,
        bad_pc,
        receivers,
        array_indices,
        array_lengths,
        slots_out_of_range,
        one_short,
        foreign_stamp,
    ] {
        group(&mut out);
    }
    out
}

#[test]
fn directed_faults_match_the_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/fault_pin.txt");
    let actual = capture();
    let (mut got, mut want) = (actual.lines(), golden.lines());
    for n in 1.. {
        match (got.next(), want.next()) {
            (None, None) => return,
            (g, w) if g == w => {}
            (g, w) => panic!(
                "output drifted from golden/fault_pin.txt at line {n}:\n  got:  {}\n  want: {}",
                g.unwrap_or("<end of output>"),
                w.unwrap_or("<end of golden>")
            ),
        }
    }
}

#[test]
#[ignore = "re-captures the golden"]
fn bless() {
    std::fs::write(GOLDEN, capture()).expect("write tests/golden/fault_pin.txt");
}
