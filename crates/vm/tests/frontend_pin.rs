//! Behaviour pin for the VM's front end: what the assembler, the
//! builder, the disassembler, the verifier, the rewrite pass and the
//! elision analysis make of a program.
//!
//! For every `programs/*.rvm`, one builder-made Figure-5 cell program
//! and one builder-made method that calls every public emitter — each
//! raw and rewritten — this records the full `disassemble` text, the
//! `verify_program` verdict and the elision table's elided
//! `(method, pc)` set. Then, one level down:
//!
//! * one malformed source per message the assembler can produce, with
//!   its line, and a handful of odd-but-accepted spellings in full
//!   listing;
//! * every opcode on its own (the `match` in [`every_opcode`] has no
//!   wildcard arm, so a new variant fails to compile here until it is
//!   listed): its listing line, and the verifier's stack effect for it
//!   measured from outside — the lowest entry height it is accepted at,
//!   the height it leaves, and the underflow text one slot lower;
//! * one raw-`Insn` program per `VerifyError` variant with every error's
//!   exact text;
//! * a raw method whose seven branch kinds jump over, into the entry
//!   of, out of and within a synchronized region, rewritten (branch
//!   relocation), and each branch kind entering a region at its entry,
//!   its interior and its exit under the elision analysis.
//!
//! The golden file was generated *before* the opcode table in
//! `bytecode.rs` existed, from the per-file `match`es it replaced.
//!
//! To re-capture after an *intentional* change to the listing format, an
//! error text or the ISA:
//!
//! ```text
//! cargo test -p revmon-vm --test frontend_pin -- --ignored bless
//! ```

mod common;

use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::{
    CatchKind, Handler, Insn, Method, MethodId, NativeOp, Program, SyncRegion,
};
use revmon_vm::value::Value;
use revmon_vm::{
    analyze, assemble, disassemble, disassemble_method, rewrite_program, verify_program,
    VerifyError,
};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frontend_pin.txt")
}

/// The verifier's verdict, one error per line.
fn push_verdict(out: &mut String, p: &Program) {
    match verify_program(p) {
        Ok(()) => out.push_str("verify: ok\n"),
        Err(errors) => {
            let _ = writeln!(out, "verify: {} error(s)", errors.len());
            for e in &errors {
                let _ = writeln!(out, "  {e}");
            }
        }
    }
}

/// The elision table as the set of `(method, pc)` it elides.
fn push_elided(out: &mut String, p: &Program) {
    let table = analyze(p);
    let _ = write!(out, "elided: {}/{} sites:", table.elided_sites, table.store_sites);
    for (mi, m) in p.methods.iter().enumerate() {
        for pc in 0..m.code.len() as u32 {
            if table.is_elided(mi, pc) {
                let _ = write!(out, " {}@{pc}", m.name);
            }
        }
    }
    out.push('\n');
}

/// Listing, verdict and elided set of `p`, raw and rewritten.
fn pin_program(out: &mut String, label: &str, p: &Program) {
    for (flavour, p) in [("raw", p.clone()), ("rewritten", rewrite_program(p))] {
        let _ = writeln!(out, "=== {label} {flavour} ===");
        out.push_str(&disassemble(&p));
        push_verdict(out, &p);
        push_elided(out, &p);
    }
}

fn raw_method(name: &str, params: u16, locals: u16, code: Vec<Insn>) -> Method {
    Method {
        name: name.into(),
        params,
        locals,
        code,
        handlers: vec![],
        sync_regions: vec![],
        synchronized: false,
        rollback_scopes: vec![],
    }
}

fn raw_program(methods: Vec<Method>) -> Program {
    Program { methods, n_statics: 4, volatile_statics: vec![], class_names: Default::default() }
}

/// A builder-made program that goes through every public emitter of
/// `MethodBuilder` and `ProgramBuilder`.
fn every_emitter() -> Program {
    let mut pb = ProgramBuilder::new();
    pb.statics(2);
    pb.volatile_static(3);
    pb.class_name(5, "Box");
    let helper = pb.declare_method("helper", 1);
    let all = pb.declare_method("all", 2);

    let mut h = MethodBuilder::new(1, 1);
    h.set_synchronized();
    h.load(0);
    h.get_field(0);
    h.ret();
    pb.implement(helper, h);

    let mut b = MethodBuilder::new(2, 5);
    b.const_i(-3);
    b.const_null();
    b.swap();
    b.dup();
    b.pop();
    b.pop();
    b.pop();
    b.const_i(6);
    b.const_i(7);
    b.add();
    b.const_i(2);
    b.sub();
    b.const_i(3);
    b.mul();
    b.const_i(4);
    b.div();
    b.const_i(5);
    b.rem();
    b.neg();
    b.store(2);
    let (l_zero, l_nz, l_lt, l_ge, l_eq, l_ne, l_out) = (
        b.new_label(),
        b.new_label(),
        b.new_label(),
        b.new_label(),
        b.new_label(),
        b.new_label(),
        b.new_label(),
    );
    b.load(2);
    b.if_zero(l_zero);
    b.place(l_zero);
    b.load(2);
    b.if_non_zero(l_nz);
    b.place(l_nz);
    b.load(2);
    b.const_i(1);
    b.if_lt(l_lt);
    b.place(l_lt);
    b.load(2);
    b.const_i(1);
    b.if_ge(l_ge);
    b.place(l_ge);
    b.load(2);
    b.const_i(1);
    b.if_eq(l_eq);
    b.place(l_eq);
    b.load(2);
    b.const_i(1);
    b.if_ne(l_ne);
    b.place(l_ne);
    b.goto(l_out);
    b.place(l_out);
    b.new_object(5, 2);
    b.store(3);
    b.load(3);
    b.const_i(9);
    b.put_field(1);
    b.load(3);
    b.get_field(1);
    b.pop();
    b.const_i(4);
    b.new_array();
    b.store(4);
    b.load(4);
    b.const_i(0);
    b.const_i(1);
    b.astore();
    b.load(4);
    b.const_i(0);
    b.aload();
    b.pop();
    b.load(4);
    b.array_len();
    b.put_static(0);
    b.get_static(0);
    b.pop();
    b.add_static(1, 2);
    b.load(0);
    b.monitor_enter_raw();
    b.load(0);
    b.monitor_exit_raw();
    b.sync_on_local(0, |b| {
        b.sync_on_local(1, |b| {
            b.add_static(0, 1);
            b.wait_on_local(1);
            b.notify_all_local(1);
        });
        b.load(3);
        b.call(helper);
        b.pop();
    });
    b.repeat(2, 3, |b| b.yield_point());
    b.for_loop(2, |b| b.load(1), |b| b.add_static(0, 1));
    b.if_else(|b| b.load(2), |b| b.add_static(0, 1), |b| b.add_static(1, 1));
    b.while_loop(
        |b| b.load(2),
        |b| {
            b.const_i(0);
            b.store(2);
        },
    );
    b.const_i(10);
    b.sleep();
    b.now();
    b.rand_int();
    b.work();
    b.const_i(1);
    b.native(NativeOp::Print);
    b.const_i(2);
    b.native(NativeOp::Emit);
    b.load(3);
    b.const_i(5);
    b.spawn(helper);
    b.join();
    b.load(3);
    b.load(0);
    b.delegate(helper);
    b.await_result();
    b.pop();
    b.try_catch(CatchKind::Class(7), |b| b.throw_new(7), |b| b.pop());
    b.try_catch(
        CatchKind::All,
        |b| {
            b.new_object(8, 0);
            b.throw();
        },
        |b| b.pop(),
    );
    b.try_finally(2, |b| b.add_static(0, 1), |b| b.add_static(1, 1));
    let skip = b.new_label();
    b.goto(skip);
    let dead = b.here();
    b.goto(dead);
    b.place(skip);
    b.ret_void();
    let pc = b.pc();
    b.raw_handler(Handler { start: 0, end: pc, target: pc, kind: CatchKind::Class(11) });
    b.pop();
    b.ret_void();
    pb.implement(all, b);

    let mut t = MethodBuilder::new(0, 0);
    t.ret_void();
    pb.add_method("tail", t);
    pb.finish()
}

/// One malformed source per message the assembler can produce.
const ASM_ERRORS: &[(&str, &str)] = &[
    ("method-needs-name", ".method\n.end\n"),
    ("duplicate-method", ".method m params=0\nretvoid\n.end\n.method m params=0\nretvoid\n.end\n"),
    ("statics-not-a-number", ".statics many\n"),
    ("volatile-not-a-number", ".volatile s1\n"),
    ("class-needs-tag", ".class\n"),
    ("class-needs-name", ".class 3\n"),
    ("class-takes-two", ".class 3 Box extra\n"),
    ("class-tag-not-a-number", ".class Box 3\n"),
    ("class-duplicate", ".class 3 Box\n.class 3 Crate\n"),
    ("method-inside-method", ".method a params=0\n.method b params=0\n.end\n.end\n"),
    ("end-outside-method", "; nothing open\n.end\n"),
    ("handler-outside-method", ".handler a b c all\n"),
    ("code-outside-method", ".statics 1\nadd\n"),
    ("unterminated-method", ".method m params=0\nretvoid\n"),
    ("end-with-trailing-text", ".method m params=0\nretvoid\n.end of-method\n.end\n"),
    ("method-unknown-attribute", ".method m params=0 static\nretvoid\n.end\n"),
    ("method-needs-params", ".method m locals=2\nretvoid\n.end\n"),
    ("method-params-not-a-number", ".method m params=two\nretvoid\n.end\n"),
    ("handler-arity", ".method m params=0\na:\nretvoid\n.handler a a all\n.end\n"),
    ("handler-kind", ".method m params=0\na:\nretvoid\n.handler a a a Throwable\n.end\n"),
    ("handler-class-not-a-number", ".method m params=0\na:\nretvoid\n.handler a a a class=x\n.end\n"),
    ("handler-undefined-label", ".method m params=0\na:\nretvoid\n.handler a b a all\n.end\n"),
    ("duplicate-label", ".method m params=0\na:\nnop\na:\nretvoid\n.end\n"),
    ("unmatched-brace", ".method m params=1\n}\nretvoid\n.end\n"),
    ("unclosed-sync", ".method m params=1\nsync l0 {\nretvoid\n.end\n"),
    ("sync-needs-brace", ".method m params=1\nsync l0\nretvoid\n.end\n"),
    ("sync-needs-local", ".method m params=1\nsync {\nretvoid\n.end\n"),
    ("sync-bad-local", ".method m params=1\nsync s0 {\n}\nretvoid\n.end\n"),
    ("bad-local", ".method m params=1\nload 0\nretvoid\n.end\n"),
    ("local-too-large", ".method m params=1\nstore l65536\nretvoid\n.end\n"),
    ("bad-static", ".method m params=0\ngetstatic 0\nretvoid\n.end\n"),
    ("static-too-large", ".method m params=0\nputstatic s65536\nretvoid\n.end\n"),
    ("const-needs-operand", ".method m params=0\nconst\nretvoid\n.end\n"),
    ("const-not-a-number", ".method m params=0\nconst one\nretvoid\n.end\n"),
    ("load-needs-operand", ".method m params=0\nload\nretvoid\n.end\n"),
    ("getstatic-needs-operand", ".method m params=0\ngetstatic\nretvoid\n.end\n"),
    ("getfield-needs-operand", ".method m params=0\ngetfield\nretvoid\n.end\n"),
    ("putfield-not-a-number", ".method m params=0\nputfield +1\nputfield x\nretvoid\n.end\n"),
    ("goto-needs-operand", ".method m params=0\ngoto\nretvoid\n.end\n"),
    ("call-needs-operand", ".method m params=0\ncall\nretvoid\n.end\n"),
    ("native-needs-operand", ".method m params=0\nnative\nretvoid\n.end\n"),
    ("new-unknown-attribute", ".method m params=0\nnew class=1 size=2\nretvoid\n.end\n"),
    ("new-attribute-not-a-number", ".method m params=0\nnew fields=two\nretvoid\n.end\n"),
    ("unknown-method-call", ".method m params=0\ncall nowhere\nretvoid\n.end\n"),
    ("unknown-method-spawn", ".method m params=0\nspawn nowhere\nretvoid\n.end\n"),
    ("unknown-method-delegate", ".method m params=0\ndelegate nowhere\nretvoid\n.end\n"),
    ("unknown-native", ".method m params=0\nnative println\nretvoid\n.end\n"),
    ("unknown-instruction", ".method m params=0\n    fly\nretvoid\n.end\n"),
    ("injected-savestate", ".method m params=0\nsavestate\nretvoid\n.end\n"),
    ("injected-rollbackhandler", ".method m params=0\nrollbackhandler\n.end\n"),
    ("mnemonics-are-lower-case", ".method m params=0\nRetVoid\n.end\n"),
    ("undefined-label", ".method m params=0\n    goto nowhere\nretvoid\n.end\n"),
    (
        "undefined-labels-earliest-use-wins",
        ".method m params=0\ngoto b\ngoto a\ngoto b\nretvoid\n.end\n",
    ),
    (
        "undefined-labels-first-branch-wins",
        ".method m params=0\n.handler x y z all\nconst 0\nif_zero later\ngoto never\nlater:\nretvoid\n.end\n",
    ),
    (
        "undefined-label-branch-before-handler",
        ".method m params=0\n.handler gone gone gone all\nconst 0\nif_zero gone\nretvoid\n.end\n",
    ),
];

/// Odd spellings the assembler accepts; pinned in full listing.
const ASM_ACCEPTED: &[(&str, &str)] = &[
    (
        "extra-operands-are-ignored",
        ".statics 1\n.method m params=0\nconst 1 2 3\npop now\nretvoid retvoid\n.end\n",
    ),
    (
        "header-defaults-and-clamps",
        ".statics 3\n.statics 2\n.volatile 5\n.volatile 0\n.class 7 Seven\n.class 2 Two\n\
         .method a params=2\nretvoid\n.end\n.method b params=3 locals=1\nretvoid\n.end\n\
         .method c locals=4 synchronized params=1\nretvoid\n.end\n",
    ),
    (
        "labels",
        ".method m params=1 locals=1\n.handler top mid catch class=4\n.handler mid end catch all\n\
         top:\nadd:\n  const 0\n  if_zero add\nmid :\n  load l0\n  throw\nend:\ncatch:\n  pop\n  retvoid\n.end\n",
    ),
    (
        "sync-blocks",
        ".method m params=2 locals=2\nouter:\nsync l0 {\ninner:\n  sync l1 {\n    const 0\n    if_zero inner\n  }\n  sync l9 {\n  }\n}\n  goto outer\n.end\n",
    ),
    (
        "new-attributes",
        ".method m params=0\nnew\npop\nnew fields=2 class=3\npop\nnew volatile=5 fields=3\npop\n\
         new class=1 class=2\npop\nconst null\npop\nconst -9223372036854775808\npop\nretvoid\n.end\n",
    ),
    (
        "forward-calls",
        ".method main params=0\nconst 1\ncall later\nconst 5\nspawn later\njoin\nnew\nconst 2\ndelegate later\nawait\npop\nretvoid\n.end\n\
         .method later params=1\nretvoid\n.end\n",
    ),
    (
        "every-mnemonic",
        ".statics 2\n.method callee params=0\nretvoid\n.end\n.method m params=1 locals=2\n\
         const 1\nload l0\nstore l1\ndup\npop\nswap\nadd\nsub\nmul\ndiv\nrem\nneg\n\
         l:\ngoto l\nif_zero l\nif_nonzero l\nif_lt l\nif_ge l\nif_eq l\nif_ne l\n\
         new class=1 fields=2 volatile=3\nnewarray\ngetfield 1\nputfield 2\naload\nastore\n\
         getstatic s0\nputstatic s1\narraylen\nmonitorenter\nmonitorexit\nwait\nnotify\nnotifyall\n\
         call callee\nspawn callee\njoin\ndelegate callee\nawait\nret\nretvoid\nthrow\nyield\nsleep\nnow\n\
         randint\nnative print\nnative emit\nwork\nnop\n.end\n",
    ),
];

/// One instance of every opcode, branches aimed at `target`, calls at
/// `callee`. The `match` has no wildcard arm on purpose: a new variant
/// fails to compile here until it is added to the list below.
fn every_opcode(target: u32, callee: MethodId) -> Vec<Insn> {
    fn listed(i: &Insn) {
        match i {
            Insn::Const(_)
            | Insn::Load(_)
            | Insn::Store(_)
            | Insn::Dup
            | Insn::Pop
            | Insn::Swap
            | Insn::Add
            | Insn::Sub
            | Insn::Mul
            | Insn::Div
            | Insn::Rem
            | Insn::Neg
            | Insn::Goto(_)
            | Insn::IfZero(_)
            | Insn::IfNonZero(_)
            | Insn::IfLt(_)
            | Insn::IfGe(_)
            | Insn::IfEq(_)
            | Insn::IfNe(_)
            | Insn::New { .. }
            | Insn::NewArray
            | Insn::GetField(_)
            | Insn::PutField(_)
            | Insn::ALoad
            | Insn::AStore
            | Insn::GetStatic(_)
            | Insn::PutStatic(_)
            | Insn::ArrayLen
            | Insn::MonitorEnter
            | Insn::MonitorExit
            | Insn::Wait
            | Insn::Notify
            | Insn::NotifyAll
            | Insn::Call(_)
            | Insn::Spawn(_)
            | Insn::Join
            | Insn::Delegate(_)
            | Insn::Await
            | Insn::Ret
            | Insn::RetVoid
            | Insn::Throw
            | Insn::Yield
            | Insn::Sleep
            | Insn::Now
            | Insn::RandInt
            | Insn::Native(_)
            | Insn::Work
            | Insn::Nop
            | Insn::SaveState
            | Insn::RollbackHandler => {}
        }
    }
    let all = vec![
        Insn::Const(Value::Int(7)),
        Insn::Const(Value::Null),
        Insn::Load(0),
        Insn::Store(0),
        Insn::Dup,
        Insn::Pop,
        Insn::Swap,
        Insn::Add,
        Insn::Sub,
        Insn::Mul,
        Insn::Div,
        Insn::Rem,
        Insn::Neg,
        Insn::Goto(target),
        Insn::IfZero(target),
        Insn::IfNonZero(target),
        Insn::IfLt(target),
        Insn::IfGe(target),
        Insn::IfEq(target),
        Insn::IfNe(target),
        Insn::New { class_tag: 3, fields: 2, volatile_mask: 1 },
        Insn::NewArray,
        Insn::GetField(1),
        Insn::PutField(1),
        Insn::ALoad,
        Insn::AStore,
        Insn::GetStatic(2),
        Insn::PutStatic(2),
        Insn::ArrayLen,
        Insn::MonitorEnter,
        Insn::MonitorExit,
        Insn::Wait,
        Insn::Notify,
        Insn::NotifyAll,
        Insn::Call(callee),
        Insn::Spawn(callee),
        Insn::Join,
        Insn::Delegate(callee),
        Insn::Await,
        Insn::Ret,
        Insn::RetVoid,
        Insn::Throw,
        Insn::Yield,
        Insn::Sleep,
        Insn::Now,
        Insn::RandInt,
        Insn::Native(NativeOp::Print),
        Insn::Native(NativeOp::Emit),
        Insn::Work,
        Insn::Nop,
        Insn::SaveState,
        Insn::RollbackHandler,
    ];
    all.iter().for_each(listed);
    all
}

/// `[const × height] insn [pop × (height + 4)] retvoid` beside two
/// callees: the verifier's errors on it say what `insn` pops and pushes.
fn probe_program(insn: Insn, height: u32) -> Program {
    let mut code = vec![Insn::Const(Value::Int(0)); height as usize];
    code.push(insn);
    code.extend(vec![Insn::Pop; height as usize + 4]);
    code.push(Insn::RetVoid);
    raw_program(vec![
        raw_method("probe", 0, 1, code),
        raw_method("callee0", 0, 0, vec![Insn::RetVoid]),
        raw_method("callee2", 2, 2, vec![Insn::Load(0), Insn::Ret]),
    ])
}

/// Listing line and measured stack effect of the `n`-th opcode (under
/// `callee`), probed at rising entry heights.
fn pin_opcode(out: &mut String, n: usize, callee: MethodId) {
    let mut lowest_refusal = String::from("-");
    for height in 0..8u32 {
        // The instruction sits at pc `height`; branches go to the next pc.
        let insn = every_opcode(height + 1, callee)[n];
        let p = probe_program(insn, height);
        let errors = verify_program(&p).err().unwrap_or_default();
        let at_insn = errors.iter().find(|e| match e {
            VerifyError::StackUnderflow { pc, .. } => *pc == height,
            _ => false,
        });
        if let Some(e) = at_insn {
            lowest_refusal = e.to_string();
            continue;
        }
        let listing = disassemble_method(&p.methods[0]);
        let line = listing.lines().nth(1 + height as usize).expect("the probed pc is listed");
        let line = line.split_once(": ").expect("pc prefix").1;
        // The first trailing `pop` that underflows says how many slots
        // were left; none at all means nothing after `insn` is reachable.
        let leaves = errors
            .iter()
            .find_map(|e| match e {
                VerifyError::StackUnderflow { pc, .. } => Some((pc - height - 1).to_string()),
                _ => None,
            })
            .unwrap_or_else(|| "unreachable".into());
        let others: Vec<String> = errors
            .iter()
            .filter(|e| !matches!(e, VerifyError::StackUnderflow { .. }))
            .map(|e| e.to_string())
            .collect();
        let _ = writeln!(
            out,
            "[{line}] enters at {height} leaves {leaves}; one lower: {lowest_refusal}; other errors: {others:?}"
        );
        return;
    }
    panic!("opcode {n} is refused at every probed height");
}

/// One raw program per `VerifyError` variant (and per place a variant
/// can come from).
fn verify_cases() -> Vec<(&'static str, Program)> {
    use Insn::*;
    let k = |v| Const(Value::Int(v));
    let one = |code: Vec<Insn>| raw_program(vec![raw_method("m", 0, 1, code)]);
    let with = |code: Vec<Insn>, f: &dyn Fn(&mut Method)| {
        let mut m = raw_method("m", 0, 1, code);
        f(&mut m);
        raw_program(vec![m])
    };
    vec![
        ("branch-target-out-of-range", one(vec![Goto(99)])),
        ("conditional-target-out-of-range", one(vec![k(0), IfZero(7), RetVoid])),
        (
            "handler-target-out-of-range",
            with(vec![RetVoid], &|m| {
                m.handlers = vec![
                    Handler { start: 0, end: 1, target: 5, kind: CatchKind::All },
                    Handler { start: 3, end: 9, target: 0, kind: CatchKind::Class(1) },
                ]
            }),
        ),
        ("local-out-of-range", one(vec![Load(1), Store(2), RetVoid])),
        ("stack-underflow", one(vec![k(1), Add, RetVoid])),
        ("height-mismatch", one(vec![k(0), IfZero(4), k(1), Goto(6), k(1), k(2), Pop, RetVoid])),
        ("falls-off-end", one(vec![Nop])),
        ("conditional-falls-off-end", one(vec![k(0), IfNonZero(0)])),
        ("empty-method", one(vec![])),
        ("bad-call-target", one(vec![Call(MethodId(9)), RetVoid])),
        ("bad-spawn-target", one(vec![k(5), Spawn(MethodId(8)), RetVoid])),
        ("bad-delegate-target", one(vec![k(0), Delegate(MethodId(7)), RetVoid])),
        ("inconsistent-returns", one(vec![k(0), IfZero(3), RetVoid, k(1), Ret])),
        (
            "malformed-regions",
            with(vec![Nop, MonitorEnter, MonitorExit, RetVoid], &|m| {
                m.sync_regions = vec![
                    SyncRegion { enter: 0, exit: 3 },
                    SyncRegion { enter: 1, exit: 2 },
                    SyncRegion { enter: 1, exit: 9 },
                    SyncRegion { enter: 7, exit: 0 },
                ]
            }),
        ),
        (
            "handler-entry-heights",
            with(vec![Nop, RetVoid, Pop, RetVoid, RollbackHandler], &|m| {
                m.handlers = vec![
                    Handler { start: 0, end: 1, target: 2, kind: CatchKind::All },
                    Handler { start: 0, end: 1, target: 4, kind: CatchKind::Rollback },
                    Handler { start: 0, end: 1, target: 1, kind: CatchKind::Class(3) },
                ]
            }),
        ),
        (
            "several-errors-in-worklist-order",
            one(vec![
                k(0),
                k(0),
                IfLt(6),
                k(1),
                IfZero(8),
                Load(4),
                Call(MethodId(3)),
                RetVoid,
                Goto(40),
            ]),
        ),
    ]
}

/// A method whose seven branch kinds cross a synchronized region every
/// way a branch can: over it forwards and backwards, within it, onto its
/// exit boundary and onto its `monitorenter` itself.
fn relocation_method() -> Program {
    use Insn::*;
    let k = |v| Const(Value::Int(v));
    let code = vec![
        k(0),          //  0
        IfZero(3),     //  1: forwards, before the region
        Nop,           //  2
        Load(0),       //  3
        MonitorEnter,  //  4: region enter; target of 23 and of a handler
        k(1),          //  5
        k(2),          //  6
        IfLt(9),       //  7: forwards within the region
        Nop,           //  8
        k(1),          //  9
        PutStatic(1),  // 10
        k(1),          // 11
        k(1),          // 12
        IfGe(5),       // 13: backwards within the region
        Load(0),       // 14
        MonitorExit,   // 15: region exit = 16
        k(3),          // 16
        k(3),          // 17
        IfEq(0),       // 18: backwards across the region
        k(4),          // 19
        IfNonZero(26), // 20: forwards, after the region
        k(4),          // 21
        k(4),          // 22
        IfNe(16),      // 23: backwards onto the exit boundary
        Load(0),       // 24
        Goto(4),       // 25: onto the monitorenter: must land on the savestate
        RetVoid,       // 26
        Pop,           // 27: handler entry
        RetVoid,       // 28
    ];
    let mut m = raw_method("cross", 1, 1, code);
    m.sync_regions = vec![SyncRegion { enter: 4, exit: 16 }];
    m.handlers = vec![
        Handler { start: 5, end: 14, target: 27, kind: CatchKind::Class(9) },
        Handler { start: 4, end: 16, target: 4, kind: CatchKind::All },
    ];
    raw_program(vec![m])
}

/// `branch(target)` from outside a region at `[2, 9)`, with one store
/// after it: elided unless the branch enters the interior.
fn region_entry_program(branch: Insn) -> Program {
    use Insn::*;
    let k = |v| Const(Value::Int(v));
    let code = vec![
        branch,
        Load(0),
        MonitorEnter,
        k(1),
        PutStatic(0),
        k(2),
        PutField(1),
        Load(0),
        MonitorExit,
        k(3),
        AStore,
        RetVoid,
    ];
    let mut m = raw_method("m", 1, 1, code);
    m.sync_regions = vec![SyncRegion { enter: 2, exit: 9 }];
    raw_program(vec![m])
}

/// What seeds the "may run inside a monitor" closure: a `call` inside a
/// region does, a `spawn` or `delegate` there does not.
fn call_graph_program() -> Program {
    use Insn::*;
    let k = |v| Const(Value::Int(v));
    let store = |name: &str, next: Option<u32>| {
        let mut code = vec![k(1), PutStatic(0)];
        code.extend(next.map(|m| Call(MethodId(m))));
        code.push(RetVoid);
        raw_method(name, 0, 0, code)
    };
    let mut a = raw_method(
        "a",
        1,
        1,
        vec![
            Load(0),
            MonitorEnter,
            Call(MethodId(1)),
            k(5),
            Spawn(MethodId(3)),
            Pop,
            Load(0),
            Delegate(MethodId(4)),
            Pop,
            Load(0),
            MonitorExit,
            Call(MethodId(5)),
            RetVoid,
        ],
    );
    a.sync_regions = vec![SyncRegion { enter: 1, exit: 11 }];
    raw_program(vec![
        a,
        store("called-inside", Some(2)),
        store("called-by-that", None),
        store("spawned-inside", None),
        store("delegated-inside", None),
        store("called-outside", None),
    ])
}

/// The whole pin, in a fixed order.
fn capture() -> String {
    let mut out = String::new();
    for (file, src) in &common::corpus() {
        let p = assemble(src).unwrap_or_else(|e| panic!("{file}: {e}"));
        pin_program(&mut out, file, &p);
    }
    pin_program(&mut out, "builder fig5-cell", &revmon_bench::workload::benchmark_program().0);
    pin_program(&mut out, "builder every-emitter", &every_emitter());

    for (label, src) in ASM_ERRORS {
        match assemble(src) {
            Err(e) => {
                let _ = writeln!(
                    out,
                    "asm-error {label}: {e} (line={} message={:?})",
                    e.line, e.message
                );
            }
            Ok(p) => {
                let _ = writeln!(out, "asm-error {label}: assembles ({} methods)", p.methods.len());
            }
        }
    }
    for (label, src) in ASM_ACCEPTED {
        match assemble(src) {
            Err(e) => {
                let _ = writeln!(out, "=== asm-accepted {label}: {e} ===");
            }
            Ok(p) => {
                let _ = writeln!(out, "=== asm-accepted {label} ===");
                out.push_str(&disassemble(&p));
                let _ = writeln!(out, "volatile statics: {:?}", p.volatile_statics);
                for m in &p.methods {
                    let _ = writeln!(out, "{}: regions {:?}", m.name, m.sync_regions);
                    let _ = writeln!(out, "{}: handlers {:?}", m.name, m.handlers);
                    let news: Vec<&Insn> =
                        m.code.iter().filter(|i| matches!(i, Insn::New { .. })).collect();
                    let _ = writeln!(out, "{}: new {news:?}", m.name);
                }
                push_verdict(&mut out, &p);
            }
        }
    }

    let _ = writeln!(out, "=== every opcode, calls to callee0 ===");
    let with_callee0 = every_opcode(0, MethodId(1));
    for n in 0..with_callee0.len() {
        pin_opcode(&mut out, n, MethodId(1));
    }
    let _ = writeln!(out, "=== the opcodes that name a method, calls to callee2 ===");
    let with_callee2 = every_opcode(0, MethodId(2));
    for n in (0..with_callee2.len()).filter(|&n| with_callee0[n] != with_callee2[n]) {
        pin_opcode(&mut out, n, MethodId(2));
    }

    for (label, p) in verify_cases() {
        let _ = writeln!(out, "=== verify {label} ===");
        push_verdict(&mut out, &p);
    }

    let cross = relocation_method();
    pin_program(&mut out, "raw branch-relocation", &cross);
    let rewritten = rewrite_program(&cross);
    let m = &rewritten.methods[0];
    let _ = writeln!(out, "regions {:?}", m.sync_regions);
    let _ = writeln!(out, "scopes {:?}", m.rollback_scopes);
    let _ = writeln!(out, "handlers {:?}", m.handlers);

    let _ = writeln!(out, "=== region entry by branch kind ===");
    for (where_, target) in [("entry", 2), ("interior", 5), ("exit", 9)] {
        // The branches are the opcodes that differ when only the target does.
        let elsewhere = every_opcode(target + 1, MethodId(0));
        let branches =
            every_opcode(target, MethodId(0)).into_iter().filter(|i| !elsewhere.contains(i));
        for branch in branches {
            let p = region_entry_program(branch);
            let line = disassemble_method(&p.methods[0]);
            let line = line.lines().nth(1).expect("pc 0").split_once(": ").expect("pc prefix").1;
            let _ = write!(out, "[{line}] into the {where_}: ");
            push_elided(&mut out, &p);
        }
    }
    pin_program(&mut out, "raw call-graph", &call_graph_program());
    out
}

#[test]
fn front_end_matches_the_pinned_golden() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden/frontend_pin.txt");
    let actual = capture();
    // Compare line by line so a failure names the element that moved.
    for (n, (got, want)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "front-end output drifted from the pinned golden at line {}", n + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "pinned line count changed");
}

/// Rewrites the golden file. Run with `--ignored`.
#[test]
#[ignore]
fn bless() {
    std::fs::write(golden_path(), capture()).expect("write golden/frontend_pin.txt");
}
