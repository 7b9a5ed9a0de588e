//! A textual assembly format for the mini-ISA, so programs can live in
//! `.rvm` files and be run/disassembled/verified from the command line
//! (see the `revmon-cli` crate).
//!
//! ```text
//! ; counter.rvm — two workers under one lock
//! .statics 1
//!
//! .method worker params=1 locals=2
//!     sync l0 {
//!         const 0
//!         store l1
//!     loop:
//!         load l1
//!         const 500
//!         if_ge done
//!         getstatic s0
//!         const 1
//!         add
//!         putstatic s0
//!         load l1
//!         const 1
//!         add
//!         store l1
//!         goto loop
//!     done:
//!     }
//!     retvoid
//! .end
//!
//! .method main params=0 locals=1
//!     new class=0 fields=0
//!     store l0
//!     load l0
//!     const 8        ; priority
//!     spawn worker
//!     load l0
//!     const 2
//!     spawn worker
//!     join
//!     join
//!     retvoid
//! .end
//! ```
//!
//! Directives: `.statics N`, `.volatile N`, `.class TAG NAME`, `.method
//! NAME params=N locals=N [synchronized]` … `.end`, `.handler START END
//! TARGET class=N|all` (labels). Labels end with `:`; `sync lN { … }`
//! blocks emit the monitor bracketing and record the region metadata the
//! rewrite pass needs. Comments run from `;` to end of line. The
//! instructions are the rows of [`bytecode`](crate::bytecode)'s opcode
//! table; docs/ASSEMBLY.md is the reference.

use crate::builder::{Label, MethodBuilder, ProgramBuilder};
use crate::bytecode::{CatchKind, Handler, MethodId, NativeOp, Op, OperandKind, Program};
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// An assembly error with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError { line, message: message.into() }
}

/// The most static slots a program may declare: what a `u16` `sN`
/// operand can reach.
const MAX_STATICS: u32 = u16::MAX as u32 + 1;

/// Parse assembly text into a [`Program`]: a line parser in front of
/// [`ProgramBuilder`] and [`MethodBuilder`], which own labels, fixups,
/// `sync` bracketing and program assembly. What the builders would
/// assert is checked here first and reported with its line.
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    // Pass 1: method name table (for forward call/spawn references).
    let mut pb = ProgramBuilder::new();
    let mut names: HashMap<&str, MethodId> = HashMap::new();
    for (i, raw) in src.lines().enumerate() {
        if let Some(rest) = strip(raw).strip_prefix(".method") {
            let name =
                rest.split_whitespace().next().ok_or_else(|| err(i + 1, ".method needs a name"))?;
            if names.insert(name, pb.declare_method(name, 0)).is_some() {
                return Err(err(i + 1, format!("duplicate method `{name}`")));
            }
        }
    }

    let mut class_names: BTreeMap<u32, String> = BTreeMap::new();
    let mut cur: Option<MethodAsm> = None;

    for (i, raw) in src.lines().enumerate() {
        let ln = i + 1;
        let line = strip(raw);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".statics") {
            pb.statics(parse_upto(rest.trim(), ".statics count", MAX_STATICS, ln)?);
            continue;
        }
        if let Some(rest) = line.strip_prefix(".volatile") {
            let slot: u16 = parse_upto(rest.trim(), ".volatile slot", u16::MAX, ln)?;
            pb.volatile_static(slot.into());
            continue;
        }
        if let Some(rest) = line.strip_prefix(".class") {
            let mut parts = rest.split_whitespace();
            let tag = parts.next().ok_or_else(|| err(ln, ".class needs a tag"))?;
            let tag = parse_upto(tag, "class tag", u32::MAX, ln)?;
            let name = parts.next().ok_or_else(|| err(ln, ".class needs a name after the tag"))?;
            if parts.next().is_some() {
                return Err(err(ln, ".class takes exactly a tag and a name"));
            }
            if class_names.insert(tag, name.to_string()).is_some() {
                return Err(err(ln, format!("duplicate .class for tag {tag}")));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(".method") {
            if cur.is_some() {
                return Err(err(ln, ".method inside a method (missing .end?)"));
            }
            cur = Some(MethodAsm::start(rest, ln)?);
            continue;
        }
        if line == ".end" {
            let m = cur.take().ok_or_else(|| err(ln, ".end outside a method"))?;
            pb.implement(names[m.name], m.finish(ln)?);
            continue;
        }
        if let Some(rest) = line.strip_prefix(".handler") {
            let m = cur.as_mut().ok_or_else(|| err(ln, ".handler outside a method"))?;
            m.handler_directive(rest, ln)?;
            continue;
        }
        let m = cur.as_mut().ok_or_else(|| err(ln, format!("code outside a method: `{line}`")))?;
        m.line(line, ln, &names)?;
    }
    if cur.is_some() {
        return Err(err(src.lines().count(), "unterminated .method (missing .end)"));
    }
    Ok(Program { class_names, ..pb.finish() })
}

/// Strip comments and surrounding whitespace.
fn strip(raw: &str) -> &str {
    match raw.find(';') {
        Some(p) => raw[..p].trim(),
        None => raw.trim(),
    }
}

fn parse_num(s: &str, ln: usize) -> Result<i64, AsmError> {
    s.parse::<i64>().map_err(|_| err(ln, format!("expected a number, got `{s}`")))
}

/// A number that must lie in `0..=max`: the one range check every
/// narrowed operand and count goes through.
fn parse_upto<T>(s: &str, what: &str, max: T, ln: usize) -> Result<T, AsmError>
where
    T: TryFrom<i64> + PartialOrd + fmt::Display,
{
    let n = parse_num(s, ln)?;
    T::try_from(n)
        .ok()
        .filter(|v| *v <= max)
        .ok_or_else(|| err(ln, format!("{what} {n} is out of range (0..={max})")))
}

/// A slot operand: `prefix` then a `u16`, like `l0` or `s0`.
fn parse_slot(tok: &str, prefix: char, what: &str, ln: usize) -> Result<u16, AsmError> {
    tok.strip_prefix(prefix)
        .and_then(|r| r.parse::<u16>().ok())
        .ok_or_else(|| err(ln, format!("expected a {what} like {prefix}0, got `{tok}`")))
}

/// In-progress method assembly: the builder, and what only source text
/// has — label names and the lines they were used on.
struct MethodAsm<'s> {
    name: &'s str,
    b: MethodBuilder,
    /// label name → its builder label and the line of its first use by a
    /// branch (where "undefined label" points).
    labels: HashMap<&'s str, (Label, Option<usize>)>,
    /// raw handler directives: (start, end, target labels, kind, line).
    handler_dirs: Vec<([&'s str; 3], CatchKind, usize)>,
}

impl<'s> MethodAsm<'s> {
    fn start(rest: &'s str, ln: usize) -> Result<Self, AsmError> {
        let mut toks = rest.split_whitespace();
        let name = toks.next().ok_or_else(|| err(ln, ".method needs a name"))?;
        let mut params = None;
        let mut locals = None;
        let mut synchronized = false;
        for t in toks {
            match t.split_once('=') {
                None if t == "synchronized" => synchronized = true,
                Some(("params", n)) => params = Some(parse_upto(n, "params", u16::MAX, ln)?),
                Some(("locals", n)) => locals = Some(parse_upto(n, "locals", u16::MAX, ln)?),
                _ => return Err(err(ln, format!("unknown .method attribute `{t}`"))),
            }
        }
        let params = params.ok_or_else(|| err(ln, ".method needs params=N"))?;
        let locals = locals.unwrap_or(params).max(params);
        Ok(MethodAsm {
            name,
            b: MethodBuilder::from_header(params, locals, synchronized),
            labels: HashMap::new(),
            handler_dirs: Vec::new(),
        })
    }

    fn handler_directive(&mut self, rest: &'s str, ln: usize) -> Result<(), AsmError> {
        let toks: Vec<&str> = rest.split_whitespace().collect();
        let &[start, end, target, kind] = toks.as_slice() else {
            return Err(err(ln, ".handler START END TARGET class=N|all"));
        };
        let kind = match kind.split_once('=') {
            None if kind == "all" => CatchKind::All,
            Some(("class", n)) => CatchKind::Class(parse_upto(n, "class tag", u32::MAX, ln)?),
            _ => return Err(err(ln, format!("expected class=N, got `{kind}`"))),
        };
        self.handler_dirs.push(([start, end, target], kind, ln));
        Ok(())
    }

    /// The builder label behind `name`, made on first mention; `used`
    /// is the line of a branch to it.
    fn label(&mut self, name: &'s str, used: Option<usize>) -> Label {
        let entry = self.labels.entry(name).or_insert_with(|| (self.b.new_label(), None));
        entry.1 = entry.1.or(used);
        entry.0
    }

    fn line(
        &mut self,
        line: &'s str,
        ln: usize,
        names: &HashMap<&str, MethodId>,
    ) -> Result<(), AsmError> {
        // label?
        if let Some(l) = line.strip_suffix(':') {
            let l = l.trim();
            let label = self.label(l, None);
            if self.b.placed(label).is_some() {
                return Err(err(ln, format!("duplicate label `{l}`")));
            }
            self.b.place(label);
            return Ok(());
        }
        // sync block close?
        if line == "}" {
            return if self.b.sync_close() { Ok(()) } else { Err(err(ln, "unmatched `}`")) };
        }
        let mut toks = line.split_whitespace();
        let mnemonic = toks.next().expect("nonempty line");
        // What follows the mnemonic; all but `new` read the first word only.
        let arg =
            || toks.clone().next().ok_or_else(|| err(ln, format!("`{mnemonic}` needs an operand")));
        if mnemonic == "sync" {
            // `sync lN {`
            let local = parse_slot(arg()?, 'l', "local", ln)?;
            if toks.clone().nth(1) != Some("{") {
                return Err(err(ln, "expected `sync lN {`"));
            }
            self.b.sync_open(local);
            return Ok(());
        }
        // One parser per operand kind; the row says which and builds the
        // instruction from what it read.
        let insn = match Op::named(mnemonic).map(|op| op.operand) {
            Some(OperandKind::Plain(insn)) => insn,
            Some(OperandKind::Local(make)) => make(parse_slot(arg()?, 'l', "local", ln)?),
            Some(OperandKind::Static(make)) => make(parse_slot(arg()?, 's', "static", ln)?),
            Some(OperandKind::Field(make)) => {
                make(parse_upto(arg()?, "field offset", u16::MAX, ln)?)
            }
            Some(OperandKind::Label(make)) => {
                let label = self.label(arg()?, Some(ln));
                self.b.branch(label, make);
                return Ok(());
            }
            Some(OperandKind::Method(make)) => {
                let name = arg()?;
                make(*names.get(name).ok_or_else(|| err(ln, format!("unknown method `{name}`")))?)
            }
            Some(OperandKind::Const(make)) => make(match arg()? {
                "null" => Value::Null,
                t => Value::Int(parse_num(t, ln)?),
            }),
            Some(OperandKind::Native(make)) => make(match arg()? {
                "print" => NativeOp::Print,
                "emit" => NativeOp::Emit,
                other => return Err(err(ln, format!("unknown native `{other}`"))),
            }),
            Some(OperandKind::New(make)) => {
                let (mut class_tag, mut fields, mut volatile_mask) = (0, 0, 0);
                for t in toks.clone() {
                    match t.split_once('=') {
                        Some(("class", n)) => class_tag = parse_upto(n, "class tag", u32::MAX, ln)?,
                        Some(("fields", n)) => fields = parse_upto(n, "field count", u16::MAX, ln)?,
                        Some(("volatile", n)) => {
                            volatile_mask = parse_upto(n, "volatile mask", u64::MAX, ln)?
                        }
                        _ => return Err(err(ln, format!("unknown new attribute `{t}`"))),
                    }
                }
                make(class_tag, fields, volatile_mask)
            }
            Some(OperandKind::Injected) | None => {
                return Err(err(ln, format!("unknown instruction `{mnemonic}`")));
            }
        };
        self.b.emit(insn);
        Ok(())
    }

    /// What the builder's `finish` would assert, checked with a line to
    /// point at; then the handlers, now that every label has a pc.
    fn finish(mut self, ln: usize) -> Result<MethodBuilder, AsmError> {
        if self.b.in_sync() {
            return Err(err(ln, "unclosed sync block"));
        }
        // The earliest branch to a label no line defines.
        let undefined = self
            .labels
            .iter()
            .filter(|(_, &(label, _))| self.b.placed(label).is_none())
            .filter_map(|(name, &(_, used))| Some((used?, name)))
            .min();
        if let Some((l, name)) = undefined {
            return Err(err(l, format!("undefined label `{name}`")));
        }
        let pc = |name: &str| self.labels.get(name).and_then(|&(label, _)| self.b.placed(label));
        let handlers = self
            .handler_dirs
            .iter()
            .map(|&(names, kind, l)| {
                let [start, end, target] = names.map(|name| {
                    pc(name).ok_or_else(|| err(l, format!("undefined label `{name}`")))
                });
                Ok(Handler { start: start?, end: end?, target: target?, kind })
            })
            .collect::<Result<Vec<_>, AsmError>>()?;
        handlers.into_iter().for_each(|h| self.b.raw_handler(h));
        Ok(self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Insn;
    use crate::value::Value as V;
    use crate::{Vm, VmConfig};
    use revmon_core::Priority;

    const COUNTER: &str = r#"
; self-contained fork/join counter
.statics 2

.method worker params=1 locals=2
    sync l0 {
        const 0
        store l1
    loop:
        load l1
        const 500
        if_ge done
        getstatic s0
        const 1
        add
        putstatic s0
        load l1
        const 1
        add
        store l1
        goto loop
    done:
    }
    retvoid
.end

.method main params=0 locals=1
    new class=0 fields=0
    store l0
    load l0
    const 2        ; low priority
    spawn worker
    load l0
    const 8        ; high priority
    spawn worker
    join
    join
    getstatic s0
    putstatic s1
    retvoid
.end
"#;

    #[test]
    fn assembles_and_runs_on_both_vms() {
        for cfg in [VmConfig::unmodified(), VmConfig::modified()] {
            let p = assemble(COUNTER).expect("assembles");
            let main = p.method_by_name("main").unwrap();
            let mut vm = Vm::new(p, cfg);
            vm.spawn("main", main, vec![], Priority::NORM);
            vm.run().expect("runs");
            assert_eq!(vm.read_static(1).unwrap(), V::Int(1_000));
        }
    }

    #[test]
    fn sync_blocks_record_regions() {
        let p = assemble(COUNTER).unwrap();
        let w = p.method_by_name("worker").unwrap();
        let m = p.method(w);
        assert_eq!(m.sync_regions.len(), 1);
        assert!(matches!(m.code[m.sync_regions[0].enter as usize], Insn::MonitorEnter));
    }

    #[test]
    fn volatile_directive_applies() {
        let p = assemble(".statics 2\n.volatile 1\n.method m params=0 locals=0\nretvoid\n.end\n")
            .unwrap();
        assert_eq!(p.volatile_statics, vec![1]);
        assert_eq!(p.n_statics, 2);
    }

    #[test]
    fn handler_directive_resolves_labels() {
        let src = r#"
.statics 1
.method m params=0 locals=0
try_start:
    new class=9 fields=0
    throw
try_end:
    retvoid
catch:
    pop
    const 1
    putstatic s0
    retvoid
.handler try_start try_end catch class=9
.end
"#;
        let p = assemble(src).unwrap();
        let m = p.method_by_name("m").unwrap();
        let mut vm = Vm::new(p, VmConfig::unmodified());
        vm.spawn("main", m, vec![], Priority::NORM);
        vm.run().unwrap();
        assert_eq!(vm.read_static(0).unwrap(), V::Int(1));
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = assemble(".method m params=0 locals=0\n    fly\n.end\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("fly"));
    }

    #[test]
    fn undefined_label_detected() {
        let e = assemble(".method m params=0 locals=0\n    goto nowhere\n.end\n").unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn unclosed_sync_detected() {
        let e = assemble(".method m params=1 locals=1\n    sync l0 {\n.end\n").unwrap_err();
        assert!(e.message.contains("unclosed sync"));
    }

    #[test]
    fn duplicate_method_detected() {
        let e = assemble(
            ".method m params=0 locals=0\nretvoid\n.end\n.method m params=0 locals=0\nretvoid\n.end\n",
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn synchronized_attribute_sets_flag_and_rewrites() {
        let src = ".statics 1\n.method inc params=1 locals=1 synchronized\n    getstatic s0\n    const 1\n    add\n    putstatic s0\n    retvoid\n.end\n";
        let p = assemble(src).unwrap();
        assert!(p.methods[0].synchronized);
        let r = crate::rewrite::rewrite_program(&p);
        assert!(r.method_by_name("inc$sync").is_some());
    }
    /// `src` must be refused at `line` with a message holding every part
    /// of `wants`.
    fn refused(src: &str, line: usize, wants: &[&str]) {
        let e = assemble(src).expect_err(src);
        assert_eq!(e.line, line, "{src:?}: {e}");
        assert!(wants.iter().all(|w| e.message.contains(w)), "{src:?}: {e}");
        assert!(e.to_string().starts_with(&format!("line {line}: ")));
    }

    #[test]
    fn narrowed_operands_are_range_checked_with_their_line() {
        // Each of these used to assemble to a different program:
        // `getfield +0`, `putfield +65535`, `class=4294967295 fields=1`,
        // 4 464 params.
        let body = |insn: &str| format!(".method m params=0\n{insn}\nretvoid\n.end\n");
        refused(&body("getfield 65536"), 2, &["field offset 65536", "0..=65535"]);
        refused(&body("putfield -1"), 2, &["field offset -1", "0..=65535"]);
        refused(&body("new class=-1 fields=2"), 2, &["class tag -1", "0..=4294967295"]);
        refused(&body("new class=4294967296"), 2, &["class tag 4294967296"]);
        refused(&body("new class=1 fields=65537"), 2, &["field count 65537", "0..=65535"]);
        refused(&body("new volatile=-1"), 2, &["volatile mask -1"]);
        refused(".method main params=70000\nretvoid\n.end\n", 1, &["params 70000", "0..=65535"]);
        refused(".method main params=0 locals=-2\nretvoid\n.end\n", 1, &["locals -2"]);
        refused("\n.class 4294967296 Big\n", 2, &["class tag 4294967296"]);
        refused(
            ".method m params=0\na:\nretvoid\n.handler a a a class=-7\n.end\n",
            4,
            &["class tag -7"],
        );
    }

    #[test]
    fn static_counts_beyond_any_operand_are_refused() {
        // `.volatile 4294967295` overflowed `s + 1` (a panic in debug, "0
        // statics (1 volatile)" in release); `.statics -1` asked the heap
        // for 2^32 slots.
        refused(".volatile 4294967295\n", 1, &[".volatile slot 4294967295", "0..=65535"]);
        refused(".volatile 65536\n", 1, &[".volatile slot 65536"]);
        refused(".volatile -1\n", 1, &[".volatile slot -1"]);
        refused(".statics 1\n.statics -1\n", 2, &[".statics count -1", "0..=65536"]);
        refused(".statics 65537\n", 1, &[".statics count 65537", "0..=65536"]);
        refused(".statics 4294967296\n", 1, &[".statics count 4294967296"]);
    }

    #[test]
    fn the_largest_in_range_operands_assemble_as_written() {
        let src = ".statics 65536\n.volatile 65535\n.class 4294967295 Top\n\
                   .method m params=65535 locals=65535\n\
                   new class=4294967295 fields=65535 volatile=9223372036854775807\n\
                   getfield 65535\nputfield 0\nload l65535\ngetstatic s65535\nretvoid\n.end\n";
        let p = assemble(src).unwrap();
        assert_eq!((p.n_statics, &p.volatile_statics[..]), (65_536, &[65_535][..]));
        assert_eq!(p.class_names[&u32::MAX], "Top");
        let m = &p.methods[0];
        assert_eq!((m.params, m.locals), (u16::MAX, u16::MAX));
        assert_eq!(
            m.code[..5],
            [
                Insn::New { class_tag: u32::MAX, fields: u16::MAX, volatile_mask: i64::MAX as u64 },
                Insn::GetField(u16::MAX),
                Insn::PutField(0),
                Insn::Load(u16::MAX),
                Insn::GetStatic(u16::MAX),
            ]
        );
    }

    #[test]
    fn no_builder_assertion_is_reachable_from_source_text() {
        // What `MethodBuilder::{new, set_synchronized, load, place}` and
        // `ProgramBuilder::finish` assert, source text may say: each is
        // an `AsmError` or a program for the verifier to refuse.
        let p = assemble(".method m params=0 synchronized\nload l9\nsync l8 {\n}\nretvoid\n.end\n")
            .unwrap();
        assert!(p.methods[0].synchronized);
        assert!(crate::verify::verify_program(&p).is_err());
        assert_eq!(
            assemble(".method m params=3 locals=1\nretvoid\n.end\n").unwrap().methods[0].locals,
            3
        );
        refused(".method m params=0\na:\na:\nretvoid\n.end\n", 3, &["duplicate label `a`"]);
        refused(".method m params=0\ngoto a\nretvoid\n.end\n", 2, &["undefined label `a`"]);
        refused(".method m params=0\nretvoid\n", 2, &["unterminated .method"]);
    }
}
