//! Human-readable disassembly of programs — the debugging companion to
//! the builder and the rewrite pass. Region boundaries, exception-table
//! coverage and injected rollback scopes are annotated inline, which
//! makes rewrite-pass output inspectable at a glance.

use crate::bytecode::{CatchKind, Insn, Method, Operand, Program};
use std::fmt::Write;

/// Disassemble one method.
pub fn disassemble_method(m: &Method) -> String {
    let mut out = String::new();
    let sync = if m.synchronized { "synchronized " } else { "" };
    let _ = writeln!(out, "{}method {}({} params, {} locals):", sync, m.name, m.params, m.locals);
    for (pc, insn) in m.code.iter().enumerate() {
        let pc = pc as u32;
        let mut notes: Vec<String> = Vec::new();
        for (i, r) in m.sync_regions.iter().enumerate() {
            if r.enter == pc {
                notes.push(format!("region#{i} enter"));
            }
            if r.exit == pc + 1 {
                notes.push(format!("region#{i} exit"));
            }
        }
        for (i, s) in m.rollback_scopes.iter().enumerate() {
            if s.save_pc == pc {
                notes.push(format!("scope#{i} save"));
            }
            if s.handler_pc == pc {
                notes.push(format!("scope#{i} handler"));
            }
        }
        for (i, h) in m.handlers.iter().enumerate() {
            if h.target == pc {
                let kind = match h.kind {
                    CatchKind::All => "catch-all".to_string(),
                    CatchKind::Rollback => "catch-rollback".to_string(),
                    CatchKind::Class(c) => format!("catch#{c}"),
                };
                notes.push(format!("handler#{i} ({kind}) [{}..{})", h.start, h.end));
            }
        }
        let note =
            if notes.is_empty() { String::new() } else { format!("   ; {}", notes.join(", ")) };
        let _ = writeln!(out, "  {pc:>4}: {}{note}", render(*insn));
    }
    out
}

/// Disassemble a whole program.
pub fn disassemble(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "program: {} methods, {} statics ({} volatile)",
        p.methods.len(),
        p.n_statics,
        p.volatile_statics.len()
    );
    for (tag, name) in &p.class_names {
        let _ = writeln!(out, "class {tag}: {name}");
    }
    for m in &p.methods {
        out.push('\n');
        out.push_str(&disassemble_method(m));
    }
    out
}

/// One instruction from its [`ISA`](crate::bytecode::ISA) row: the
/// mnemonic, the operand printed by kind, the row's note.
fn render(i: Insn) -> String {
    let op = i.op();
    let operand = match i.operand() {
        Operand::None => String::new(),
        Operand::Const(v) => v.to_string(),
        Operand::Local(l) => format!("l{l}"),
        Operand::Static(s) => format!("s{s}"),
        Operand::Field(o) => format!("+{o}"),
        Operand::Label(t) => format!("-> {t}"),
        Operand::Method(m) => m.to_string(),
        Operand::Native(n) => format!("{n:?}"),
        Operand::New { class_tag, fields, .. } => format!("class={class_tag} fields={fields}"),
    };
    match (operand.is_empty(), op.note.is_empty()) {
        (true, true) => op.mnemonic.to_string(),
        (true, false) => format!("{:<20}; {}", op.mnemonic, op.note),
        (false, true) => format!("{:<13}{operand}", op.mnemonic),
        (false, false) => format!("{:<13}{operand}   ; {}", op.mnemonic, op.note),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{MethodBuilder, ProgramBuilder};
    use crate::rewrite::rewrite_program;

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let run = pb.declare_method("run", 1);
        let mut b = MethodBuilder::new(1, 1);
        b.sync_on_local(0, |b| {
            b.const_i(1);
            b.put_static(0);
        });
        b.ret_void();
        pb.implement(run, b);
        pb.finish()
    }

    #[test]
    fn raw_method_shows_region_markers() {
        let p = sample();
        let d = disassemble_method(&p.methods[0]);
        assert!(d.contains("region#0 enter"));
        assert!(d.contains("region#0 exit"));
        assert!(d.contains("monitorenter"));
        assert!(d.contains("write-barrier site"));
    }

    #[test]
    fn rewritten_method_shows_injected_artifacts() {
        let r = rewrite_program(&sample());
        let d = disassemble_method(&r.methods[0]);
        assert!(d.contains("savestate"));
        assert!(d.contains("rollbackhandler"));
        assert!(d.contains("scope#0 save"));
        assert!(d.contains("scope#0 handler"));
        assert!(d.contains("catch-rollback"));
    }

    #[test]
    fn program_header_lists_statics() {
        let mut pb = ProgramBuilder::new();
        pb.volatile_static(0);
        let m = pb.declare_method("m", 0);
        let mut b = MethodBuilder::new(0, 0);
        b.ret_void();
        pb.implement(m, b);
        let d = disassemble(&pb.finish());
        assert!(d.contains("1 statics (1 volatile)"));
    }

    #[test]
    fn every_instruction_renders_distinctly() {
        // A smoke check that all pcs appear with their index.
        let p = sample();
        let d = disassemble_method(&p.methods[0]);
        for pc in 0..p.methods[0].code.len() {
            assert!(d.contains(&format!("{pc:>4}: ")), "pc {pc} missing");
        }
    }
}
