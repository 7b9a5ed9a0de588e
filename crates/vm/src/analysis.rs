//! Write-barrier elision analysis.
//!
//! §1.1: *"all compiled code needs at least a fast-path test on every
//! non-local update to check if the thread is executing within a
//! synchronized section […] Compiler analyses and optimization may elide
//! these run-time checks when the update can be shown statically never to
//! occur within a synchronized section."*
//!
//! A store needs its barrier unless it can be shown **never** to execute
//! while the thread holds a monitor:
//!
//! * a store lexically inside one of its method's synchronized regions
//!   always needs the barrier;
//! * a store outside every region needs it only if the *method itself*
//!   may run while its thread holds a monitor — computed as a transitive
//!   closure over `Call` and `Delegate` edges, seeded by every `Call`
//!   that appears inside a region and by every `Delegate` target (a
//!   delegated method always runs under the monitor it was submitted
//!   to, on whichever thread holds it);
//! * methods whose control flow can jump *into* the middle of a region
//!   from outside (impossible with builder-structured code, possible with
//!   raw bytecode) are treated conservatively: every store keeps its
//!   barrier.
//!
//! Read barriers (the JMM guard's dependency check) are **not** elided:
//! the problematic reads of Figures 2–3 are precisely reads *outside* any
//! monitor, so removing unmonitored read barriers would blind the guard.
//! The paper's conclusion floats that optimization as future work; we
//! document the soundness caveat here instead.

use crate::bytecode::{Barrier, Insn, Method, Program};

/// Per-method, per-pc elision table: `true` = this store's write barrier
/// is statically removable.
#[derive(Debug, Clone)]
pub struct ElisionTable {
    /// `table[method][pc]` — only meaningful at store instructions.
    table: Vec<Box<[bool]>>,
    /// Number of store sites whose barrier was elided.
    pub elided_sites: usize,
    /// Total store sites.
    pub store_sites: usize,
}

impl ElisionTable {
    /// Whether the store at `method`/`pc` may skip its barrier.
    #[inline]
    pub fn is_elided(&self, method: usize, pc: u32) -> bool {
        self.table.get(method).and_then(|m| m.get(pc as usize)).copied().unwrap_or(false)
    }
}

fn is_store(i: &Insn) -> bool {
    i.op().barrier == Barrier::Write
}

/// Whether `pc` lies inside any of the method's synchronized regions.
fn in_region(m: &Method, pc: u32) -> bool {
    m.sync_regions.iter().any(|r| pc >= r.enter && pc < r.exit)
}

/// Conservative escape hatch: any branch from outside a region into its
/// interior (not its entry) makes lexical reasoning unsound.
fn has_irregular_region_entry(m: &Method) -> bool {
    for (pc, i) in m.code.iter().enumerate() {
        let Some(t) = i.target() else { continue };
        for r in &m.sync_regions {
            let from_outside = !(pc as u32 >= r.enter && (pc as u32) < r.exit);
            let into_interior = t > r.enter && t < r.exit;
            if from_outside && into_interior {
                return true;
            }
        }
    }
    // Handlers that land inside a region from outside count too.
    for h in &m.handlers {
        for r in &m.sync_regions {
            let covers_region = h.start <= r.enter && h.end >= r.exit;
            let into_interior = h.target > r.enter && h.target < r.exit;
            if into_interior && !covers_region {
                return true;
            }
        }
    }
    false
}

/// Compute the elision table for a (possibly rewritten) program.
pub fn analyze(p: &Program) -> ElisionTable {
    let n = p.methods.len();
    // 1. may_run_in_monitor: seeded by calls inside regions and by every
    //    delegated method, closed transitively over calls and delegations.
    let mut may_run = vec![false; n];
    let mut work: Vec<usize> = Vec::new();
    let mut mark = |callee: usize, work: &mut Vec<usize>| {
        if !may_run[callee] {
            may_run[callee] = true;
            work.push(callee);
        }
    };
    for m in &p.methods {
        for (pc, i) in m.code.iter().enumerate() {
            match i {
                Insn::Call(callee) if in_region(m, pc as u32) => mark(callee.index(), &mut work),
                Insn::Delegate(callee) => mark(callee.index(), &mut work),
                _ => {}
            }
        }
    }
    while let Some(mi) = work.pop() {
        for i in &p.methods[mi].code {
            if let Insn::Call(callee) | Insn::Delegate(callee) = i {
                mark(callee.index(), &mut work);
            }
        }
    }

    // 2. Per-store decision.
    let mut elided_sites = 0;
    let mut store_sites = 0;
    let table: Vec<Box<[bool]>> = p
        .methods
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            let conservative = may_run[mi] || has_irregular_region_entry(m);
            m.code
                .iter()
                .enumerate()
                .map(|(pc, i)| {
                    if !is_store(i) {
                        return false;
                    }
                    store_sites += 1;
                    let elide = !conservative && !in_region(m, pc as u32);
                    if elide {
                        elided_sites += 1;
                    }
                    elide
                })
                .collect()
        })
        .collect();

    ElisionTable { table, elided_sites, store_sites }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{MethodBuilder, ProgramBuilder};
    use crate::rewrite::rewrite_program;

    /// helper() stores to static 1; caller calls it inside (or outside) a
    /// region, plus does its own stores inside and outside.
    fn program(call_inside: bool) -> (Program, usize, usize) {
        let mut pb = ProgramBuilder::new();
        pb.statics(3);
        let helper = pb.declare_method("helper", 0);
        let mut h = MethodBuilder::new(0, 0);
        h.const_i(1);
        h.put_static(1);
        h.ret_void();
        pb.implement(helper, h);
        let run = pb.declare_method("run", 1);
        let mut b = MethodBuilder::new(1, 1);
        b.const_i(5);
        b.put_static(0); // store outside the region
        b.sync_on_local(0, |b| {
            b.const_i(6);
            b.put_static(2); // store inside the region
            if call_inside {
                b.call(helper);
            }
        });
        if !call_inside {
            b.call(helper);
        }
        b.ret_void();
        pb.implement(run, b);
        (pb.finish(), helper.index(), run.index())
    }

    #[test]
    fn stores_inside_regions_keep_barriers() {
        let (p, _, run) = program(false);
        let t = analyze(&p);
        let m = &p.methods[run];
        for (pc, i) in m.code.iter().enumerate() {
            if is_store(i) && in_region(m, pc as u32) {
                assert!(!t.is_elided(run, pc as u32), "in-region store must keep barrier");
            }
        }
    }

    #[test]
    fn stores_outside_regions_elided_when_uncallable_from_monitors() {
        let (p, helper, run) = program(false);
        let t = analyze(&p);
        // helper is only called outside the region: its store is elided.
        let hm = &p.methods[helper];
        let store_pc = hm.code.iter().position(is_store).unwrap();
        assert!(t.is_elided(helper, store_pc as u32));
        // run's own out-of-region store is elided too.
        let rm = &p.methods[run];
        let out_pc = rm
            .code
            .iter()
            .enumerate()
            .position(|(pc, i)| is_store(i) && !in_region(rm, pc as u32))
            .unwrap();
        assert!(t.is_elided(run, out_pc as u32));
    }

    #[test]
    fn callee_of_a_region_keeps_barriers() {
        let (p, helper, _) = program(true);
        let t = analyze(&p);
        let hm = &p.methods[helper];
        let store_pc = hm.code.iter().position(is_store).unwrap();
        assert!(
            !t.is_elided(helper, store_pc as u32),
            "store of a method reachable from a monitor must keep its barrier"
        );
    }

    #[test]
    fn transitive_closure_over_calls() {
        let mut pb = ProgramBuilder::new();
        pb.statics(1);
        let c = pb.declare_method("c", 0);
        let mut cb = MethodBuilder::new(0, 0);
        cb.const_i(1);
        cb.put_static(0);
        cb.ret_void();
        pb.implement(c, cb);
        let bm = pb.declare_method("b", 0);
        let mut bb = MethodBuilder::new(0, 0);
        bb.call(c);
        bb.ret_void();
        pb.implement(bm, bb);
        let a = pb.declare_method("a", 1);
        let mut ab = MethodBuilder::new(1, 1);
        ab.sync_on_local(0, |x| {
            x.call(bm);
        });
        ab.ret_void();
        pb.implement(a, ab);
        let p = pb.finish();
        let t = analyze(&p);
        assert!(!t.is_elided(c.index(), 1), "a -> region -> b -> c: c keeps barriers");
    }

    #[test]
    fn analysis_works_on_rewritten_programs() {
        let (p, helper, _) = program(false);
        let r = rewrite_program(&p);
        let t = analyze(&r);
        let hm = &r.methods[helper];
        let store_pc = hm.code.iter().position(is_store).unwrap();
        assert!(t.is_elided(helper, store_pc as u32));
        assert!(t.store_sites >= 3);
        assert!(t.elided_sites >= 1);
    }

    #[test]
    fn irregular_entry_disables_elision_for_the_method() {
        use crate::bytecode::{Method, SyncRegion};
        use crate::value::Value;
        use Insn::*;
        // Hand-built: a jump from outside into the middle of the region.
        let code = vec![
            Goto(5),              // 0: jump INTO region interior
            Load(0),              // 1
            MonitorEnter,         // 2: region enter
            Const(Value::Int(1)), // 3
            PutStatic(0),         // 4
            Const(Value::Int(2)), // 5  <- jumped-to interior
            PutStatic(1),         // 6
            Load(0),              // 7
            MonitorExit,          // 8
            RetVoid,              // 9
        ];
        let p = Program {
            methods: vec![Method {
                name: "m".into(),
                params: 1,
                locals: 1,
                code,
                handlers: vec![],
                sync_regions: vec![SyncRegion { enter: 2, exit: 9 }],
                synchronized: false,
                rollback_scopes: vec![],
            }],
            n_statics: 2,
            volatile_statics: vec![],
            class_names: Default::default(),
        };
        let t = analyze(&p);
        assert_eq!(t.elided_sites, 0, "irregular entry must force conservatism");
    }
}
