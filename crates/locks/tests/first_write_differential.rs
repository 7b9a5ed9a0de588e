//! First-write-only logging against log-everything.
//!
//! `revmon-locks` saves a cell's old value once per section (the stamp
//! beside the saved value decides; see `cell.rs`), where the paper and
//! the VM log every store. Whether that loses anything is a question
//! about nested marks, retries and stale entries, so it is put to a
//! reference model that *does* save every store: random single-thread
//! programs — write or update, enter an inner section (from the section
//! body or from inside an update's closure), commit it, roll one of the
//! open sections back and retry it — run on the real monitors and on the
//! model, and the four cells must agree after every step. The cases the
//! stamp can get wrong are spelled out below as named tests.
//!
//! The thread's undo log has a decision of its own to get wrong: it
//! remembers the handles of the transactions before, and a first write
//! takes over the one at its position *if it is to the same cell*
//! (`tx.rs`, `CellLog`). A program's transactions all run on the one
//! `LOW` thread, so every transaction after the first meets a remembered
//! tail; `runs_of_transactions_agree_with_log_everything` makes those
//! meetings systematic — the same write set again, permuted, cut short,
//! extended, moved to other cells, under a policy that logs nothing —
//! and the case that needs cells of its own is named at the end.
//!
//! A section is rolled back the only way the public API allows: a
//! `HIGH` thread contends for its monitor (one monitor per nesting
//! level) while the program's `LOW` thread spins at a yield point. The
//! contender never touches a cell, so the unsynchronized reads the
//! comparison uses are race-free.

mod common;

use common::{be_revoked, LOG_TAIL_MAX};
use proptest::prelude::*;
use revmon_core::{InversionPolicy, Priority};
use revmon_locks::{RevocableMonitor, TCell, Tx};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;
use std::thread::{self, Scope};

const CELLS: usize = 4;
const MAX_DEPTH: usize = 3;

/// How a store is made.
#[derive(Debug, Clone, Copy, PartialEq)]
enum How {
    /// `Tx::write` of the op's value.
    Write,
    /// `Tx::update` storing `mix(old, value)`.
    Update,
    /// The same update, whose closure first runs a section one level
    /// deeper (a plain update at `MAX_DEPTH`): the ops up to its `Commit`
    /// are that section's, its stores go to *other* cells (the closure's
    /// own is locked — see `Run::free_cell`), and a `RollBack` in there
    /// either retries it inside the closure or unwinds out through the
    /// closure, in which case the update never happens.
    UpdateEnter,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Store into the innermost open section, through the `Tx` handle of
    /// the section `via % depth` levels out from it — an inner closure
    /// may write through a captured outer handle, and that store still
    /// belongs to the inner section. Skipped outside any section.
    Store { cell: usize, value: i64, via: usize, how: How },
    /// Enter a section one level deeper (skipped at `MAX_DEPTH`).
    Enter,
    /// Outside any section: a whole transaction on a monitor whose
    /// policy never rolls back — its stores, up to its `Commit`, save and
    /// log nothing and leave the thread's log as it was; every other op
    /// in there is skipped. Skipped inside a section.
    EnterPlain,
    /// Leave the innermost section normally.
    Commit,
    /// Revoke open section `level % depth` (0 = outermost): it and
    /// everything nested in it roll back, and it retries from the next
    /// op. Skipped outside any section.
    RollBack { level: usize },
}

/// What an update's closure returns.
fn mix(old: i64, value: i64) -> i64 {
    old.wrapping_mul(3).wrapping_add(value)
}

/// The reference: an undo log with one entry per store.
#[derive(Default)]
struct Model {
    values: [i64; CELLS],
    log: Vec<(usize, i64)>,
    /// Log position at entry of each open section, outermost first.
    marks: Vec<usize>,
}

impl Model {
    fn write(&mut self, cell: usize, value: i64) {
        self.log.push((cell, self.values[cell]));
        self.values[cell] = value;
    }

    fn commit(&mut self) {
        self.marks.pop();
        if self.marks.is_empty() {
            self.log.clear();
        }
    }

    /// Roll open section `level` back; it stays open (the retry).
    fn roll_back(&mut self, level: usize) {
        while self.log.len() > self.marks[level] {
            let (cell, old) = self.log.pop().expect("above the mark");
            self.values[cell] = old;
        }
        self.marks.truncate(level + 1);
    }
}

/// One program run: the real cells and monitors beside the model.
struct Run<'p> {
    ops: &'p [Op],
    pc: Cell<usize>,
    model: RefCell<Model>,
    cells: Vec<TCell<i64>>,
    /// One monitor per nesting level.
    monitors: Vec<RevocableMonitor>,
    /// The monitor of the `EnterPlain` transactions.
    plain: RevocableMonitor,
    /// Cells whose update closure is running, each with the nesting
    /// level of the section that issued the update. Such a cell is
    /// locked by this very thread, so nothing may touch it — the
    /// comparison included — until the closure is over.
    in_closure: RefCell<Vec<(usize, usize)>>,
}

impl<'p> Run<'p> {
    fn new(ops: &'p [Op]) -> Self {
        Run {
            ops,
            pc: Cell::new(0),
            model: RefCell::default(),
            cells: (0..CELLS).map(|_| TCell::new(0)).collect(),
            monitors: (0..MAX_DEPTH).map(|_| RevocableMonitor::new()).collect(),
            plain: RevocableMonitor::with_policy(InversionPolicy::Blocking),
            in_closure: RefCell::default(),
        }
    }

    fn is_in_closure(&self, cell: usize) -> bool {
        self.in_closure.borrow().iter().any(|&(_, c)| c == cell)
    }

    /// `cell`, or the next one up that no running closure has locked
    /// (at most `MAX_DEPTH - 1` of the `CELLS` are).
    fn free_cell(&self, cell: usize) -> usize {
        (0..CELLS)
            .map(|i| (cell + i) % CELLS)
            .find(|&c| !self.is_in_closure(c))
            .expect("a free cell")
    }

    fn next_op(&self) -> Option<Op> {
        let pc = self.pc.get();
        self.pc.set(pc + 1);
        self.ops.get(pc).copied()
    }

    /// The cells' values; the model's own for a cell locked by a running
    /// closure (neither side has stored into it yet, and it is compared
    /// once the closure is over).
    fn values(&self) -> [i64; CELLS] {
        std::array::from_fn(|i| {
            if self.is_in_closure(i) {
                self.model.borrow().values[i]
            } else {
                self.cells[i].read_unsynchronized()
            }
        })
    }

    /// The step just taken left the cells where the model says.
    fn agree(&self) {
        assert_eq!(
            self.values(),
            self.model.borrow().values,
            "cells (left) and log-everything model (right) differ after op {} of {:?}",
            self.pc.get(),
            self.ops
        );
    }

    /// Run a section nested inside the open sections whose handles are
    /// `outer`, until its `Commit` (or the end of the program).
    fn section<'s>(&'s self, scope: &'s Scope<'s, '_>, outer: &[&Tx<'_>]) {
        let level = outer.len();
        self.monitors[level].enter(Priority::LOW, |tx| {
            // First entry, or the retry after a rollback to this level:
            // closures of this section and of deeper ones were unwound.
            self.in_closure.borrow_mut().retain(|&(issuer, _)| issuer < level);
            self.agree();
            let mut open: Vec<&Tx<'_>> = outer.to_vec();
            open.push(tx);
            let enter = |open: &[&Tx<'_>]| {
                let mark = self.model.borrow().log.len();
                self.model.borrow_mut().marks.push(mark);
                self.section(scope, open);
            };
            while let Some(op) = self.next_op() {
                match op {
                    Op::Store { cell, value, via, how } => {
                        let cell = self.free_cell(cell);
                        let via = open[level - via % open.len()];
                        let was = self.model.borrow().values[cell];
                        let stored = if how == How::Write {
                            via.write(&self.cells[cell], value);
                            value
                        } else {
                            via.update(&self.cells[cell], |old| {
                                assert_eq!(old, was, "the closure's argument");
                                if how == How::UpdateEnter && open.len() < MAX_DEPTH {
                                    self.in_closure.borrow_mut().push((level, cell));
                                    enter(&open);
                                    self.in_closure.borrow_mut().pop();
                                }
                                mix(old, value)
                            });
                            mix(was, value)
                        };
                        self.model.borrow_mut().write(cell, stored);
                    }
                    Op::Enter if open.len() < MAX_DEPTH => enter(&open),
                    Op::Enter | Op::EnterPlain => {}
                    Op::Commit => break,
                    Op::RollBack { level } => {
                        let level = level % open.len();
                        self.model.borrow_mut().roll_back(level);
                        be_revoked(scope, &self.monitors[level], tx);
                    }
                }
                self.agree();
            }
            self.model.borrow_mut().commit();
        });
        self.agree();
    }

    /// Run an `EnterPlain` transaction until its `Commit` (or the end of
    /// the program). Nothing can roll it back, so the model just stores.
    fn plain_section(&self) {
        self.plain.enter(Priority::LOW, |tx| {
            while let Some(op) = self.next_op() {
                match op {
                    Op::Store { cell, value, how, .. } => {
                        let was = self.model.borrow().values[cell];
                        let stored = if how == How::Write {
                            tx.write(&self.cells[cell], value);
                            value
                        } else {
                            tx.update(&self.cells[cell], |old| mix(old, value));
                            mix(was, value)
                        };
                        self.model.borrow_mut().values[cell] = stored;
                    }
                    Op::Commit => break,
                    _ => {}
                }
                self.agree();
            }
        });
        assert_eq!(self.plain.stats().log_entries, 0);
    }

    /// Run the whole program; returns the cells' final values.
    fn run(&self) -> [i64; CELLS] {
        thread::scope(|scope| {
            while let Some(op) = self.next_op() {
                match op {
                    Op::Enter => {
                        self.model.borrow_mut().marks.push(0);
                        self.section(scope, &[]);
                    }
                    Op::EnterPlain => self.plain_section(),
                    _ => {}
                }
            }
        });
        self.agree();
        self.values()
    }
}

fn run(ops: &[Op]) -> [i64; CELLS] {
    Run::new(ops).run()
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (
            0..CELLS,
            1i64..1000,
            0..MAX_DEPTH,
            prop_oneof![3 => Just(How::Write), 3 => Just(How::Update), 2 => Just(How::UpdateEnter)],
        )
            .prop_map(|(cell, value, via, how)| Op::Store { cell, value, via, how }),
        2 => Just(Op::Enter),
        1 => Just(Op::EnterPlain),
        2 => Just(Op::Commit),
        1 => (0..MAX_DEPTH).prop_map(|level| Op::RollBack { level }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_agree_with_log_everything(
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        run(&ops);
    }
}

// ------------------------------------------- runs of transactions

/// What one transaction of a run writes, relative to the run's base
/// write set (the numbers are reduced to fit it).
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// The base cells in the base order: the log takes every handle over.
    Same,
    /// The base cells, rotated: same set, every position differs.
    Permuted(usize),
    /// The first cells of the base: the log's tail outlives the section.
    Prefix(usize),
    /// The base and then one more cell.
    Superset(usize),
    /// As many cells, each the base's plus a shift: cells the log does
    /// not hold, in positions where it holds others.
    Shifted(usize),
    /// The base, then a nested section writing the first cell again, then
    /// the outer section writing it a third time: one cell, three entries.
    TwiceThroughANestedSection,
    /// The base under the policy that logs nothing.
    Plain,
}

/// The ops of one transaction: its stores (writes and updates by turns),
/// and with `revoked` a rollback after them and the same stores again as
/// the retry — which finds its own handles still stored.
fn transaction(base: &[usize], shape: Shape, revoked: bool, seq: i64) -> Vec<Op> {
    let n = base.len();
    let cells: Vec<usize> = match shape {
        Shape::Same | Shape::TwiceThroughANestedSection | Shape::Plain => base.to_vec(),
        Shape::Permuted(by) => (0..n).map(|i| base[(i + by) % n]).collect(),
        Shape::Prefix(len) => base[..1 + len % n].to_vec(),
        Shape::Superset(extra) => base.iter().copied().chain([extra % CELLS]).collect(),
        Shape::Shifted(by) => base.iter().map(|c| (c + 1 + by % (CELLS - 1)) % CELLS).collect(),
    };
    let stores = |round: i64| {
        cells.iter().enumerate().map(move |(i, &cell)| {
            let how = if i % 2 == 0 { How::Write } else { How::Update };
            Op::Store { cell, value: seq * 100 + round * 10 + i as i64, via: 0, how }
        })
    };
    if let Shape::Plain = shape {
        return [Op::EnterPlain].into_iter().chain(stores(0)).chain([Op::Commit]).collect();
    }
    let mut ops = vec![Op::Enter];
    for round in 0..=i64::from(revoked) {
        ops.extend(stores(round));
        if let Shape::TwiceThroughANestedSection = shape {
            ops.extend([Op::Enter, w(base[0], -seq), Op::Commit, w(base[0], -seq - 1)]);
        }
        if round == 0 && revoked {
            ops.push(Op::RollBack { level: 0 });
        }
    }
    ops.push(Op::Commit);
    ops
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        3 => Just(Shape::Same),
        2 => (1..CELLS).prop_map(Shape::Permuted),
        2 => (0..CELLS).prop_map(Shape::Prefix),
        2 => (0..CELLS).prop_map(Shape::Superset),
        2 => (0..CELLS).prop_map(Shape::Shifted),
        1 => Just(Shape::TwiceThroughANestedSection),
        1 => Just(Shape::Plain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn runs_of_transactions_agree_with_log_everything(
        (first, stride) in (0..CELLS, prop_oneof![Just(1), Just(CELLS - 1)]),
        len in 1..CELLS,
        run_of in proptest::collection::vec((shape(), 0..10u32), 2..10),
    ) {
        // The base write set: `len` cells, up or down from `first`.
        let base: Vec<usize> = (0..len).map(|i| (first + i * stride) % CELLS).collect();
        let ops: Vec<Op> = (1..)
            .zip(&run_of)
            .flat_map(|(seq, &(shape, revoked))| transaction(&base, shape, revoked < 3, seq))
            .collect();
        run(&ops);
    }
}

// ------------------------------------------------- the cases by name

fn w(cell: usize, value: i64) -> Op {
    Op::Store { cell, value, via: 0, how: How::Write }
}

fn u(cell: usize, value: i64) -> Op {
    Op::Store { cell, value, via: 0, how: How::Update }
}

/// An update of cell 0 whose closure runs the section the next ops make.
const NESTED: Op = Op::Store { cell: 0, value: 5, via: 0, how: How::UpdateEnter };

/// The inner section's first write to a cell the outer one already
/// logged must be saved again: rolling the inner section back restores
/// the value at *inner* entry. (A stamp compared by transaction alone
/// skips that save and leaves 3.)
#[test]
fn outer_writes_then_inner_writes_then_inner_rolls_back() {
    use Op::*;
    let end =
        run(&[Enter, w(0, 1), Enter, w(0, 2), w(0, 3), RollBack { level: 1 }, Commit, Commit]);
    assert_eq!(end[0], 1, "the outer section's write, not the inner one's and not the initial 0");
}

/// The same through a captured outer handle: the store is the inner
/// section's whichever `Tx` it goes through.
#[test]
fn inner_write_through_the_outer_handle_rolls_back_with_the_inner_section() {
    use Op::*;
    let inner_via_outer = Store { cell: 0, value: 2, via: 1, how: How::Write };
    let end = run(&[Enter, w(0, 1), Enter, inner_via_outer, RollBack { level: 1 }, Commit, Commit]);
    assert_eq!(end[0], 1);
}

/// A committed inner section's entry is this transaction's, not stale:
/// the outer section's next write must be saved *above* it, not over it,
/// or the outer rollback restores the inner section's 2.
#[test]
fn inner_commits_then_outer_rewrites_then_outer_rolls_back() {
    use Op::*;
    let end = run(&[Enter, Enter, w(0, 2), Commit, w(0, 3), RollBack { level: 0 }, Commit]);
    assert_eq!(end[0], 0, "everything the transaction wrote is undone");
}

/// A retry is a new section with a new stamp: its first writes are
/// logged again, so a second rollback undoes them too.
#[test]
fn rollback_then_retry_writes_the_same_cells() {
    use Op::*;
    let end = run(&[
        Enter,
        w(0, 1),
        w(1, 2),
        RollBack { level: 0 },
        w(0, 3),
        w(1, 4),
        RollBack { level: 0 },
        w(0, 5),
        Commit,
    ]);
    assert_eq!(end[..2], [5, 0]);
}

/// An update is a store like any other: the inner section's first one
/// is saved again above the outer section's.
#[test]
fn outer_updates_then_inner_updates_then_inner_rolls_back() {
    use Op::*;
    let end =
        run(&[Enter, u(0, 1), Enter, u(0, 2), u(0, 3), RollBack { level: 1 }, Commit, Commit]);
    assert_eq!(end[0], mix(0, 1));
}

/// A section run from inside an update's closure logs its cells *before*
/// the update logs its own; it commits into the outer log, and the outer
/// rollback undoes both.
#[test]
fn a_closures_section_commits_then_the_outer_section_rolls_back() {
    use Op::*;
    // `w(0, 7)` is the nested section's: cell 0 is locked, it goes to cell 1.
    let end = run(&[Enter, NESTED, w(0, 7), Commit, w(2, 9), RollBack { level: 0 }, Commit]);
    assert_eq!(end, [0; CELLS]);
}

/// Rolled back and retried inside the closure, the nested section leaves
/// only its retry's writes, and the update then stores as if nothing
/// had happened.
#[test]
fn a_closures_section_is_rolled_back_and_retried_inside_the_closure() {
    use Op::*;
    let end = run(&[Enter, NESTED, w(1, 7), RollBack { level: 1 }, w(2, 9), Commit, Commit]);
    assert_eq!(end, [mix(0, 5), 0, 9, 0]);
}

/// A revocation of the *outer* section caught inside the closure's
/// section unwinds out through the closure: the update never happens,
/// the cell keeps no trace of it, and the retry's write is a first write.
#[test]
fn an_outer_rollback_unwinds_through_the_closure() {
    use Op::*;
    let end = run(&[Enter, w(0, 1), NESTED, w(1, 7), RollBack { level: 0 }, w(0, 2), Commit]);
    assert_eq!(end, [2, 0, 0, 0]);
}

/// What thread A's committed section left in the cell is stale to thread
/// B: B's first write replaces it, and B's rollback restores A's
/// committed value — not A's saved one, and not nothing.
#[test]
fn committed_by_one_thread_then_first_written_by_another() {
    let m = RevocableMonitor::new();
    let c = TCell::new(0i64);
    thread::scope(|scope| {
        scope.spawn(|| m.enter(Priority::LOW, |tx| tx.write(&c, 1))).join().unwrap();
        let mut attempts = 0;
        let seen = m.enter(Priority::LOW, |tx| {
            attempts += 1;
            if attempts == 1 {
                tx.write(&c, 2);
                be_revoked(scope, &m, tx);
            }
            tx.read(&c)
        });
        assert_eq!(seen, 1);
    });
    assert_eq!(m.stats().rollbacks, 1);
}

/// A policy that never rolls back stores without saving, over whatever
/// an earlier section left behind; the next logged write must treat that
/// leftover as stale and save the plainly-stored value.
#[test]
fn plain_store_over_a_stale_entry() {
    let revoking = RevocableMonitor::new();
    let blocking = RevocableMonitor::with_policy(InversionPolicy::Blocking);
    let c = TCell::new(0i64);
    revoking.enter(Priority::LOW, |tx| tx.write(&c, 1));
    blocking.enter(Priority::LOW, |tx| tx.write(&c, 7));
    assert_eq!(blocking.stats().log_entries, 0);
    thread::scope(|scope| {
        let mut attempts = 0;
        let seen = revoking.enter(Priority::LOW, |tx| {
            attempts += 1;
            if attempts == 1 {
                tx.write(&c, 8);
                be_revoked(scope, &revoking, tx);
            }
            tx.read(&c)
        });
        assert_eq!(seen, 7);
    });
}

/// The same for `update`: under a policy that never rolls back it saves
/// and logs nothing.
#[test]
fn plain_update_over_a_stale_entry() {
    let revoking = RevocableMonitor::new();
    let blocking = RevocableMonitor::with_policy(InversionPolicy::Blocking);
    let c = TCell::new(0i64);
    revoking.enter(Priority::LOW, |tx| tx.write(&c, 1));
    blocking.enter(Priority::LOW, |tx| tx.update(&c, |v| v + 6));
    assert_eq!(blocking.stats().log_entries, 0);
    thread::scope(|scope| {
        let mut attempts = 0;
        let seen = revoking.enter(Priority::LOW, |tx| {
            attempts += 1;
            if attempts == 1 {
                tx.update(&c, |v| v + 1);
                be_revoked(scope, &revoking, tx);
            }
            tx.read(&c)
        });
        assert_eq!(seen, 7);
    });
}

/// A handle the log remembers must never stand in for another cell. A
/// cell that was written, committed and dropped stays remembered at
/// position 0; each round then writes two cells allocated just now —
/// in positions the log holds the round before's cells in — and is
/// revoked: both restores must land on the cells that were written.
/// (A log that takes whatever it stores for "this cell" restores the
/// dropped cell and leaves 100 in the fresh one.)
#[test]
fn fresh_cells_written_where_the_log_remembers_dropped_ones_then_revoked() {
    let m = RevocableMonitor::new();
    thread::scope(|scope| {
        let gone = TCell::new(0i64);
        m.enter(Priority::LOW, |tx| tx.write(&gone, 1));
        drop(gone);
        for round in 1..=8i64 {
            let (fresh, second) = (TCell::new(round), TCell::new(-round));
            let mut attempts = 0;
            let seen = m.enter(Priority::LOW, |tx| {
                attempts += 1;
                if attempts == 1 {
                    tx.write(&fresh, 100);
                    tx.update(&second, |v| v - 100);
                    be_revoked(scope, &m, tx);
                }
                (tx.read(&fresh), tx.read(&second))
            });
            assert_eq!(seen, (round, -round), "round {round}");
        }
    });
    let st = m.stats();
    assert_eq!((st.rollbacks, st.entries_rolled_back), (8, 16));
}

// ---------------------------------------------------- deferred drop

/// A value that counts its live instances.
struct Counted(Arc<AtomicIsize>);

impl Counted {
    fn new(live: &Arc<AtomicIsize>) -> Self {
        live.fetch_add(1, Ordering::Relaxed);
        Counted(Arc::clone(live))
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        Counted::new(&self.0)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A commit visits no cell, so the value a section's first write
/// displaced outlives the commit — until the cell's next first write or
/// the cell's drop, one per nesting level that wrote it, never leaked.
/// The cell's drop is not its last `TCell` handle's: the thread's undo
/// log remembers the cell until a different one is logged in its place.
#[test]
fn a_committed_sections_saved_value_is_dropped_by_the_next_first_write_or_with_the_cell() {
    let live = Arc::new(AtomicIsize::new(0));
    let count = || live.load(Ordering::Relaxed);
    let (outer, inner) = (RevocableMonitor::new(), RevocableMonitor::new());
    let c = TCell::new(Counted::new(&live));
    assert_eq!(count(), 1);

    outer.enter(Priority::NORM, |tx| {
        tx.write(&c, Counted::new(&live));
        assert_eq!(count(), 2, "the value and the one saved for rollback");
        tx.write(&c, Counted::new(&live));
        assert_eq!(count(), 2, "a repeat write saves nothing and drops what it displaced");
    });
    assert_eq!(count(), 2, "the commit retains the saved value");

    outer.enter(Priority::NORM, |tx| {
        tx.write(&c, Counted::new(&live));
        assert_eq!(count(), 2, "the next first write drops it and saves its own");
        inner.enter(Priority::NORM, |tx2| {
            tx2.write(&c, Counted::new(&live));
            assert_eq!(count(), 3, "one more per nesting level that wrote the cell");
        });
        tx.write(&c, Counted::new(&live));
        assert_eq!(count(), 4, "the outer section writing again after the inner one committed");
    });
    assert_eq!(count(), 4);

    outer.enter(Priority::NORM, |tx| tx.write(&c, Counted::new(&live)));
    assert_eq!(count(), 2, "all of the committed transaction's entries go at once");

    drop(c);
    assert_eq!(count(), 2, "this thread's log still remembers the cell");
    let other = TCell::new(0i64);
    outer.enter(Priority::NORM, |tx| tx.write(&other, 1));
    assert_eq!(count(), 0, "nothing outlives the cell");
}

/// However many cells a transaction wrote and dropped, its thread's log
/// keeps no more than its bound of them alive after the commit, and a
/// transaction that differs from the first position on gives those up.
#[test]
fn a_threads_log_keeps_at_most_its_bound_of_dead_cells_alive() {
    let live = Arc::new(AtomicIsize::new(0));
    let count = || live.load(Ordering::Relaxed);
    let m = RevocableMonitor::new();
    let kept = LOG_TAIL_MAX as isize;
    let cells = kept + 44;
    m.enter(Priority::NORM, |tx| {
        for _ in 0..cells {
            let c = TCell::new(Counted::new(&live));
            tx.write(&c, Counted::new(&live));
        }
        assert_eq!(count(), 2 * cells, "each cell's value and the one saved for rollback");
    });
    assert_eq!(count(), 2 * kept, "the commit trims what the log stores to its bound");
    let other = TCell::new(0i64);
    m.enter(Priority::NORM, |tx| tx.write(&other, 1));
    assert_eq!(count(), 0);
}

/// What a thread's log still remembers is released when the thread exits.
#[test]
fn a_threads_remembered_cells_go_with_the_thread() {
    let live = Arc::new(AtomicIsize::new(0));
    let m = RevocableMonitor::new();
    let at_exit = thread::scope(|scope| {
        let worker = scope.spawn(|| {
            m.enter(Priority::NORM, |tx| {
                for _ in 0..3 {
                    let c = TCell::new(Counted::new(&live));
                    tx.write(&c, Counted::new(&live));
                }
            });
            live.load(Ordering::Relaxed)
        });
        worker.join().unwrap()
    });
    assert_eq!(at_exit, 6, "remembered for as long as the thread runs");
    assert_eq!(live.load(Ordering::Relaxed), 0, "and no longer");
}
