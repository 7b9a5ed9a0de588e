//! Differential pin for the JMM guard's bookkeeping.
//!
//! Random `record_write` / `check_read` / `clear` / allocation sequences
//! run against a `BTreeMap<Location, SpeculativeWrite>` model — the
//! literal reading of §2.2's "map from location to latest speculative
//! write". After every operation the guard and the model must agree on
//! `check_read`, `len`, `is_empty` and the location-sorted `entries()`
//! (which `state_fingerprint()` hashes, so an ordering slip would change
//! every explored state's identity).
//!
//! Only [`Sut`] knows how the guard is stored; the sequences, the model
//! and the comparisons do not.

use proptest::prelude::*;
use revmon_core::ThreadId;
use revmon_vm::heap::{Heap, Location};
use revmon_vm::jmm::SpeculativeWrite;
use revmon_vm::value::ObjRef;
use std::collections::BTreeMap;

/// The system under test: the heap, which carries the guard's stamps.
struct Sut {
    heap: Heap,
}

impl Sut {
    fn new(n_statics: usize) -> Self {
        Sut { heap: Heap::new(n_statics) }
    }

    fn alloc(&mut self, len: u32, array: bool) -> ObjRef {
        if array {
            self.heap.alloc_array(len)
        } else {
            self.heap.alloc(0, len)
        }
    }

    fn record_write(&mut self, loc: Location, writer: ThreadId, log_pos: usize) {
        self.heap.record_write(loc, writer, log_pos);
    }

    fn check_read(&self, loc: Location, reader: ThreadId) -> Option<SpeculativeWrite> {
        self.heap.check_read(loc, reader)
    }

    fn clear(&mut self, loc: Location, writer: ThreadId) {
        self.heap.clear_speculative(loc, writer);
    }

    fn entries(&self) -> Vec<(Location, SpeculativeWrite)> {
        self.heap.speculative_writes().collect()
    }

    fn len(&self) -> usize {
        self.heap.speculative_len()
    }

    fn is_empty(&self) -> bool {
        self.heap.speculative_len() == 0
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Allocate an object (or array) of `len` slots.
    Alloc { len: u32, array: bool },
    /// `record_write` on the `pick`-th valid location.
    Record { pick: usize, writer: u32, log_pos: usize },
    /// `check_read` on the `pick`-th valid location.
    Check { pick: usize, reader: u32 },
    /// `check_read` on a location outside the heap: the interpreter runs
    /// the read barrier before the bounds check, so this must be `None`.
    CheckOutside { obj: u32, off: u32, reader: u32 },
    /// `clear` on the `pick`-th valid location.
    Clear { pick: usize, writer: u32 },
}

fn op() -> impl Strategy<Value = Op> {
    // Few threads and few locations, so supersession by another writer,
    // own-read and foreign-clear cases all come up often.
    let tid = 0u32..4;
    prop_oneof![
        1 => (0u32..6, any::<bool>()).prop_map(|(len, array)| Op::Alloc { len, array }),
        6 => (any::<usize>(), tid.clone(), 0usize..=u32::MAX as usize)
            .prop_map(|(pick, writer, log_pos)| Op::Record { pick, writer, log_pos }),
        6 => (any::<usize>(), tid.clone()).prop_map(|(pick, reader)| Op::Check { pick, reader }),
        1 => (0u32..40, 0u32..40, tid.clone())
            .prop_map(|(obj, off, reader)| Op::CheckOutside { obj, off, reader }),
        4 => (any::<usize>(), tid).prop_map(|(pick, writer)| Op::Clear { pick, writer }),
    ]
}

/// The model's answer to `check_read`.
fn model_check(
    model: &BTreeMap<Location, SpeculativeWrite>,
    loc: Location,
    reader: ThreadId,
) -> Option<SpeculativeWrite> {
    model.get(&loc).copied().filter(|w| w.writer != reader)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn guard_matches_the_map_model(
        n_statics in 0usize..4,
        ops in proptest::collection::vec(op(), 0..200),
    ) {
        let mut sut = Sut::new(n_statics);
        let mut model: BTreeMap<Location, SpeculativeWrite> = BTreeMap::new();
        let mut valid: Vec<Location> =
            (0..n_statics as u32).map(Location::Static).collect();

        for op in ops {
            match op {
                Op::Alloc { len, array } => {
                    let r = sut.alloc(len, array);
                    valid.extend((0..len).map(|off| Location::Obj(r, off)));
                }
                Op::Record { pick, writer, log_pos } if !valid.is_empty() => {
                    let loc = valid[pick % valid.len()];
                    let writer = ThreadId(writer);
                    sut.record_write(loc, writer, log_pos);
                    model.insert(loc, SpeculativeWrite { writer, log_pos });
                }
                Op::Check { pick, reader } if !valid.is_empty() => {
                    let loc = valid[pick % valid.len()];
                    let reader = ThreadId(reader);
                    prop_assert_eq!(
                        sut.check_read(loc, reader),
                        model_check(&model, loc, reader),
                        "check_read({:?}, {:?})", loc, reader
                    );
                }
                Op::CheckOutside { obj, off, reader } => {
                    let loc = Location::Obj(ObjRef(obj), off);
                    if !valid.contains(&loc) {
                        prop_assert_eq!(sut.check_read(loc, ThreadId(reader)), None);
                    }
                    let loc = Location::Static(n_statics as u32 + off);
                    prop_assert_eq!(sut.check_read(loc, ThreadId(reader)), None);
                }
                Op::Clear { pick, writer } if !valid.is_empty() => {
                    let loc = valid[pick % valid.len()];
                    let writer = ThreadId(writer);
                    sut.clear(loc, writer);
                    if model.get(&loc).is_some_and(|w| w.writer == writer) {
                        model.remove(&loc);
                    }
                }
                // Nothing to pick from yet.
                Op::Record { .. } | Op::Check { .. } | Op::Clear { .. } => {}
            }
            prop_assert_eq!(sut.len(), model.len());
            prop_assert_eq!(sut.is_empty(), model.is_empty());
            let want: Vec<(Location, SpeculativeWrite)> =
                model.iter().map(|(&l, &w)| (l, w)).collect();
            prop_assert_eq!(sut.entries(), want);
        }

        // Draining every writer's entries empties the guard.
        for &loc in &valid {
            for t in 0..4 {
                sut.clear(loc, ThreadId(t));
            }
        }
        prop_assert!(sut.is_empty());
        prop_assert_eq!(sut.len(), 0);
        prop_assert_eq!(sut.entries(), Vec::new());
    }
}
