//! The object heap: objects, arrays, statics, volatiles.
//!
//! Objects and arrays share one representation (a vector of word slots);
//! statics live in a global slot table, mirroring the paper's three store
//! kinds (`putfield`, `putstatic`, `Xastore`). Volatility is a per-slot
//! property declared at allocation (fields) or at program build time
//! (statics); the JMM guard (crate::jmm) consults it only for diagnostics —
//! the non-revocability rule treats any cross-thread read of a speculative
//! write identically, which subsumes the volatile case of Fig. 3.
//!
//! The guard's own state lives here too: every word has a
//! [`Stamp`](crate::jmm) beside it (a vector parallel to each object's
//! slots, a field of each static slot) naming the still-active section
//! write that last stored to it, so the read and write barriers reach it
//! by the index the access itself uses instead of through a side table.

use crate::jmm::{SpeculativeWrite, Stamp};
use crate::value::{ObjRef, Value, ValueError};
use revmon_core::ThreadId;

/// A heap location: the unit of write-barrier logging and of the
/// JMM-consistency map. One logged entry = one location + old value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Location {
    /// Field `offset` of object/array `0` (arrays: element index).
    Obj(ObjRef, u32),
    /// Static slot `0` in the global table.
    Static(u32),
}

/// A heap object or array.
#[derive(Clone, Debug)]
pub struct Object {
    /// Class tag, used for exception-handler matching and diagnostics.
    pub class_tag: u32,
    /// Field / element slots.
    slots: Vec<Value>,
    /// JMM-guard stamp of each slot (same length as `slots`).
    stamps: Vec<Stamp>,
    /// Bitmask of volatile slots (bit i set = slot i volatile). Objects
    /// with more than 64 fields cannot declare volatiles past slot 63;
    /// arrays have no volatile elements (as in Java).
    volatile_mask: u64,
    /// Whether this object is an array (affects diagnostics only).
    pub is_array: bool,
}

impl Object {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the object has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether slot `i` was declared volatile.
    pub fn is_volatile(&self, i: u32) -> bool {
        i < 64 && (self.volatile_mask >> i) & 1 == 1
    }
}

/// A static slot declaration.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticSlot {
    value: Value,
    volatile: bool,
    stamp: Stamp,
}

/// The heap: object store + static table.
#[derive(Debug, Default)]
pub struct Heap {
    objects: Vec<Object>,
    statics: Vec<StaticSlot>,
    /// Number of words whose stamp is live (the guard's `len`).
    speculative: usize,
}

/// Heap access fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeapError {
    /// Object reference out of range (should be impossible for refs the
    /// VM itself produced).
    BadRef(ObjRef),
    /// Slot offset out of range for the object — Java's
    /// `ArrayIndexOutOfBounds` / bad field offset.
    BadOffset(ObjRef, u32),
    /// Static slot out of range.
    BadStatic(u32),
    /// Value-level fault.
    Value(ValueError),
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::BadRef(r) => write!(f, "dangling reference {r}"),
            HeapError::BadOffset(r, o) => write!(f, "offset {o} out of bounds for {r}"),
            HeapError::BadStatic(s) => write!(f, "static slot {s} out of range"),
            HeapError::Value(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HeapError {}

impl From<ValueError> for HeapError {
    fn from(e: ValueError) -> Self {
        HeapError::Value(e)
    }
}

impl Heap {
    /// An empty heap with `n_statics` static slots (all `Null`,
    /// non-volatile; use [`Heap::declare_static_volatile`] to flag).
    pub fn new(n_statics: usize) -> Self {
        Heap { statics: vec![StaticSlot::default(); n_statics], ..Heap::default() }
    }

    /// Feed the complete heap contents — every object slot and every
    /// static — into `h` in deterministic order (state fingerprinting).
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.objects.len().hash(h);
        for o in &self.objects {
            o.class_tag.hash(h);
            o.volatile_mask.hash(h);
            o.is_array.hash(h);
            o.slots.hash(h);
        }
        self.statics.len().hash(h);
        for s in &self.statics {
            s.value.hash(h);
            s.volatile.hash(h);
        }
    }

    /// Mark static slot `i` volatile.
    pub fn declare_static_volatile(&mut self, i: u32) -> Result<(), HeapError> {
        let slot = self.statics.get_mut(i as usize).ok_or(HeapError::BadStatic(i))?;
        slot.volatile = true;
        Ok(())
    }

    /// Allocate an object with `fields` slots, all `Null`.
    pub fn alloc(&mut self, class_tag: u32, fields: u32) -> ObjRef {
        self.alloc_with_volatile(class_tag, fields, 0)
    }

    /// Allocate an object whose volatile slots are given by `mask`.
    pub fn alloc_with_volatile(&mut self, class_tag: u32, fields: u32, mask: u64) -> ObjRef {
        let r = ObjRef(self.objects.len() as u32);
        self.objects.push(Object {
            class_tag,
            slots: vec![Value::Null; fields as usize],
            stamps: vec![Stamp::NONE; fields as usize],
            volatile_mask: mask,
            is_array: false,
        });
        r
    }

    /// Allocate an array of `len` elements, all `Int(0)`.
    pub fn alloc_array(&mut self, len: u32) -> ObjRef {
        let r = ObjRef(self.objects.len() as u32);
        self.objects.push(Object {
            class_tag: u32::MAX,
            slots: vec![Value::Int(0); len as usize],
            stamps: vec![Stamp::NONE; len as usize],
            volatile_mask: 0,
            is_array: true,
        });
        r
    }

    /// Read `loc`.
    pub fn read(&self, loc: Location) -> Result<Value, HeapError> {
        match loc {
            Location::Obj(r, off) => {
                let o = self.object(r)?;
                o.slots.get(off as usize).copied().ok_or(HeapError::BadOffset(r, off))
            }
            Location::Static(s) => {
                self.statics.get(s as usize).map(|sl| sl.value).ok_or(HeapError::BadStatic(s))
            }
        }
    }

    /// Write `loc`, returning the **old** value (what the write barrier
    /// logs).
    pub fn write(&mut self, loc: Location, v: Value) -> Result<Value, HeapError> {
        match loc {
            Location::Obj(r, off) => {
                let o = self.objects.get_mut(r.index()).ok_or(HeapError::BadRef(r))?;
                let slot = o.slots.get_mut(off as usize).ok_or(HeapError::BadOffset(r, off))?;
                Ok(std::mem::replace(slot, v))
            }
            Location::Static(s) => {
                let slot = self.statics.get_mut(s as usize).ok_or(HeapError::BadStatic(s))?;
                Ok(std::mem::replace(&mut slot.value, v))
            }
        }
    }

    // --- the JMM guard's per-word state (see crate::jmm) -----------------

    #[inline]
    fn stamp(&self, loc: Location) -> Option<&Stamp> {
        match loc {
            Location::Obj(r, off) => self.objects.get(r.index())?.stamps.get(off as usize),
            Location::Static(s) => self.statics.get(s as usize).map(|sl| &sl.stamp),
        }
    }

    #[inline]
    fn stamp_mut(&mut self, loc: Location) -> Option<&mut Stamp> {
        match loc {
            Location::Obj(r, off) => self.objects.get_mut(r.index())?.stamps.get_mut(off as usize),
            Location::Static(s) => self.statics.get_mut(s as usize).map(|sl| &mut sl.stamp),
        }
    }

    /// Record a speculative write to `loc` by `writer` at position
    /// `log_pos` of its undo log — the write-barrier slow path, after the
    /// store itself succeeded. A later write to the same word supersedes
    /// the stamp (sections enclosing the earlier write necessarily
    /// enclose the later one, since marks only grow).
    ///
    /// # Panics
    /// If `loc` is not in the heap.
    #[inline]
    pub fn record_write(&mut self, loc: Location, writer: ThreadId, log_pos: usize) {
        let new = Stamp::new(writer, log_pos);
        let stamp = self.stamp_mut(loc).expect("speculative write to a word outside the heap");
        let fresh = stamp.get().is_none();
        *stamp = new;
        self.speculative += fresh as usize;
    }

    /// Read-barrier check: does `reader`'s read of `loc` observe another
    /// thread's speculative write? Returns the write if so; the caller
    /// must then mark the writer's enclosing sections non-revocable.
    /// A `loc` outside the heap observes nothing (the barrier runs before
    /// the access is bounds-checked).
    #[inline]
    pub fn check_read(&self, loc: Location, reader: ThreadId) -> Option<SpeculativeWrite> {
        if self.speculative == 0 {
            return None; // fast path: nothing speculative anywhere
        }
        self.stamp(loc)?.get().filter(|w| w.writer != reader)
    }

    /// Drop the stamp on `loc` if it belongs to `writer` — called for
    /// each log entry when the writer commits (outermost `MonitorExit`)
    /// or rolls the entry back. Another thread's later stamp stays.
    #[inline]
    pub fn clear_speculative(&mut self, loc: Location, writer: ThreadId) {
        if let Some(stamp) = self.stamp_mut(loc) {
            if stamp.get().is_some_and(|w| w.writer == writer) {
                *stamp = Stamp::NONE;
                self.speculative -= 1;
            }
        }
    }

    /// Number of words carrying a live speculative write.
    pub fn speculative_len(&self) -> usize {
        self.speculative
    }

    /// All live speculative writes in [`Location`] order — a
    /// deterministic view for invariant checking and state
    /// fingerprinting. Stops scanning once every live stamp was seen, so
    /// it costs nothing while no section has logged a write.
    pub fn speculative_writes(&self) -> impl Iterator<Item = (Location, SpeculativeWrite)> + '_ {
        let in_objects = self.objects.iter().enumerate().flat_map(|(r, o)| {
            o.stamps.iter().enumerate().filter_map(move |(off, s)| {
                Some((Location::Obj(ObjRef(r as u32), off as u32), s.get()?))
            })
        });
        let in_statics = self
            .statics
            .iter()
            .enumerate()
            .filter_map(|(i, sl)| Some((Location::Static(i as u32), sl.stamp.get()?)));
        in_objects.chain(in_statics).take(self.speculative)
    }

    /// Whether `loc` is a volatile slot.
    pub fn is_volatile(&self, loc: Location) -> bool {
        match loc {
            Location::Obj(r, off) => {
                self.objects.get(r.index()).map(|o| o.is_volatile(off)).unwrap_or(false)
            }
            Location::Static(s) => {
                self.statics.get(s as usize).map(|sl| sl.volatile).unwrap_or(false)
            }
        }
    }

    /// Borrow an object.
    pub fn object(&self, r: ObjRef) -> Result<&Object, HeapError> {
        self.objects.get(r.index()).ok_or(HeapError::BadRef(r))
    }

    /// Array/object slot count.
    pub fn length_of(&self, r: ObjRef) -> Result<u32, HeapError> {
        Ok(self.object(r)?.len() as u32)
    }

    /// Number of live objects (no GC in this VM — allocation is an arena).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Number of static slots.
    pub fn static_count(&self) -> usize {
        self.statics.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_returns_old_value() {
        let mut h = Heap::new(1);
        let o = h.alloc(0, 2);
        let loc = Location::Obj(o, 1);
        assert_eq!(h.write(loc, Value::Int(5)).unwrap(), Value::Null);
        assert_eq!(h.write(loc, Value::Int(9)).unwrap(), Value::Int(5));
        assert_eq!(h.read(loc).unwrap(), Value::Int(9));
    }

    #[test]
    fn statics_work_like_slots() {
        let mut h = Heap::new(2);
        assert_eq!(h.read(Location::Static(0)).unwrap(), Value::Null);
        h.write(Location::Static(1), Value::Int(3)).unwrap();
        assert_eq!(h.read(Location::Static(1)).unwrap(), Value::Int(3));
        assert!(h.read(Location::Static(2)).is_err());
    }

    #[test]
    fn arrays_default_to_zero() {
        let mut h = Heap::new(0);
        let a = h.alloc_array(3);
        assert_eq!(h.read(Location::Obj(a, 0)).unwrap(), Value::Int(0));
        assert_eq!(h.length_of(a).unwrap(), 3);
        assert!(h.object(a).unwrap().is_array);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut h = Heap::new(0);
        let a = h.alloc_array(2);
        assert!(matches!(h.read(Location::Obj(a, 2)), Err(HeapError::BadOffset(_, 2))));
        assert!(matches!(
            h.write(Location::Obj(a, 9), Value::Int(1)),
            Err(HeapError::BadOffset(_, 9))
        ));
    }

    #[test]
    fn volatile_flags() {
        let mut h = Heap::new(1);
        h.declare_static_volatile(0).unwrap();
        assert!(h.is_volatile(Location::Static(0)));
        let o = h.alloc_with_volatile(0, 3, 0b100);
        assert!(h.is_volatile(Location::Obj(o, 2)));
        assert!(!h.is_volatile(Location::Obj(o, 0)));
    }

    #[test]
    fn dangling_ref_detected() {
        let h = Heap::new(0);
        assert!(matches!(h.read(Location::Obj(ObjRef(0), 0)), Err(HeapError::BadRef(_))));
    }
}
