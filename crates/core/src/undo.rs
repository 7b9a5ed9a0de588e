//! The sequential undo log.
//!
//! §3.1.2: *"We implemented the log as a sequential buffer. […] If the
//! execution of a synchronized section is interrupted and needs to be
//! re-executed then the log is processed in reverse to restore modified
//! locations to their original values."*
//!
//! The log is generic over the entry type: the VM logs
//! `(location, old word)` pairs, the real-thread library logs boxed
//! restore closures. Marks ([`LogMark`]) are taken at `monitorenter` so a
//! rollback of a (possibly nested) section can truncate exactly the
//! entries made since that section began — entries of sections nested
//! *inside* the rolled-back one are naturally included, which is required
//! because the rollback re-executes the inner sections too.

/// A position in an [`UndoLog`], taken at `monitorenter`.
///
/// Ordering follows log positions: a mark taken earlier is `<` a mark
/// taken later, so nested-section marks compare greater than their
/// enclosing section's mark.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct LogMark(usize);

impl LogMark {
    /// Log position of this mark (number of entries preceding it).
    pub fn position(self) -> usize {
        self.0
    }
}

/// A sequential undo buffer with O(1) append and reverse drain.
///
/// ```
/// use revmon_core::UndoLog;
///
/// let mut log = UndoLog::new();
/// let section = log.mark();            // taken at monitorenter
/// log.push(("x", 1));                  // write barrier logs old values
/// log.push(("y", 2));
/// let mut restored = Vec::new();
/// log.rollback_to(section, |e| restored.push(e));
/// assert_eq!(restored, vec![("y", 2), ("x", 1)]); // newest first
/// ```
#[derive(Debug)]
pub struct UndoLog<E> {
    entries: Vec<E>,
    /// High-water mark, for metrics.
    peak: usize,
}

impl<E> Default for UndoLog<E> {
    fn default() -> Self {
        UndoLog { entries: Vec::new(), peak: 0 }
    }
}

impl<E> UndoLog<E> {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log that appends into `buffer`'s allocation (what
    /// [`UndoLog::into_buffer`] returned for a log that is done).
    pub fn with_buffer(mut buffer: Vec<E>) -> Self {
        buffer.clear();
        UndoLog { entries: buffer, peak: 0 }
    }

    /// The log's entry buffer, emptied, for [`UndoLog::with_buffer`].
    pub fn into_buffer(self) -> Vec<E> {
        let mut entries = self.entries;
        entries.clear();
        entries
    }

    /// Record one update. Called from the write-barrier slow path.
    #[inline]
    pub fn push(&mut self, entry: E) {
        self.entries.push(entry);
        if self.entries.len() > self.peak {
            self.peak = self.entries.len();
        }
    }

    /// Take a mark at the current position (at `monitorenter`).
    pub fn mark(&self) -> LogMark {
        LogMark(self.entries.len())
    }

    /// Number of entries currently in the log.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Largest size the log ever reached.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// The entry at log position `pos`, for an update that folds into an
    /// entry already logged (the VM's barrier counts a repeat store to a
    /// word into the entry of its first store in the section).
    pub fn get_mut(&mut self, pos: usize) -> Option<&mut E> {
        self.entries.get_mut(pos)
    }

    /// Entries recorded since `mark`, in log order.
    pub fn since(&self, mark: LogMark) -> &[E] {
        &self.entries[mark.0.min(self.entries.len())..]
    }

    /// Roll back to `mark`: invoke `restore` on each entry **newest
    /// first** (the paper processes the log in reverse), removing them.
    pub fn rollback_to(&mut self, mark: LogMark, mut restore: impl FnMut(E)) {
        let cut = mark.0.min(self.entries.len());
        while self.entries.len() > cut {
            let e = self.entries.pop().expect("len > cut implies non-empty");
            restore(e);
        }
    }

    /// Commit (discard) entries since `mark` without restoring — called at
    /// a successful `monitorexit` of an *outermost* section. Nested
    /// sections keep their entries: only when the outermost monitor exits
    /// can the updates no longer be revoked.
    pub fn commit_to(&mut self, mark: LogMark) {
        let cut = mark.0.min(self.entries.len());
        self.entries.truncate(cut);
    }

    /// Drop everything (thread termination).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_restores_in_reverse_order() {
        let mut log = UndoLog::new();
        let m = log.mark();
        log.push(1);
        log.push(2);
        log.push(3);
        let mut seen = Vec::new();
        log.rollback_to(m, |e| seen.push(e));
        assert_eq!(seen, vec![3, 2, 1]);
        assert!(log.is_empty());
    }

    #[test]
    fn nested_marks_rollback_only_inner() {
        let mut log = UndoLog::new();
        let outer = log.mark();
        log.push("a");
        let inner = log.mark();
        log.push("b");
        log.push("c");
        let mut seen = Vec::new();
        log.rollback_to(inner, |e| seen.push(e));
        assert_eq!(seen, vec!["c", "b"]);
        assert_eq!(log.len(), 1);
        // Rolling back the outer section also covers what inner re-added.
        log.push("d");
        seen.clear();
        log.rollback_to(outer, |e| seen.push(e));
        assert_eq!(seen, vec!["d", "a"]);
    }

    #[test]
    fn outer_rollback_covers_committed_inner_sections() {
        // An inner section that exited successfully commits nothing until
        // the outermost exit; its entries must still be present for an
        // outer rollback.
        let mut log = UndoLog::new();
        let outer = log.mark();
        log.push(10);
        let inner = log.mark();
        log.push(20);
        // inner exits while outer is still active: no commit of a nested
        // section — caller only calls commit_to at outermost exit.
        let _ = inner;
        let mut seen = Vec::new();
        log.rollback_to(outer, |e| seen.push(e));
        assert_eq!(seen, vec![20, 10]);
    }

    #[test]
    fn commit_discards_without_restoring() {
        let mut log = UndoLog::new();
        let m = log.mark();
        log.push(5);
        log.push(6);
        log.commit_to(m);
        assert!(log.is_empty());
        assert_eq!(log.peak(), 2);
    }

    #[test]
    fn since_exposes_entries_in_log_order() {
        let mut log = UndoLog::new();
        log.push(1);
        let m = log.mark();
        log.push(2);
        log.push(3);
        assert_eq!(log.since(m), &[2, 3]);
    }

    #[test]
    fn get_mut_reaches_a_logged_entry_in_place() {
        let mut log = UndoLog::new();
        log.push(1);
        log.push(2);
        *log.get_mut(0).expect("logged") += 10;
        assert!(log.get_mut(2).is_none());
        let mut seen = Vec::new();
        log.rollback_to(LogMark(0), |e| seen.push(e));
        assert_eq!(seen, vec![2, 11]);
    }

    #[test]
    fn rollback_to_stale_mark_beyond_len_is_noop() {
        let mut log: UndoLog<u32> = UndoLog::new();
        log.push(1);
        let m = log.mark(); // position 1
        log.commit_to(LogMark(0));
        // mark now exceeds len; rollback must not panic or restore anything
        let mut seen = Vec::new();
        log.rollback_to(m, |e| seen.push(e));
        assert!(seen.is_empty());
    }
}
