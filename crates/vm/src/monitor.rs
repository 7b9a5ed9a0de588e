//! Per-object monitor state.
//!
//! Every object can act as a monitor (Java semantics). State is created
//! lazily on first synchronization. The holder's priority is *deposited in
//! the monitor header* at acquisition, exactly as in §4 ("A thread
//! acquiring a monitor deposits its priority in the header of the monitor
//! object"), so contenders can detect inversion with one comparison.

use crate::bytecode::MethodId;
use crate::value::{ObjRef, Value};
use revmon_core::{PrioritizedQueue, Priority, QueueDiscipline, ThreadId};
use std::collections::BTreeMap;

/// One queued delegated critical section (`Insn::Delegate`): the method
/// to run, its arguments, and the submission's identity for completion
/// and event attribution.
#[derive(Clone, Debug)]
pub struct DelegatedCall {
    /// Completion token handed back to the submitter.
    pub token: u32,
    /// Method to execute under the monitor.
    pub method: MethodId,
    /// Arguments (first parameter first).
    pub args: Vec<Value>,
    /// Submitting thread.
    pub submitter: ThreadId,
}

/// Runtime state of one monitor.
#[derive(Debug)]
pub struct MonitorState {
    /// Current owner.
    pub owner: Option<ThreadId>,
    /// Recursive acquisition depth (Java monitors are reentrant).
    pub recursion: u32,
    /// Priority deposited by the owner at acquisition.
    pub holder_priority: Priority,
    /// Entry queue (contended acquirers and notified waiters).
    pub queue: PrioritizedQueue<ThreadId>,
    /// Wait set (`Object.wait`), FIFO by arrival.
    pub wait_set: Vec<ThreadId>,
    /// Total acquisitions of this monitor.
    pub acquires: u64,
    /// Acquisitions that found it held (blocking episodes).
    pub contended: u64,
    /// Largest entry-queue length observed.
    pub peak_queue: usize,
    /// Combiner submission queue (`Insn::Delegate`): pending delegated
    /// sections, drained in priority order by whichever thread holds the
    /// monitor.
    pub submissions: PrioritizedQueue<DelegatedCall>,
    /// Submissions drained since the current holder acquired — the
    /// combiner's bounded drain budget counts against this.
    pub drained: u32,
}

impl MonitorState {
    fn new(discipline: QueueDiscipline) -> Self {
        MonitorState {
            owner: None,
            recursion: 0,
            holder_priority: Priority::MIN,
            queue: PrioritizedQueue::new(discipline),
            wait_set: Vec::new(),
            acquires: 0,
            contended: 0,
            peak_queue: 0,
            submissions: PrioritizedQueue::new(discipline),
            drained: 0,
        }
    }

    /// Whether `t` owns this monitor.
    pub fn owned_by(&self, t: ThreadId) -> bool {
        self.owner == Some(t)
    }
}

/// Table of all monitors that have ever been synchronized on.
///
/// Backed by an *ordered* map: the background inversion scanner and the
/// state fingerprinter iterate it, and both must see a deterministic
/// order for runs to be bit-exact replayable.
#[derive(Debug)]
pub struct MonitorTable {
    monitors: BTreeMap<ObjRef, MonitorState>,
    discipline: QueueDiscipline,
}

impl MonitorTable {
    /// Empty table; new monitors get entry queues with `discipline`.
    pub fn new(discipline: QueueDiscipline) -> Self {
        MonitorTable { monitors: BTreeMap::new(), discipline }
    }

    /// Monitor state for `obj`, created on first use.
    pub fn get_mut(&mut self, obj: ObjRef) -> &mut MonitorState {
        let d = self.discipline;
        self.monitors.entry(obj).or_insert_with(|| MonitorState::new(d))
    }

    /// Monitor state if it exists.
    pub fn get(&self, obj: ObjRef) -> Option<&MonitorState> {
        self.monitors.get(&obj)
    }

    /// Iterate over all monitors in ascending object order (background
    /// inversion detection, invariant checking).
    pub fn iter(&self) -> impl Iterator<Item = (&ObjRef, &MonitorState)> {
        self.monitors.iter()
    }

    /// Number of monitors ever synchronized on.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// Whether no monitor exists yet.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazily_created_unowned() {
        let mut t = MonitorTable::new(QueueDiscipline::Priority);
        assert!(t.get(ObjRef(1)).is_none());
        let m = t.get_mut(ObjRef(1));
        assert_eq!(m.owner, None);
        assert_eq!(m.recursion, 0);
        assert!(t.get(ObjRef(1)).is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn owned_by_checks_owner() {
        let mut t = MonitorTable::new(QueueDiscipline::Priority);
        let m = t.get_mut(ObjRef(0));
        m.owner = Some(ThreadId(3));
        assert!(m.owned_by(ThreadId(3)));
        assert!(!m.owned_by(ThreadId(4)));
    }

    #[test]
    fn queue_uses_table_discipline() {
        let mut t = MonitorTable::new(QueueDiscipline::Fifo);
        let m = t.get_mut(ObjRef(0));
        m.queue.push(ThreadId(1), Priority::LOW);
        m.queue.push(ThreadId(2), Priority::HIGH);
        assert_eq!(m.queue.pop(), Some(ThreadId(1))); // FIFO ignores priority
    }
}
