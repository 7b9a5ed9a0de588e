//! The runtime-agnostic structured event model.
//!
//! Both runtimes reduce their monitor activity to the same small event
//! vocabulary: the VM and the real-thread library build [`Event`]s with
//! these [`EventKind`]s at their instrumentation points. Thread and
//! monitor identifiers are plain `u64`s so the layer carries no
//! dependency on either runtime's types.
//!
//! A kind is spelled out here and nowhere else: the documented enum
//! variant, its [`EventKind::encode`] and [`EventKind::decode`] arms,
//! and its [`SCHEMA`] row. The ring codec, the JSONL writer, the
//! importer and the name/index tables all derive from those. The keys
//! every event line starts with are spelled beside it, in [`envelope`].

use crate::json::Value;

/// What happened, with the payloads the exporters and latency
/// derivation need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Thread acquired the monitor (uncontended, handed off, or
    /// recursive re-entry).
    Acquire,
    /// Thread blocked on the monitor's entry queue.
    Block,
    /// A higher-priority contender flagged the holder for revocation.
    RevokeRequest {
        /// Requesting (high-priority) thread.
        by: u64,
    },
    /// A synchronized section was rolled back.
    Rollback {
        /// Undo-log entries restored.
        entries: u64,
        /// How long the rollback took, in the producer's clock units
        /// (virtual ticks in the VM, wall-clock nanoseconds in the
        /// locks runtime).
        duration: u64,
    },
    /// A section committed (outermost exit retired the undo log).
    Commit,
    /// Thread fully released the monitor (recursion count hit zero).
    Release,
    /// The section was marked non-revocable (JMM guard, native call,
    /// spawn, nested wait).
    NonRevocable,
    /// A deadlock cycle was detected.
    DeadlockDetected {
        /// Number of threads in the cycle.
        cycle_len: u64,
    },
    /// A deadlock was broken by revoking the event's thread.
    DeadlockBroken,
    /// An inversion was detected but could not be resolved (the holder
    /// is non-revocable).
    InversionUnresolved {
        /// High-priority requester.
        by: u64,
    },
    /// The revocation governor denied a revocation of the event's
    /// thread (the holder): its retry budget on this monitor is spent,
    /// so the contender blocks on the prioritized queue instead.
    GovernorThrottle {
        /// High-priority contender that was throttled.
        by: u64,
    },
    /// The governor opened a fresh fallback-to-blocking window for this
    /// monitor (per-monitor degradation to the blocking baseline).
    PolicyFallback,
    /// The event's thread submitted a critical section to the monitor's
    /// combiner (delegation policy / `delegate` op).
    DelegateSubmit {
        /// Holder at submission time (the combiner expected to drain),
        /// or [`Event::NO_THREAD`] when the monitor was free.
        holder: u64,
        /// Submission identity, linking Submit → Execute → Complete.
        token: u64,
    },
    /// A submitted section started executing; the event's thread is the
    /// executing combiner.
    DelegateExecute {
        /// Thread that submitted the section.
        submitter: u64,
        /// Submission identity.
        token: u64,
    },
    /// A submitted section finished executing (result available to the
    /// submitter); the event's thread is the executing combiner.
    DelegateComplete {
        /// Thread that submitted the section.
        submitter: u64,
        /// Submission identity.
        token: u64,
    },
    /// A cross-core revocation request was posted to the victim core's
    /// mailbox (the simulated IPI); the event's thread is the flagged
    /// holder, the event's core is the *requester's* core.
    IpiPosted {
        /// Requesting (high-priority) thread.
        by: u64,
    },
    /// The victim's core observed a posted IPI at a yield point and
    /// acknowledged it; the event's thread is the victim and the
    /// event's core is the victim's core.
    IpiAck {
        /// Requesting thread the acknowledgement answers.
        by: u64,
        /// True when the request was stale on delivery (the victim had
        /// already released the monitor or terminated), so the ack
        /// carries no rollback.
        stale: bool,
    },
}

/// The event wire format, once. One row per kind, at the kind's
/// [`EventKind::encode`] tag: its stable name; the JSON names of the
/// `encode` payload words `(a, b)` in wire order (kinds with fewer
/// payload fields name fewer); and the index of the field, if any,
/// written `null` when it holds the [`Event::NO_THREAD`] sentinel. The
/// JSONL writer, the importer, the Chrome `args` and the analyzer's
/// per-kind census read this. `stale` travels as 0/1 — the trace subset has no booleans.
pub(crate) const SCHEMA: &[(&str, &[&str], Option<usize>)] = &[
    ("Acquire", &[], None),
    ("Block", &[], None),
    ("RevokeRequest", &["by"], None),
    ("Rollback", &["entries", "duration"], None),
    ("Commit", &[], None),
    ("Release", &[], None),
    ("NonRevocable", &[], None),
    ("DeadlockDetected", &["cycle_len"], None),
    ("DeadlockBroken", &[], None),
    ("InversionUnresolved", &["by"], None),
    ("GovernorThrottle", &["by"], None),
    ("PolicyFallback", &[], None),
    ("DelegateSubmit", &["holder", "token"], Some(0)),
    ("DelegateExecute", &["submitter", "token"], None),
    ("DelegateComplete", &["submitter", "token"], None),
    ("IpiPosted", &["by"], None),
    ("IpiAck", &["by", "stale"], None),
];

/// The envelope of a JSONL event line, once: the literals that
/// introduce `ts`, `thread`, `monitor`, `core` (written only when
/// non-zero) and the kind's name, in the order they are written; the
/// kind's [`SCHEMA`] payload follows the name. `write_events_jsonl`
/// writes these and the importer's canonical decoder steps over them, so
/// a renamed or reordered key changes both or neither.
pub(crate) mod envelope {
    pub(crate) const TS: &str = "{\"ts\":";
    pub(crate) const THREAD: &str = ",\"thread\":";
    pub(crate) const MONITOR: &str = ",\"monitor\":";
    pub(crate) const CORE: &str = ",\"core\":";
    pub(crate) const KIND: &str = ",\"kind\":\"";
}

/// Number of [`EventKind`] variants (dense tally index space).
pub(crate) const NKINDS: usize = SCHEMA.len();

impl EventKind {
    /// Dense index of the variant, for per-kind count arrays.
    #[inline]
    pub(crate) fn index(&self) -> usize {
        self.encode().0 as usize
    }

    /// Pack the variant into `(tag, a, b)` words for the fixed-width
    /// ring slots; the tag is the variant's [`SCHEMA`] row. Inverse of
    /// [`EventKind::decode`].
    #[inline]
    pub(crate) fn encode(&self) -> (u64, u64, u64) {
        match *self {
            EventKind::Acquire => (0, 0, 0),
            EventKind::Block => (1, 0, 0),
            EventKind::RevokeRequest { by } => (2, by, 0),
            EventKind::Rollback { entries, duration } => (3, entries, duration),
            EventKind::Commit => (4, 0, 0),
            EventKind::Release => (5, 0, 0),
            EventKind::NonRevocable => (6, 0, 0),
            EventKind::DeadlockDetected { cycle_len } => (7, cycle_len, 0),
            EventKind::DeadlockBroken => (8, 0, 0),
            EventKind::InversionUnresolved { by } => (9, by, 0),
            EventKind::GovernorThrottle { by } => (10, by, 0),
            EventKind::PolicyFallback => (11, 0, 0),
            EventKind::DelegateSubmit { holder, token } => (12, holder, token),
            EventKind::DelegateExecute { submitter, token } => (13, submitter, token),
            EventKind::DelegateComplete { submitter, token } => (14, submitter, token),
            EventKind::IpiPosted { by } => (15, by, 0),
            EventKind::IpiAck { by, stale } => (16, by, stale as u64),
        }
    }

    /// Unpack `(tag, a, b)` words written by [`EventKind::encode`].
    /// `None` for a tag this version does not know (torn slot).
    pub(crate) fn decode(tag: u64, a: u64, b: u64) -> Option<EventKind> {
        Some(match tag {
            0 => EventKind::Acquire,
            1 => EventKind::Block,
            2 => EventKind::RevokeRequest { by: a },
            3 => EventKind::Rollback { entries: a, duration: b },
            4 => EventKind::Commit,
            5 => EventKind::Release,
            6 => EventKind::NonRevocable,
            7 => EventKind::DeadlockDetected { cycle_len: a },
            8 => EventKind::DeadlockBroken,
            9 => EventKind::InversionUnresolved { by: a },
            10 => EventKind::GovernorThrottle { by: a },
            11 => EventKind::PolicyFallback,
            12 => EventKind::DelegateSubmit { holder: a, token: b },
            13 => EventKind::DelegateExecute { submitter: a, token: b },
            14 => EventKind::DelegateComplete { submitter: a, token: b },
            15 => EventKind::IpiPosted { by: a },
            16 => EventKind::IpiAck { by: a, stale: b != 0 },
            _ => return None,
        })
    }

    /// Stable name used by every exporter.
    pub fn name(&self) -> &'static str {
        SCHEMA[self.index()].0
    }

    /// The payload as `(JSON field, value)` pairs in wire order; a
    /// `None` value is written `null`.
    pub(crate) fn payload(&self) -> impl Iterator<Item = (&'static str, Option<u64>)> {
        let (tag, a, b) = self.encode();
        let (_, fields, nullable) = SCHEMA[tag as usize];
        fields.iter().zip([a, b]).enumerate().map(move |(i, (&field, word))| {
            (field, (nullable != Some(i) || word != Event::NO_THREAD).then_some(word))
        })
    }

    /// Rebuild a kind from its wire `name` and a lookup of its JSON
    /// payload fields. `None` for a name this version does not know;
    /// `Some(None)` when a payload field is missing or mistyped.
    pub(crate) fn from_wire<'v>(
        name: &str,
        get: impl Fn(&str) -> Option<&'v Value<'v>>,
    ) -> Option<Option<EventKind>> {
        let tag = SCHEMA.iter().position(|row| row.0 == name)?;
        let (_, fields, nullable) = SCHEMA[tag];
        let mut words = [0u64; 2];
        for (i, (word, field)) in words.iter_mut().zip(fields).enumerate() {
            *word = match get(field) {
                Some(Value::Null) if nullable == Some(i) => Event::NO_THREAD,
                Some(Value::Num(n)) => *n,
                _ => return Some(None),
            };
        }
        Some(EventKind::decode(tag as u64, words[0], words[1]))
    }
}

/// One timestamped monitor event.
///
/// `thread` is the primary actor: the acquirer/blocker/releaser, the
/// flagged holder for [`EventKind::RevokeRequest`] and
/// [`EventKind::InversionUnresolved`], the victim for
/// [`EventKind::DeadlockBroken`]. Events without a natural monitor
/// (deadlock detection) use [`Event::NO_MONITOR`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Timestamp in the producing runtime's clock units (virtual ticks
    /// for the VM, monotonic wall-clock nanoseconds for the locks
    /// runtime — see `TsUnit` on the sink).
    pub ts: u64,
    /// Primary thread of the event.
    pub thread: u64,
    /// Monitor involved, or [`Event::NO_MONITOR`].
    pub monitor: u64,
    /// Simulated core the event was produced on. Single-core producers
    /// (the locks runtime, the VM at `--cores 1`) always stamp 0, and
    /// exporters omit core 0 so legacy output stays byte-identical.
    pub core: u32,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Sentinel monitor id for events not tied to one monitor.
    pub const NO_MONITOR: u64 = u64::MAX;
    /// Sentinel thread id for events not attributable to one thread
    /// (e.g. deadlock detection performed by the runtime itself).
    pub const NO_THREAD: u64 = u64::MAX;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind, twice: once with ordinary payload words and once with
    /// the all-ones sentinel in both (the nullable field's `null` case).
    /// Built from `decode` over the schema's tag range, so a new variant
    /// is covered without touching this list.
    fn every_kind() -> Vec<EventKind> {
        let tags = 0..NKINDS as u64;
        tags.clone()
            .map(|tag| (tag, 3 + tag, 1))
            .chain(tags.map(|tag| (tag, u64::MAX, u64::MAX)))
            .map(|(tag, a, b)| EventKind::decode(tag, a, b).expect("a schema row without a kind"))
            .collect()
    }

    #[test]
    fn every_kind_round_trips_through_every_codec() {
        // One past the table must not decode: a variant added to the
        // enum, `encode` and `decode` but not to SCHEMA fails here (and
        // `name()` on it would index out of bounds).
        assert_eq!(EventKind::decode(NKINDS as u64, 0, 0), None, "variant without a schema row");
        let kinds = every_kind();
        let events: Vec<Event> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| Event {
                ts: i as u64,
                thread: 1,
                monitor: if i % 2 == 0 { 7 } else { Event::NO_MONITOR },
                core: (i % 3) as u32,
                kind,
            })
            .collect();

        for (i, kind) in kinds.iter().enumerate() {
            let (tag, a, b) = kind.encode();
            assert_eq!(tag as usize, i % NKINDS, "tags are the schema row, dense from 0");
            assert_eq!(kind.index(), tag as usize);
            assert_eq!(kind.name(), SCHEMA[kind.index()].0);
            assert_eq!(EventKind::decode(tag, a, b), Some(*kind), "decode(encode) lost {kind:?}");
            assert_eq!(kind.payload().count(), SCHEMA[kind.index()].1.len());
        }
        let mut names: Vec<&str> = SCHEMA.iter().map(|row| row.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NKINDS, "kind names must be distinct");

        // Ring codec.
        let ring = crate::spsc::SpscRing::new(events.len(), 0);
        for ev in &events {
            assert!(ring.push(*ev));
        }
        let mut drained = Vec::new();
        ring.drain_with(|_, ev| drained.push(ev));
        assert_eq!(drained, events);

        // JSONL writer → importer.
        let mut buf = Vec::new();
        crate::write_events_jsonl(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let imp = crate::import_trace_jsonl(&text);
        assert_eq!(imp.warnings.total(), 0, "clean export re-imported with damage:\n{text}");
        assert_eq!(imp.events, events);
    }

    #[test]
    fn wire_names_and_nullable_fields_are_stable() {
        assert_eq!(EventKind::Acquire.name(), "Acquire");
        assert_eq!(EventKind::RevokeRequest { by: 3 }.name(), "RevokeRequest");
        assert_eq!(EventKind::Rollback { entries: 1, duration: 2 }.name(), "Rollback");
        let free = EventKind::DelegateSubmit { holder: Event::NO_THREAD, token: 11 };
        assert_eq!(free.payload().collect::<Vec<_>>(), [("holder", None), ("token", Some(11))]);
        // Only the schema's nullable field reads the sentinel as null.
        let by_max = EventKind::RevokeRequest { by: u64::MAX };
        assert_eq!(by_max.payload().collect::<Vec<_>>(), [("by", Some(u64::MAX))]);
        let null = Value::Null;
        assert_eq!(EventKind::from_wire("RevokeRequest", |_| Some(&null)), Some(None));
        assert_eq!(EventKind::from_wire("Teleport", |_| None), None);
    }
}
