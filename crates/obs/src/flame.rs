//! Contention flamegraphs: folded-stack export in the brendangregg
//! `flamegraph.pl` format.
//!
//! Each reconstructed inversion episode contributes its critical-path
//! segments as synthetic stacks `monitor;resolution;phase weight`, so a
//! run with a million monitors renders as a flamegraph where the hot
//! monitors — and *which phase* of their episodes dominates — jump out
//! visually. Feed the output straight to `flamegraph.pl` or
//! `inferno-flamegraph`:
//!
//! ```text
//! revmon run programs/priority_inversion.rvm --flame out.folded
//! flamegraph.pl out.folded > contention.svg
//! ```
//!
//! The representation is a `BTreeMap` keyed by the joined frame string,
//! so [`FoldedStacks::write_folded`] is deterministic: the same episodes
//! give the same bytes, whatever order they were added in.

use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::episode::Episode;

/// Replace the two characters the folded format reserves — `;` (frame
/// separator) and the space before the weight — so an arbitrary monitor
/// name stays one frame to the tools that read the output.
fn frame(s: &str) -> String {
    s.chars().map(|c| if c == ';' || c.is_whitespace() { '_' } else { c }).collect()
}

/// An accumulating set of folded stacks (frame-joined key → weight).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FoldedStacks {
    stacks: BTreeMap<String, u64>,
}

impl FoldedStacks {
    /// Number of distinct stacks.
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    /// Whether no stack has been added.
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// Add `weight` under the stack `frames` (root first). Zero weights
    /// are dropped — the folded format has no use for empty samples.
    pub(crate) fn add(&mut self, frames: &[&str], weight: u64) {
        if weight == 0 || frames.is_empty() {
            return;
        }
        let key = frames.iter().map(|f| frame(f)).collect::<Vec<_>>().join(";");
        *self.stacks.entry(key).or_insert(0) += weight;
    }

    /// Build contention stacks from reconstructed episodes:
    /// `monitor → resolution → critical-path phase`, weighted by the
    /// clock units each phase consumed. Unresolved episodes (no end
    /// timestamp) weight their `blocked-wait` frame by wasted section
    /// time instead, floored at 1 so they stay visible.
    pub fn from_episodes(episodes: &[Episode], names: &BTreeMap<u64, String>) -> Self {
        let mut out = Self::default();
        for e in episodes {
            let monitor = match names.get(&e.monitor) {
                Some(n) => n.clone(),
                None => format!("monitor#{}", e.monitor),
            };
            let resolution = e.resolution.name();
            match e.critical_path() {
                Some(cp) => {
                    for (phase, weight) in cp.segments() {
                        out.add(&[&monitor, resolution, phase], weight);
                    }
                }
                None => out.add(&[&monitor, resolution, "blocked-wait"], e.wasted_time.max(1)),
            }
        }
        out
    }

    /// Write in folded format: `frame;frame;frame weight`, one stack per
    /// line, sorted (deterministic and byte-stable).
    pub fn write_folded<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for (stack, weight) in &self.stacks {
            writeln!(w, "{stack} {weight}")?;
        }
        Ok(())
    }

    /// The folded output as a `String`.
    pub fn folded(&self) -> String {
        let mut buf = Vec::new();
        self.write_folded(&mut buf).expect("Vec<u8> writes are infallible");
        String::from_utf8(buf).expect("folded output is UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    /// The episodes of a whole stream, as every renderer sees them.
    fn reconstruct_episodes(events: &[Event]) -> Vec<Episode> {
        crate::Analysis::from_events(events).episodes
    }

    #[test]
    fn add_and_fold_deterministically() {
        let mut a = FoldedStacks::default();
        a.add(&["lock", "revocation", "undo-walk"], 6);
        a.add(&["lock", "revocation", "blocked-wait"], 2);
        a.add(&["lock", "revocation", "undo-walk"], 4); // accumulates
        a.add(&["lock", "revocation", "restore"], 0); // dropped
        let mut b = FoldedStacks::default();
        b.add(&["lock", "revocation", "blocked-wait"], 2);
        b.add(&["lock", "revocation", "undo-walk"], 10);
        assert_eq!(a.folded(), b.folded(), "insertion order leaked");
        assert_eq!(a.folded(), "lock;revocation;blocked-wait 2\nlock;revocation;undo-walk 10\n");
    }

    #[test]
    fn reserved_characters_are_sanitized() {
        let mut f = FoldedStacks::default();
        f.add(&["my lock;2", "revocation", "signal"], 1);
        assert_eq!(f.folded(), "my_lock_2;revocation;signal 1\n");
    }

    #[test]
    fn episodes_fold_by_monitor_resolution_phase() {
        let ev = |ts, thread, monitor, kind| Event { ts, thread, monitor, core: 0, kind };
        let eps = reconstruct_episodes(&[
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
            ev(30, 1, 7, EventKind::Rollback { entries: 4, duration: 6 }),
            ev(31, 2, 7, EventKind::Acquire),
        ]);
        let names = [(7u64, "queue".to_string())].into_iter().collect();
        let f = FoldedStacks::from_episodes(&eps, &names);
        let text = f.folded();
        assert!(text.contains("queue;revocation;blocked-wait 2\n"), "got:\n{text}");
        assert!(text.contains("queue;revocation;signal 2\n"), "got:\n{text}");
        assert!(text.contains("queue;revocation;undo-walk 6\n"), "got:\n{text}");
        assert!(text.contains("queue;revocation;handoff 1\n"), "got:\n{text}");
        // Total weight equals the episode's inversion latency.
        let total: u64 =
            text.lines().map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap()).sum();
        assert_eq!(total, eps[0].latency().unwrap());
    }
}
