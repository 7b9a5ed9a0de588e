//! Wait-for graph snapshots: who is transitively blocking whom, right
//! now.
//!
//! The runtimes maintain a live waits-for relation for deadlock
//! detection (`revmon-core::WaitsForGraph`); this module is its
//! *observable* form — a point-in-time copy of every
//! thread→monitor→holder blocking edge, decorated with the priorities
//! on each side and the governor's revocation streak for the
//! `(monitor, holder)` pair. Snapshots are deterministic (edges sorted
//! by waiter) and export as:
//!
//! * **DOT** ([`GraphSnapshot::to_dot`]) — threads as ellipses,
//!   monitors as boxes, a `waits` edge from each blocked thread to its
//!   monitor and a `holds` edge from the monitor to its owner; paste
//!   into Graphviz or an online renderer;
//! * **JSON** ([`GraphSnapshot::to_json`]) — one edge object per
//!   blocked thread, the `revmon serve` live-graph payload, with the
//!   snapshot's deadlock cycle (or `null`) found by the same chase the
//!   deadlock detector uses.

use std::collections::BTreeMap;

use crate::json::esc;

/// One observed blocking edge: `waiter` is blocked acquiring `monitor`,
/// currently held by `holder`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphEdge {
    /// The blocked thread.
    pub waiter: u64,
    /// The blocked thread's effective priority.
    pub waiter_priority: u8,
    /// The monitor it is trying to acquire.
    pub monitor: u64,
    /// The thread currently holding `monitor`.
    pub holder: u64,
    /// The holder's deposited priority.
    pub holder_priority: u8,
    /// The governor's consecutive-revocation streak for this
    /// `(monitor, holder)` pair (0 when ungoverned or unknown).
    pub governor_streak: u32,
}

/// A deterministic point-in-time copy of the waits-for relation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphSnapshot {
    /// Blocking edges, sorted by waiter id (each thread waits on at
    /// most one monitor, so the waiter is a unique key).
    pub edges: Vec<GraphEdge>,
}

impl GraphSnapshot {
    /// Build a snapshot from raw edges (sorted here, so callers may
    /// hand over hash-map iteration order).
    pub fn new(mut edges: Vec<GraphEdge>) -> Self {
        edges.sort_by_key(|e| e.waiter);
        GraphSnapshot { edges }
    }

    /// Find a deadlock cycle in the waiter→holder projection, if any.
    /// Returns the thread ids in cycle order. Same single-successor
    /// chase as the runtimes' detector: O(n²) worst case over a
    /// relation that is in practice tiny.
    fn find_cycle(&self) -> Option<Vec<u64>> {
        let succ: BTreeMap<u64, u64> = self.edges.iter().map(|e| (e.waiter, e.holder)).collect();
        for &start in succ.keys() {
            let mut path: Vec<u64> = Vec::new();
            let mut cur = start;
            loop {
                if let Some(pos) = path.iter().position(|&t| t == cur) {
                    return Some(path[pos..].to_vec());
                }
                path.push(cur);
                match succ.get(&cur) {
                    Some(&owner) => cur = owner,
                    None => break, // chain ends at a runnable thread
                }
            }
        }
        None
    }

    fn monitor_name(names: &BTreeMap<u64, String>, monitor: u64) -> String {
        match names.get(&monitor) {
            Some(n) => n.clone(),
            None => format!("monitor#{monitor}"),
        }
    }

    /// Render as Graphviz DOT. Deterministic: nodes and edges appear in
    /// sorted order, so two snapshots of the same state are
    /// byte-identical.
    pub fn to_dot(&self, names: &BTreeMap<u64, String>) -> String {
        let mut out = String::from("digraph waits_for {\n");
        out.push_str("  rankdir=LR;\n");
        // Thread nodes (waiters and holders), then monitor nodes.
        let mut threads: Vec<(u64, u8, bool)> = Vec::new(); // (tid, prio, is_holder)
        for e in &self.edges {
            if !threads.iter().any(|&(t, _, _)| t == e.waiter) {
                threads.push((e.waiter, e.waiter_priority, false));
            }
        }
        for e in &self.edges {
            if !threads.iter().any(|&(t, _, _)| t == e.holder) {
                threads.push((e.holder, e.holder_priority, true));
            }
        }
        threads.sort_by_key(|&(t, _, _)| t);
        for (t, prio, _) in &threads {
            out.push_str(&format!("  \"t{t}\" [label=\"t{t}\\nprio {prio}\"];\n"));
        }
        let mut monitors: Vec<u64> = self.edges.iter().map(|e| e.monitor).collect();
        monitors.sort_unstable();
        monitors.dedup();
        for m in &monitors {
            let label = esc(&Self::monitor_name(names, *m));
            out.push_str(&format!("  \"m{m}\" [shape=box, label=\"{label}\"];\n"));
        }
        // waits edges (thread → monitor), then holds edges (monitor →
        // thread, deduplicated: one holder per monitor).
        for e in &self.edges {
            out.push_str(&format!(
                "  \"t{}\" -> \"m{}\" [label=\"waits\"];\n",
                e.waiter, e.monitor
            ));
        }
        let mut held: Vec<(u64, u64, u32)> =
            self.edges.iter().map(|e| (e.monitor, e.holder, e.governor_streak)).collect();
        held.sort_unstable();
        held.dedup();
        for (m, h, streak) in held {
            let label =
                if streak > 0 { format!("holds (streak {streak})") } else { "holds".to_string() };
            out.push_str(&format!("  \"m{m}\" -> \"t{h}\" [label=\"{label}\"];\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Render as one JSON document (the `revmon serve` `/graph`
    /// payload): edge objects plus a cycle report.
    pub fn to_json(&self, names: &BTreeMap<u64, String>) -> String {
        let mut out = String::from("{\n  \"edges\": [\n");
        let rows: Vec<String> = self
            .edges
            .iter()
            .map(|e| {
                let name = match names.get(&e.monitor) {
                    Some(n) => format!("\"{}\"", esc(n)),
                    None => "null".into(),
                };
                format!(
                    "    {{\"waiter\": {}, \"waiter_priority\": {}, \"monitor\": {}, \
                     \"monitor_name\": {name}, \"holder\": {}, \"holder_priority\": {}, \
                     \"governor_streak\": {}}}",
                    e.waiter,
                    e.waiter_priority,
                    e.monitor,
                    e.holder,
                    e.holder_priority,
                    e.governor_streak,
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");
        match self.find_cycle() {
            Some(c) => {
                let ids: Vec<String> = c.iter().map(u64::to_string).collect();
                out.push_str(&format!("  \"deadlock_cycle\": [{}]\n", ids.join(", ")));
            }
            None => out.push_str("  \"deadlock_cycle\": null\n"),
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(waiter: u64, monitor: u64, holder: u64) -> GraphEdge {
        GraphEdge {
            waiter,
            waiter_priority: 5,
            monitor,
            holder,
            holder_priority: 2,
            governor_streak: 0,
        }
    }

    #[test]
    fn snapshot_sorts_edges_by_waiter() {
        let g = GraphSnapshot::new(vec![edge(9, 1, 2), edge(3, 1, 2)]);
        assert_eq!(g.edges[0].waiter, 3);
        assert_eq!(g.edges[1].waiter, 9);
    }

    #[test]
    fn chain_is_acyclic_cycle_is_not() {
        let chain = GraphSnapshot::new(vec![edge(1, 10, 2), edge(2, 11, 3)]);
        assert_eq!(chain.find_cycle(), None);
        let cyc = GraphSnapshot::new(vec![edge(1, 10, 2), edge(2, 11, 1)]);
        let c = cyc.find_cycle().unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.contains(&1) && c.contains(&2));
    }

    #[test]
    fn dot_is_balanced_and_deterministic() {
        let names = [(10u64, "lock".to_string())].into_iter().collect();
        let a = GraphSnapshot::new(vec![edge(2, 10, 1), edge(3, 10, 1)]);
        let b = GraphSnapshot::new(vec![edge(3, 10, 1), edge(2, 10, 1)]);
        let dot = a.to_dot(&names);
        assert_eq!(dot, b.to_dot(&names), "snapshot order leaked into DOT");
        assert!(dot.starts_with("digraph waits_for {"));
        assert!(dot.ends_with("}\n"));
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
        assert!(dot.contains("\"t2\" -> \"m10\" [label=\"waits\"];"));
        // One holds edge despite two waiters on the monitor.
        assert_eq!(dot.matches("-> \"t1\"").count(), 1);
        assert!(dot.contains("label=\"lock\""));
    }

    #[test]
    fn json_carries_priorities_streaks_and_cycles() {
        let names = BTreeMap::new();
        let mut e = edge(1, 10, 2);
        e.governor_streak = 3;
        let g = GraphSnapshot::new(vec![e, edge(2, 11, 1)]);
        let json = g.to_json(&names);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"governor_streak\": 3"));
        assert!(json.contains("\"waiter_priority\": 5"));
        assert!(json.contains("\"deadlock_cycle\": [1, 2]"));

        let empty = GraphSnapshot::default();
        assert!(empty.to_json(&names).contains("\"deadlock_cycle\": null"));
    }
}
