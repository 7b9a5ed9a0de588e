//! `revmon-analyze`: turn an event stream into answers.
//!
//! [`Analyzer`] folds a trace one event at a time — it never needs the
//! whole of it — and [`Analyzer::finish`] produces the [`Analysis`]:
//!
//! * the reconstructed [`Episode`]s (see [`crate::episode`]) with
//!   per-resolution counts and exact inversion-latency statistics
//!   (episodes are few; latencies are kept exactly rather than
//!   histogram-quantized, so reports are byte-stable);
//! * **per-monitor contention profiles** ([`MonitorProfile`]): keyed
//!   event counters plus blocking-time and held-time histograms, sorted
//!   by blocking time so the worst offender tops every report;
//! * the four stream-wide latency [`Histograms`] (entry blocking,
//!   section length, rollback duration, inversion resolution) — every
//!   event counts here, monitor-less ones included;
//! * stream totals and a damage-aware event census.
//!
//! [`Analysis::from_events`] is the same fold over a slice already in
//! memory. Three renderers share the result: [`write_report`] (human
//! text), [`analysis_json`] (machine JSON), and [`write_prometheus`]
//! (Prometheus text exposition format, for scraping live processes or
//! pushing post-hoc). All three take the monitor-name table from the
//! trace (or the runtimes' naming APIs) so output reads
//! `monitor "queue"`, not `monitor 3`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io::{self, Write};

use revmon_core::FxMap;

use crate::episode::{Episode, EpisodeBuilder, Resolution};
use crate::event::{Event, EventKind, NKINDS, SCHEMA};
use crate::hist::Histogram;
use crate::json::Escaped;
use crate::latency::{Histograms, Intervals};
use crate::sink::TsUnit;

/// Per-monitor contention profile.
#[derive(Default)]
pub struct MonitorProfile {
    /// Monitor id.
    pub monitor: u64,
    /// Acquisitions (including recursive re-entries and handoffs).
    pub acquires: u64,
    /// Entry-queue blocking episodes.
    pub blocks: u64,
    /// Revocations requested against holders of this monitor.
    pub revoke_requests: u64,
    /// Rollbacks performed on this monitor.
    pub rollbacks: u64,
    /// Sections committed.
    pub commits: u64,
    /// Inversions flagged unresolvable (non-revocable holder).
    pub unresolved: u64,
    /// Revocations denied by the governor's retry budget.
    pub governor_throttles: u64,
    /// Fresh fallback-to-blocking windows the governor opened here.
    pub policy_fallbacks: u64,
    /// Undo entries restored by this monitor's rollbacks.
    pub wasted_entries: u64,
    /// Critical sections submitted to this monitor's combiner.
    pub delegations: u64,
    /// Delegated sections the combiner completed here.
    pub delegated_completes: u64,
    /// Total clock units threads spent blocked on the entry queue.
    pub total_blocked: u64,
    /// Blocking-time distribution (Block → same thread's Acquire).
    pub blocking: Histogram,
    /// Held-time distribution (outermost Acquire → Release).
    pub held: Histogram,
}

/// Exact statistics over a small set of values (episode latencies).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExactStats {
    values: Vec<u64>, // kept sorted
}

/// Collects the values in any order and sorts them once.
impl FromIterator<u64> for ExactStats {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut values: Vec<u64> = iter.into_iter().collect();
        values.sort_unstable();
        ExactStats { values }
    }
}

impl ExactStats {
    /// Number of values.
    pub fn count(&self) -> u64 {
        self.values.len() as u64
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            // In `u128`: two latencies a hostile trace claims can sum
            // past `u64`; below that the result is bit-identical.
            self.values.iter().map(|&v| v as u128).sum::<u128>() as f64 / self.values.len() as f64
        }
    }

    /// Exact nearest-rank percentile (0 when empty).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.values.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.values.len() as f64).ceil().max(1.0) as usize;
        self.values[rank.min(self.values.len()) - 1]
    }

    /// Largest value (0 when empty).
    pub fn max(&self) -> u64 {
        self.values.last().copied().unwrap_or(0)
    }
}

/// The complete analysis of one trace.
pub struct Analysis {
    /// Reconstructed episodes, ordered by start time.
    pub episodes: Vec<Episode>,
    /// Per-monitor profiles, sorted by total blocking time (descending;
    /// monitor id breaks ties) — Brandenburg's blocking-time-per-resource
    /// ordering.
    pub profiles: Vec<MonitorProfile>,
    /// Event census by kind name, in alphabetical (`BTreeMap`) order.
    pub kind_counts: BTreeMap<&'static str, u64>,
    /// Total events analyzed.
    pub events: u64,
    /// Last timestamp seen (stream length in clock units).
    pub last_ts: u64,
    /// Exact inversion-latency stats over resolved episodes.
    pub inversion_latency: ExactStats,
    /// The stream-wide latency histograms (`--stats`, `--metrics-json`).
    pub histograms: Histograms,
    /// Total undo entries rolled back across all episodes.
    pub wasted_entries: u64,
    /// Total discarded section time across all episodes.
    pub wasted_time: u64,
    /// Revocations the governor denied across all episodes.
    pub governor_throttles: u64,
    /// Fallback-to-blocking windows the governor opened.
    pub policy_fallbacks: u64,
    /// Queue-wait (submit → execute) stats over delegated episodes.
    pub delegation_queue_wait: ExactStats,
    /// Execute-time (execute → complete) stats over delegated episodes.
    pub delegation_exec_time: ExactStats,
    /// Trace lines the importer skipped (damage on disk). Nonzero means
    /// `unresolved` verdicts may be truncation artifacts — see
    /// [`Analysis::mark_truncated`].
    pub skipped_lines: u64,
}

/// The streaming fold behind every [`Analysis`]: [`Analyzer::observe`]
/// each event in stream order, then [`Analyzer::finish`]. What it holds
/// grows with the monitors, the threads in flight and the episodes
/// found, not with the length of the trace.
#[derive(Default)]
pub struct Analyzer {
    intervals: Intervals,
    histograms: Histograms,
    /// Monitor → the first pending revoke request's `(requester, ts)`,
    /// until the requester acquires it (inversion resolution).
    revoke_pending: FxMap<u64, (u64, u64)>,
    profiles: FxMap<u64, MonitorProfile>,
    episodes: EpisodeBuilder,
    /// Event census by [`EventKind::index`].
    kinds: [u64; NKINDS],
    events: u64,
    last_ts: u64,
}

impl Analyzer {
    /// Fold one event into the census, the latency histograms, its
    /// monitor's profile and the episode automaton.
    pub fn observe(&mut self, ev: &Event) {
        self.events += 1;
        self.kinds[ev.kind.index()] += 1;
        self.last_ts = self.last_ts.max(ev.ts);
        let closed = self.intervals.observe(ev);
        self.episodes.observe(ev, closed, &self.intervals);
        let h = &mut self.histograms;
        match ev.kind {
            EventKind::Acquire => {
                if let Some(waited) = closed {
                    h.entry_blocking.record_mut(waited);
                }
                if let Some(&(requester, t0)) = self.revoke_pending.get(&ev.monitor) {
                    if requester == ev.thread {
                        h.inversion_resolution.record_mut(ev.ts.saturating_sub(t0));
                        self.revoke_pending.remove(&ev.monitor);
                    }
                }
            }
            EventKind::Release => {
                if let Some(held) = closed {
                    h.section_length.record_mut(held);
                }
            }
            // The revoked holder's section contributes no length; its
            // retry measures from its new acquire.
            EventKind::Rollback { duration, .. } => h.rollback_duration.record_mut(duration),
            EventKind::RevokeRequest { by } => {
                self.revoke_pending.entry(ev.monitor).or_insert((by, ev.ts));
            }
            _ => {}
        }
        if ev.monitor == Event::NO_MONITOR {
            return;
        }
        let p = self
            .profiles
            .entry(ev.monitor)
            .or_insert_with(|| MonitorProfile { monitor: ev.monitor, ..MonitorProfile::default() });
        match ev.kind {
            EventKind::Acquire => {
                p.acquires += 1;
                if let Some(waited) = closed {
                    p.total_blocked = p.total_blocked.saturating_add(waited);
                    p.blocking.record_mut(waited);
                }
            }
            EventKind::Block => p.blocks += 1,
            EventKind::RevokeRequest { .. } => p.revoke_requests += 1,
            EventKind::Rollback { entries, .. } => {
                p.rollbacks += 1;
                p.wasted_entries = p.wasted_entries.saturating_add(entries);
            }
            EventKind::Commit => p.commits += 1,
            EventKind::Release => {
                if let Some(held) = closed {
                    p.held.record_mut(held);
                }
            }
            EventKind::InversionUnresolved { .. } => p.unresolved += 1,
            EventKind::GovernorThrottle { .. } => p.governor_throttles += 1,
            EventKind::PolicyFallback => p.policy_fallbacks += 1,
            EventKind::DelegateSubmit { .. } => p.delegations += 1,
            EventKind::DelegateComplete { .. } => p.delegated_completes += 1,
            EventKind::DelegateExecute { .. }
            | EventKind::NonRevocable
            | EventKind::DeadlockDetected { .. }
            | EventKind::DeadlockBroken
            | EventKind::IpiPosted { .. }
            | EventKind::IpiAck { .. } => {}
        }
    }

    /// Close the stream: open episodes end unresolved, profiles are
    /// ranked, the totals over episodes are taken.
    pub fn finish(self) -> Analysis {
        let episodes = self.episodes.finish();
        let delegated = || episodes.iter().filter(|e| e.resolution == Resolution::Delegated);
        // A trace line can claim any rollback size or timestamp, so the
        // totals saturate instead of wrapping (or panicking in debug).
        let total = |of: fn(&Episode) -> u64| episodes.iter().map(of).fold(0, u64::saturating_add);
        let mut profiles: Vec<MonitorProfile> = self.profiles.into_values().collect();
        profiles.sort_by_key(|p| (std::cmp::Reverse(p.total_blocked), p.monitor));
        Analysis {
            profiles,
            kind_counts: SCHEMA
                .iter()
                .zip(self.kinds)
                .filter(|&(_, n)| n > 0)
                .map(|(row, n)| (row.0, n))
                .collect(),
            events: self.events,
            last_ts: self.last_ts,
            inversion_latency: episodes.iter().filter_map(Episode::latency).collect(),
            histograms: self.histograms,
            wasted_entries: total(|e| e.wasted_entries),
            wasted_time: total(|e| e.wasted_time),
            governor_throttles: total(|e| e.governor_throttles),
            policy_fallbacks: total(|e| e.policy_fallbacks),
            delegation_queue_wait: delegated().map(|e| e.queue_wait).collect(),
            delegation_exec_time: delegated().map(|e| e.exec_time).collect(),
            skipped_lines: 0,
            episodes,
        }
    }
}

/// Reconstruct the episodes of a complete event stream.
pub fn reconstruct_episodes(events: &[Event]) -> Vec<Episode> {
    Analysis::from_events(events).episodes
}

impl Analysis {
    /// The whole fold over a trace already in memory.
    pub fn from_events(events: &[Event]) -> Analysis {
        let mut analyzer = Analyzer::default();
        events.iter().for_each(|ev| analyzer.observe(ev));
        analyzer.finish()
    }

    /// Reclassify truncation artifacts after a damaged import.
    ///
    /// An episode whose holder or requester lost events to skipped trace
    /// lines (`damaged` pairs from `TraceImport`) and ended `Unresolved`
    /// is not evidence of an unresolvable inversion — the resolving
    /// events may simply be missing. Flip those verdicts to
    /// [`Resolution::Truncated`] so damage reads as damage, not as a
    /// protocol failure. `skipped_lines` is surfaced in every renderer.
    pub fn mark_truncated(
        &mut self,
        damaged: &std::collections::BTreeSet<(u64, u64)>,
        skipped_lines: u64,
    ) {
        self.skipped_lines = skipped_lines;
        if damaged.is_empty() {
            return;
        }
        for e in &mut self.episodes {
            if e.resolution == Resolution::Unresolved
                && (damaged.contains(&(e.holder, e.monitor))
                    || damaged.contains(&(e.requester, e.monitor)))
            {
                e.resolution = Resolution::Truncated;
            }
        }
    }

    /// Episode count per resolution, in [`Resolution::ALL`] order.
    pub fn resolution_counts(&self) -> [(Resolution, u64); 6] {
        Resolution::ALL
            .map(|r| (r, self.episodes.iter().filter(|e| e.resolution == r).count() as u64))
    }

    /// Count of episodes resolved by revocation (the paper's headline).
    pub fn revocation_episodes(&self) -> u64 {
        self.episodes.iter().filter(|e| e.resolution == Resolution::Revocation).count() as u64
    }
}

/// Render a monitor id through the name table: `"queue"` when named,
/// `#3` otherwise.
pub fn monitor_label(names: &BTreeMap<u64, String>, monitor: u64) -> String {
    Label::of(names, monitor).to_string()
}

/// [`monitor_label`] in place. A width pads it on the right, as `{:<w}`
/// pads the `String`.
struct Label<'a> {
    name: Option<&'a String>,
    monitor: u64,
}

impl<'a> Label<'a> {
    fn of(names: &'a BTreeMap<u64, String>, monitor: u64) -> Self {
        Label { name: names.get(&monitor), monitor }
    }
}

impl fmt::Display for Label<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let chars = match self.name {
            Some(n) => {
                write!(f, "\"{n}\"")?;
                n.chars().count() + 2
            }
            None => {
                write!(f, "#{}", self.monitor)?;
                self.monitor.checked_ilog10().map_or(1, |d| d as usize + 1) + 1
            }
        };
        for _ in chars..f.width().unwrap_or(0) {
            f.write_char(' ')?;
        }
        Ok(())
    }
}

/// A JSON number, or `null` for `None`.
struct NumOrNull(Option<u64>);

impl fmt::Display for NumOrNull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(n) => write!(f, "{n}"),
            None => f.write_str("null"),
        }
    }
}

/// A monitor's name as a JSON string, or `null` when it has none.
struct NameOrNull<'a>(Option<&'a String>);

impl fmt::Display for NameOrNull<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(n) => write!(f, "\"{}\"", Escaped(n)),
            None => f.write_str("null"),
        }
    }
}

/// Write the human-readable analysis report.
pub fn write_report<W: Write>(
    w: &mut W,
    a: &Analysis,
    names: &BTreeMap<u64, String>,
    unit: TsUnit,
) -> io::Result<()> {
    let u = unit.suffix();
    writeln!(w, "trace: {} events over {} {u}", a.events, a.last_ts)?;
    let census: Vec<String> = a.kind_counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    writeln!(w, "  {}", census.join(", "))?;
    if a.skipped_lines > 0 {
        writeln!(
            w,
            "  damage: {} skipped lines — unresolved verdicts on damaged pairs \
             reported as truncated",
            a.skipped_lines
        )?;
    }

    writeln!(w, "\ninversion episodes: {}", a.episodes.len())?;
    for (r, n) in a.resolution_counts() {
        if n > 0 {
            writeln!(w, "  {:<16} {n}", r.name())?;
        }
    }
    if a.inversion_latency.count() > 0 {
        writeln!(
            w,
            "  latency ({u}): mean {:.1}, p50 {}, p99 {}, max {}",
            a.inversion_latency.mean(),
            a.inversion_latency.percentile(50.0),
            a.inversion_latency.percentile(99.0),
            a.inversion_latency.max(),
        )?;
    }
    if a.delegation_queue_wait.count() > 0 {
        writeln!(
            w,
            "  delegated ({u}): queue-wait mean {:.1} p99 {}, exec mean {:.1} p99 {}",
            a.delegation_queue_wait.mean(),
            a.delegation_queue_wait.percentile(99.0),
            a.delegation_exec_time.mean(),
            a.delegation_exec_time.percentile(99.0),
        )?;
    }
    writeln!(
        w,
        "  wasted work: {} undo entries rolled back, {} {u} of discarded section time",
        a.wasted_entries, a.wasted_time
    )?;
    let worst_repeat = a.episodes.iter().map(|e| e.revoke_requests).max().unwrap_or(0);
    if worst_repeat > 1 {
        writeln!(w, "  livelock signal: an episode needed {worst_repeat} revoke requests")?;
    }
    if a.governor_throttles > 0 || a.policy_fallbacks > 0 {
        writeln!(
            w,
            "  governed: {} revocations throttled, {} fallback windows opened",
            a.governor_throttles, a.policy_fallbacks
        )?;
    }

    for e in &a.episodes {
        write!(w, "  [{:>8}..", e.start)?;
        match e.end {
            Some(t) => write!(w, "{t:>8}")?,
            None => write!(w, "{:>8}", "-")?,
        }
        write!(w, "] monitor {:<12} {:<16} ", Label::of(names, e.monitor), e.resolution.name())?;
        match e.requester {
            Event::NO_THREAD => w.write_all(b"?")?,
            r => write!(w, "t{r}")?,
        }
        write!(w, " vs t{}: latency ", e.holder)?;
        match e.latency() {
            Some(l) => write!(w, "{l} {u}")?,
            None => w.write_all(b"unresolved")?,
        }
        write!(
            w,
            ", {} rollbacks, {} undo entries, {} {u} wasted",
            e.rollbacks, e.wasted_entries, e.wasted_time
        )?;
        if e.governor_throttles > 0 || e.policy_fallbacks > 0 {
            write!(
                w,
                ", governed ({} throttled, {} fallbacks)",
                e.governor_throttles, e.policy_fallbacks
            )?;
        } else if e.resolution == Resolution::Delegated {
            write!(w, ", queue-wait {} {u}, exec {} {u}", e.queue_wait, e.exec_time)?;
        }
        writeln!(w)?;
    }

    writeln!(w, "\nper-monitor contention (by total blocking time):")?;
    writeln!(
        w,
        "  {:<14} {:>8} {:>8} {:>8} {:>9} {:>10} {:>10} {:>10}",
        "monitor", "acquires", "blocks", "revokes", "rollbacks", "blocked", "p99 block", "p99 held"
    )?;
    for p in &a.profiles {
        writeln!(
            w,
            "  {:<14} {:>8} {:>8} {:>8} {:>9} {:>10} {:>10} {:>10}",
            Label::of(names, p.monitor),
            p.acquires,
            p.blocks,
            p.revoke_requests,
            p.rollbacks,
            p.total_blocked,
            p.blocking.percentile(99.0),
            p.held.percentile(99.0),
        )?;
    }
    Ok(())
}

/// Render the analysis as one JSON document.
pub fn analysis_json(a: &Analysis, names: &BTreeMap<u64, String>, unit: TsUnit) -> String {
    let mut out = String::new();
    write_analysis_json(&mut out, a, names, unit).expect("writing to a String cannot fail");
    out
}

/// [`analysis_json`] written into `out`: every episode and monitor in
/// place, with no string of its own.
fn write_analysis_json(
    out: &mut String,
    a: &Analysis,
    names: &BTreeMap<u64, String>,
    unit: TsUnit,
) -> fmt::Result {
    out.push_str("{\n");
    writeln!(out, "  \"events\": {},", a.events)?;
    writeln!(out, "  \"ts_unit\": \"{}\",", unit.suffix())?;
    writeln!(out, "  \"span\": {},", a.last_ts)?;
    writeln!(out, "  \"skipped_lines\": {},", a.skipped_lines)?;

    out.push_str("  \"kinds\": {");
    for (i, (k, n)) in a.kind_counts.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(out, "{sep}\"{k}\": {n}")?;
    }
    out.push_str("},\n");

    out.push_str("  \"episode_summary\": {\n");
    writeln!(out, "    \"count\": {},", a.episodes.len())?;
    out.push_str("    \"resolutions\": {");
    for (i, (r, n)) in a.resolution_counts().iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(out, "{sep}\"{}\": {n}", r.name())?;
    }
    out.push_str("},\n");
    writeln!(
        out,
        "    \"latency\": {{\"count\": {}, \"mean\": {:.3}, \"p50\": {}, \"p99\": {}, \"max\": {}}},",
        a.inversion_latency.count(),
        a.inversion_latency.mean(),
        a.inversion_latency.percentile(50.0),
        a.inversion_latency.percentile(99.0),
        a.inversion_latency.max(),
    )?;
    writeln!(
        out,
        "    \"wasted_entries\": {},\n    \"wasted_time\": {},",
        a.wasted_entries, a.wasted_time
    )?;
    writeln!(
        out,
        "    \"governor_throttles\": {},\n    \"policy_fallbacks\": {},",
        a.governor_throttles, a.policy_fallbacks
    )?;
    writeln!(
        out,
        "    \"delegated\": {{\"count\": {}, \"queue_wait_mean\": {:.3}, \"queue_wait_p99\": {}, \
         \"exec_mean\": {:.3}, \"exec_p99\": {}}}\n  }},",
        a.delegation_queue_wait.count(),
        a.delegation_queue_wait.mean(),
        a.delegation_queue_wait.percentile(99.0),
        a.delegation_exec_time.mean(),
        a.delegation_exec_time.percentile(99.0),
    )?;

    out.push_str("  \"episodes\": [\n");
    for (i, e) in a.episodes.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let requester = (e.requester != Event::NO_THREAD).then_some(e.requester);
        write!(
            out,
            "    {{\"monitor\": {}, \"monitor_name\": {}, \"holder\": {}, \
             \"requester\": {}, \"start\": {}, \"end\": {}, \
             \"resolution\": \"{}\", \"latency\": {}, \"rollbacks\": {}, \
             \"wasted_entries\": {}, \"wasted_time\": {}, \"revoke_requests\": {}, \
             \"governor_throttles\": {}, \"policy_fallbacks\": {}, \
             \"queue_wait\": {}, \"exec_time\": {}}}",
            e.monitor,
            NameOrNull(names.get(&e.monitor)),
            e.holder,
            NumOrNull(requester),
            e.start,
            NumOrNull(e.end),
            e.resolution.name(),
            NumOrNull(e.latency()),
            e.rollbacks,
            e.wasted_entries,
            e.wasted_time,
            e.revoke_requests,
            e.governor_throttles,
            e.policy_fallbacks,
            e.queue_wait,
            e.exec_time,
        )?;
    }
    out.push_str("\n  ],\n");

    out.push_str("  \"monitors\": [\n");
    for (i, p) in a.profiles.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write!(
            out,
            "    {{\"monitor\": {}, \"name\": {}, \"acquires\": {}, \"blocks\": {}, \
             \"revoke_requests\": {}, \"rollbacks\": {}, \"commits\": {}, \
             \"unresolved\": {}, \"wasted_entries\": {}, \"total_blocked\": {}, \
             \"blocking_p50\": {}, \"blocking_p99\": {}, \"held_p50\": {}, \"held_p99\": {}}}",
            p.monitor,
            NameOrNull(names.get(&p.monitor)),
            p.acquires,
            p.blocks,
            p.revoke_requests,
            p.rollbacks,
            p.commits,
            p.unresolved,
            p.wasted_entries,
            p.total_blocked,
            p.blocking.percentile(50.0),
            p.blocking.percentile(99.0),
            p.held.percentile(50.0),
            p.held.percentile(99.0),
        )?;
    }
    out.push_str("\n  ]\n}\n");
    Ok(())
}

/// Escape a Prometheus label value (backslash, quote, newline).
fn prom_esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn prom_monitor_label(names: &BTreeMap<u64, String>, monitor: u64) -> String {
    match names.get(&monitor) {
        Some(n) => prom_esc(n),
        None => format!("monitor-{monitor}"),
    }
}

/// Write the analysis in Prometheus text exposition format: episode and
/// wasted-work counters, inversion-latency quantiles, and per-monitor
/// contention series. Clock units ride in the metric names via the
/// unit's suffix (`ticks` / `ns`).
pub fn write_prometheus<W: Write>(
    w: &mut W,
    a: &Analysis,
    names: &BTreeMap<u64, String>,
    unit: TsUnit,
) -> io::Result<()> {
    let u = unit.suffix();
    writeln!(w, "# HELP revmon_events_total Events analyzed, by kind.")?;
    writeln!(w, "# TYPE revmon_events_total counter")?;
    for (k, n) in &a.kind_counts {
        writeln!(w, "revmon_events_total{{kind=\"{k}\"}} {n}")?;
    }

    writeln!(w, "# HELP revmon_episodes_total Priority-inversion episodes, by resolution.")?;
    writeln!(w, "# TYPE revmon_episodes_total counter")?;
    for (r, n) in a.resolution_counts() {
        writeln!(w, "revmon_episodes_total{{resolution=\"{}\"}} {n}", r.name())?;
    }

    writeln!(w, "# HELP revmon_inversion_latency_{u} Inversion latency of resolved episodes.")?;
    writeln!(w, "# TYPE revmon_inversion_latency_{u} summary")?;
    for (q, p) in [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0)] {
        writeln!(
            w,
            "revmon_inversion_latency_{u}{{quantile=\"{q}\"}} {}",
            a.inversion_latency.percentile(p)
        )?;
    }
    writeln!(
        w,
        "revmon_inversion_latency_{u}_sum {}",
        (a.inversion_latency.mean() * a.inversion_latency.count() as f64).round() as u64
    )?;
    writeln!(w, "revmon_inversion_latency_{u}_count {}", a.inversion_latency.count())?;

    writeln!(w, "# HELP revmon_governor_throttles_total Revocations denied by the governor.")?;
    writeln!(w, "# TYPE revmon_governor_throttles_total counter")?;
    writeln!(w, "revmon_governor_throttles_total {}", a.governor_throttles)?;
    writeln!(w, "# HELP revmon_policy_fallbacks_total Fallback-to-blocking windows opened.")?;
    writeln!(w, "# TYPE revmon_policy_fallbacks_total counter")?;
    writeln!(w, "revmon_policy_fallbacks_total {}", a.policy_fallbacks)?;
    writeln!(
        w,
        "# HELP revmon_delegation_queue_wait_{u} Combiner queue wait of delegated episodes."
    )?;
    writeln!(w, "# TYPE revmon_delegation_queue_wait_{u} summary")?;
    for (q, p) in [("0.5", 50.0), ("0.99", 99.0)] {
        writeln!(
            w,
            "revmon_delegation_queue_wait_{u}{{quantile=\"{q}\"}} {}",
            a.delegation_queue_wait.percentile(p)
        )?;
    }
    writeln!(w, "revmon_delegation_queue_wait_{u}_count {}", a.delegation_queue_wait.count())?;
    writeln!(w, "# HELP revmon_trace_skipped_lines_total Damaged trace lines skipped on import.")?;
    writeln!(w, "# TYPE revmon_trace_skipped_lines_total counter")?;
    writeln!(w, "revmon_trace_skipped_lines_total {}", a.skipped_lines)?;

    writeln!(w, "# HELP revmon_wasted_undo_entries_total Undo entries rolled back.")?;
    writeln!(w, "# TYPE revmon_wasted_undo_entries_total counter")?;
    writeln!(w, "revmon_wasted_undo_entries_total {}", a.wasted_entries)?;
    writeln!(w, "# HELP revmon_wasted_section_{u}_total Discarded section time.")?;
    writeln!(w, "# TYPE revmon_wasted_section_{u}_total counter")?;
    writeln!(w, "revmon_wasted_section_{u}_total {}", a.wasted_time)?;

    writeln!(w, "# HELP revmon_monitor_acquires_total Acquisitions per monitor.")?;
    writeln!(w, "# TYPE revmon_monitor_acquires_total counter")?;
    for p in &a.profiles {
        let m = prom_monitor_label(names, p.monitor);
        writeln!(w, "revmon_monitor_acquires_total{{monitor=\"{m}\"}} {}", p.acquires)?;
    }
    writeln!(w, "# HELP revmon_monitor_blocked_{u}_total Entry-queue blocking time per monitor.")?;
    writeln!(w, "# TYPE revmon_monitor_blocked_{u}_total counter")?;
    for p in &a.profiles {
        let m = prom_monitor_label(names, p.monitor);
        writeln!(w, "revmon_monitor_blocked_{u}_total{{monitor=\"{m}\"}} {}", p.total_blocked)?;
    }
    writeln!(w, "# HELP revmon_monitor_rollbacks_total Rollbacks per monitor.")?;
    writeln!(w, "# TYPE revmon_monitor_rollbacks_total counter")?;
    for p in &a.profiles {
        let m = prom_monitor_label(names, p.monitor);
        writeln!(w, "revmon_monitor_rollbacks_total{{monitor=\"{m}\"}} {}", p.rollbacks)?;
    }
    writeln!(w, "# HELP revmon_monitor_blocking_{u} Blocking-time quantiles per monitor.")?;
    writeln!(w, "# TYPE revmon_monitor_blocking_{u} summary")?;
    for p in &a.profiles {
        let m = prom_monitor_label(names, p.monitor);
        for (q, pct) in [("0.5", 50.0), ("0.99", 99.0)] {
            writeln!(
                w,
                "revmon_monitor_blocking_{u}{{monitor=\"{m}\",quantile=\"{q}\"}} {}",
                p.blocking.percentile(pct)
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, thread: u64, monitor: u64, kind: EventKind) -> Event {
        Event { ts, thread, monitor, core: 0, kind }
    }

    fn inversion_scenario() -> Vec<Event> {
        vec![
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
            ev(30, 1, 7, EventKind::Rollback { entries: 4, duration: 6 }),
            ev(31, 2, 7, EventKind::Acquire),
            ev(40, 2, 7, EventKind::Commit),
            ev(40, 2, 7, EventKind::Release),
        ]
    }

    fn named() -> BTreeMap<u64, String> {
        let mut names = BTreeMap::new();
        names.insert(7, "queue".to_string());
        names
    }

    #[test]
    fn analysis_profiles_and_episodes_agree() {
        let a = Analysis::from_events(&inversion_scenario());
        assert_eq!(a.events, 7);
        assert_eq!(a.episodes.len(), 1);
        assert_eq!(a.revocation_episodes(), 1);
        assert_eq!(a.profiles.len(), 1);
        let p = &a.profiles[0];
        assert_eq!(p.monitor, 7);
        assert_eq!(p.acquires, 2);
        assert_eq!(p.blocks, 1);
        assert_eq!(p.rollbacks, 1);
        assert_eq!(p.wasted_entries, 4);
        assert_eq!(p.total_blocked, 11);
        assert_eq!(p.held.count(), 1); // requester's section; holder's rolled back
        assert_eq!(a.wasted_entries, 4);
    }

    #[test]
    fn exact_stats_are_exact() {
        let s: ExactStats = [5u64, 1, 9, 3].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert_eq!(s.percentile(50.0), 3);
        assert_eq!(s.percentile(99.0), 9);
        assert_eq!(s.max(), 9);
        assert!((s.mean() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn exact_stats_do_not_depend_on_arrival_order() {
        // 1..=1000 with every multiple of ten twice, arriving scrambled
        // (389 is coprime to 1100).
        let sorted: Vec<u64> =
            (1..=1000u64).flat_map(|v| [v].repeat(1 + (v % 10 == 0) as usize)).collect();
        let shuffled: ExactStats =
            (0..sorted.len()).map(|i| sorted[i * 389 % sorted.len()]).collect();
        assert_eq!(shuffled, sorted.iter().copied().collect());
        assert_eq!(shuffled.count(), 1100);
        assert_eq!(shuffled.percentile(50.0), sorted[549]);
        assert_eq!(shuffled.percentile(99.0), sorted[1088]);
        assert_eq!(shuffled.max(), 1000);
        assert!((shuffled.mean() - 551_000.0 / 1100.0).abs() < 1e-9);
    }

    #[test]
    fn text_report_uses_monitor_names() {
        let a = Analysis::from_events(&inversion_scenario());
        let mut buf = Vec::new();
        write_report(&mut buf, &a, &named(), TsUnit::VirtualTicks).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("monitor \"queue\""), "names missing in:\n{text}");
        assert!(text.contains("revocation"), "resolution missing in:\n{text}");
        assert!(text.contains("4 undo entries"), "wasted work missing in:\n{text}");
        assert!(!text.contains("#7"), "named monitor leaked its id:\n{text}");
    }

    #[test]
    fn labels_pad_as_their_strings_do() {
        let mut names = named();
        names.insert(9, "naïve/путь".into());
        names.insert(10, "a name longer than any column".into());
        for m in [0, 7, 9, 10, 11, 12_345, u64::MAX] {
            let label = monitor_label(&names, m);
            for width in [0, 12, 14] {
                let padded = format!("{:<width$}|", Label::of(&names, m));
                assert_eq!(padded, format!("{label:<width$}|"), "monitor {m}");
            }
        }
    }

    #[test]
    fn json_report_is_balanced_and_complete() {
        let a = Analysis::from_events(&inversion_scenario());
        let json = analysis_json(&a, &named(), TsUnit::VirtualTicks);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"resolutions\": {\"revocation\": 1"));
        assert!(json.contains("\"monitor_name\": \"queue\""));
        assert!(json.contains("\"wasted_entries\": 4"));
        // The whole document re-parses line-by-line with the importer's
        // scanner? Not flat JSON — just sanity-check key fields instead.
        assert!(json.contains("\"latency\": 11"));
    }

    #[test]
    fn governed_scenario_surfaces_in_every_renderer() {
        let events = vec![
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
            ev(30, 1, 7, EventKind::Rollback { entries: 4, duration: 6 }),
            ev(32, 1, 7, EventKind::Acquire),
            ev(34, 1, 7, EventKind::GovernorThrottle { by: 2 }),
            ev(34, 1, 7, EventKind::PolicyFallback),
            ev(40, 1, 7, EventKind::Commit),
            ev(40, 1, 7, EventKind::Release),
            ev(41, 2, 7, EventKind::Acquire),
            ev(50, 2, 7, EventKind::Commit),
            ev(50, 2, 7, EventKind::Release),
        ];
        let a = Analysis::from_events(&events);
        assert_eq!(a.governor_throttles, 1);
        assert_eq!(a.policy_fallbacks, 1);
        assert_eq!(a.profiles[0].governor_throttles, 1);
        assert_eq!(a.profiles[0].policy_fallbacks, 1);

        let mut buf = Vec::new();
        write_report(&mut buf, &a, &named(), TsUnit::VirtualTicks).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("governed: 1 revocations throttled, 1 fallback windows"), "{text}");
        assert!(text.contains("governed (1 throttled, 1 fallbacks)"), "{text}");

        let json = analysis_json(&a, &named(), TsUnit::VirtualTicks);
        assert!(json.contains("\"governor_throttles\": 1"), "{json}");
        assert!(json.contains("\"policy_fallbacks\": 1"), "{json}");

        let mut buf = Vec::new();
        write_prometheus(&mut buf, &a, &named(), TsUnit::VirtualTicks).unwrap();
        let prom = String::from_utf8(buf).unwrap();
        assert!(prom.contains("revmon_governor_throttles_total 1"), "{prom}");
        assert!(prom.contains("revmon_policy_fallbacks_total 1"), "{prom}");
    }

    #[test]
    fn hostile_numbers_saturate_the_sums() {
        // ROADMAP item 10's reproducer: two rollbacks in one episode
        // whose sizes add up past `u64`. A release build used to report
        // "1 undo entries", a debug build died in `episode.rs`.
        let max = u64::MAX;
        let text = format!(
            concat!(
                "{{\"meta\":\"trace\",\"ts_unit\":\"ticks\",\"version\":1}}\n",
                "{{\"ts\":10,\"thread\":1,\"monitor\":3,\"kind\":\"Acquire\"}}\n",
                "{{\"ts\":20,\"thread\":2,\"monitor\":3,\"kind\":\"Block\"}}\n",
                "{{\"ts\":22,\"thread\":1,\"monitor\":3,\"kind\":\"RevokeRequest\",\"by\":2}}\n",
                "{{\"ts\":30,\"thread\":1,\"monitor\":3,\"kind\":\"Rollback\",\"entries\":{},\"duration\":6}}\n",
                "{{\"ts\":31,\"thread\":1,\"monitor\":3,\"kind\":\"Acquire\"}}\n",
                "{{\"ts\":35,\"thread\":1,\"monitor\":3,\"kind\":\"Rollback\",\"entries\":2,\"duration\":3}}\n",
                "{{\"ts\":36,\"thread\":2,\"monitor\":3,\"kind\":\"Acquire\"}}\n",
                "{{\"ts\":40,\"thread\":2,\"monitor\":3,\"kind\":\"Release\"}}\n",
            ),
            max
        );
        let imp = crate::import_trace_jsonl(&text);
        assert_eq!((imp.events.len(), imp.warnings.total()), (8, 0));
        let mut events = imp.events;
        // Then the same on two more monitors at once, so that the totals
        // over episodes overflow too, with sections and waits that each
        // last nearly all of time.
        for (monitor, holder) in [(5, 10), (7, 20)] {
            events.extend([
                ev(41, holder, monitor, EventKind::Acquire),
                ev(42, holder + 1, monitor, EventKind::Block),
                ev(43, holder + 2, monitor, EventKind::Block),
                ev(44, holder, monitor, EventKind::RevokeRequest { by: holder + 1 }),
            ]);
        }
        for (monitor, holder) in [(5, 10), (7, 20)] {
            events.extend([
                ev(max - 1, holder, monitor, EventKind::Rollback { entries: max, duration: 1 }),
                ev(max - 1, holder + 1, monitor, EventKind::Acquire),
                ev(max - 1, holder + 1, monitor, EventKind::Release),
                ev(max, holder + 2, monitor, EventKind::Acquire),
            ]);
        }

        let a = Analysis::from_events(&events);
        assert_eq!(a.episodes.len(), 3);
        assert_eq!(a.episodes[0].wasted_entries, max, "two rollbacks of one episode");
        assert_eq!(a.wasted_entries, max, "the total over episodes");
        assert_eq!(a.wasted_time, max, "two discarded sections of nearly all of time");
        let profile = |m| a.profiles.iter().find(|p| p.monitor == m).expect("profiled");
        assert_eq!(profile(3).wasted_entries, max);
        assert_eq!(profile(5).total_blocked, max, "two waits of nearly all of time");

        let names = BTreeMap::new();
        let mut report = Vec::new();
        write_report(&mut report, &a, &names, TsUnit::VirtualTicks).unwrap();
        let report = String::from_utf8(report).unwrap();
        assert!(
            report.contains(&format!("wasted work: {max} undo entries rolled back")),
            "{report}"
        );
        let json = analysis_json(&a, &names, TsUnit::VirtualTicks);
        assert!(json.contains(&format!("\"wasted_entries\": {max}")), "{json}");
        let mut prom = Vec::new();
        write_prometheus(&mut prom, &a, &names, TsUnit::VirtualTicks).unwrap();
        let prom = String::from_utf8(prom).unwrap();
        assert!(prom.contains(&format!("revmon_wasted_undo_entries_total {max}")), "{prom}");
        assert!(!crate::FoldedStacks::from_episodes(&a.episodes, &names).folded().is_empty());
    }

    #[test]
    fn damaged_pairs_reclassify_unresolved_as_truncated() {
        // Holder t1's resolving events fell on skipped lines: the
        // episode never closes, which without damage info would read as
        // an unresolvable inversion.
        let events = vec![
            ev(10, 1, 7, EventKind::Acquire),
            ev(20, 2, 7, EventKind::Block),
            ev(22, 1, 7, EventKind::RevokeRequest { by: 2 }),
        ];
        let mut a = Analysis::from_events(&events);
        assert_eq!(a.episodes[0].resolution, Resolution::Unresolved);

        // Damage on an unrelated pair must not reclassify anything.
        let unrelated = [(9u64, 9u64)].into_iter().collect();
        a.mark_truncated(&unrelated, 3);
        assert_eq!(a.episodes[0].resolution, Resolution::Unresolved);
        assert_eq!(a.skipped_lines, 3);

        let damaged = [(1u64, 7u64)].into_iter().collect();
        a.mark_truncated(&damaged, 3);
        assert_eq!(a.episodes[0].resolution, Resolution::Truncated);
        let truncated =
            a.resolution_counts().iter().find(|(r, _)| *r == Resolution::Truncated).unwrap().1;
        assert_eq!(truncated, 1);

        let mut buf = Vec::new();
        write_report(&mut buf, &a, &named(), TsUnit::VirtualTicks).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("damage: 3 skipped lines"), "{text}");
        assert!(text.contains("truncated"), "{text}");

        let json = analysis_json(&a, &named(), TsUnit::VirtualTicks);
        assert!(json.contains("\"skipped_lines\": 3"), "{json}");
        assert!(json.contains("\"resolution\": \"truncated\""), "{json}");
    }

    #[test]
    fn prometheus_output_is_well_formed() {
        let a = Analysis::from_events(&inversion_scenario());
        let mut buf = Vec::new();
        write_prometheus(&mut buf, &a, &named(), TsUnit::VirtualTicks).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("revmon_episodes_total{resolution=\"revocation\"} 1"));
        assert!(text.contains("revmon_inversion_latency_ticks{quantile=\"0.99\"} 11"));
        assert!(text.contains("revmon_monitor_acquires_total{monitor=\"queue\"} 2"));
        assert!(text.contains("revmon_wasted_undo_entries_total 4"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad sample line: {line}");
        }
    }
}
