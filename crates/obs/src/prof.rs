//! Slow-path phase timers: where does revocation time actually go?
//!
//! The revocation slow path is a pipeline of distinct phases — inflate
//! the lock, signal the victim, walk the undo log, restore the saved
//! state, hand the monitor to the next waiter, deflate — and a latency
//! regression in the round-trip number says nothing about *which* phase
//! ate the time. [`PhaseTimers`] gives each [`Phase`] its own HDR
//! [`Histogram`] so both runtimes can attribute slow-path nanoseconds
//! phase-by-phase, cheaply enough to leave on in production:
//!
//! * recording is the histogram's wait-free path (a few relaxed atomic
//!   adds) plus one `Instant` pair per phase — and only on the *slow*
//!   path; the thin-lock fast paths never touch this module;
//! * when disabled, an instrumentation site costs one relaxed atomic
//!   load (`PhaseTimers::enabled`) and a branch;
//! * the process-global [`timers()`] instance is **on by default** —
//!   the CI self-overhead gate (`cargo bench -p revmon-bench --bench
//!   obs -- --check`) holds the enabled/disabled ratio on the fast-path
//!   rows under 1.10×.
//!
//! Both runtimes record **wall-clock nanoseconds** here, including the
//! deterministic VM: phase timers measure the *host's* cost of running
//! the revocation machinery (the quantity the hot-path benches track),
//! not the simulated virtual-tick cost, which already flows through the
//! event stream's `Rollback { duration }`.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::hist::Histogram;

/// One phase of the revocation slow path. The set is shared by both
/// runtimes; a runtime that has no work for a phase simply never
/// records it (e.g. the VM's monitors have no thin/fat word, so
/// `Inflate`/`Deflate` stay empty there).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Thin→fat lock-word transition (locks runtime).
    Inflate,
    /// Detecting the inversion and flagging/unparking the victim.
    SignalVictim,
    /// Walking the undo log newest-first and restoring old values.
    UndoWalk,
    /// Reinstating saved control state (locals, stack, resume pc) so
    /// the section re-executes from its entry.
    Restore,
    /// Releasing the victim's monitors and granting the next waiter.
    Requeue,
    /// Fat→thin lock-word transition after the queues drain.
    Deflate,
    /// Executing one delegated section on the combiner. No runtime
    /// records it — the VM does not time its combiner — but
    /// `benchmark/src/phases.rs` names it.
    CombinerExec,
}

impl Phase {
    /// Every phase, in slow-path order.
    pub const ALL: [Phase; 7] = [
        Phase::Inflate,
        Phase::SignalVictim,
        Phase::UndoWalk,
        Phase::Restore,
        Phase::Requeue,
        Phase::Deflate,
        Phase::CombinerExec,
    ];

    /// Stable lowercase name (used in reports, JSON, folded stacks and
    /// Prometheus labels).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Phase::Inflate => "inflate",
            Phase::SignalVictim => "signal-victim",
            Phase::UndoWalk => "undo-walk",
            Phase::Restore => "restore",
            Phase::Requeue => "requeue",
            Phase::Deflate => "deflate",
            Phase::CombinerExec => "combiner-exec",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Inflate => 0,
            Phase::SignalVictim => 1,
            Phase::UndoWalk => 2,
            Phase::Restore => 3,
            Phase::Requeue => 4,
            Phase::Deflate => 5,
            Phase::CombinerExec => 6,
        }
    }
}

/// Per-phase latency histograms with a global on/off switch.
///
/// All storage is inline and fixed-size; recording never allocates and
/// never blocks. See the module docs for the cost model.
pub struct PhaseTimers {
    enabled: AtomicBool,
    hists: [Histogram; Phase::ALL.len()],
}

impl Default for PhaseTimers {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseTimers {
    /// Fresh, **enabled** timer set (profiling is designed to be always
    /// on; disable explicitly to measure its own overhead).
    pub fn new() -> Self {
        PhaseTimers {
            enabled: AtomicBool::new(true),
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Whether recording is on. One relaxed load — the whole cost of a
    /// disabled instrumentation site.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off (the self-overhead bench toggles this).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record `ns` nanoseconds spent in `phase`. No-op while disabled.
    #[inline]
    pub fn record(&self, phase: Phase, ns: u64) {
        if self.enabled() {
            self.hists[phase.index()].record(ns);
        }
    }

    /// Start a span for `phase`: returns the start instant when
    /// recording is enabled, `None` (zero further cost) otherwise.
    /// Close it with [`finish`](Self::finish).
    #[inline]
    pub fn start(&self, phase: Phase) -> Option<Instant> {
        let _ = phase;
        self.enabled().then(Instant::now)
    }

    /// Close a span opened by [`start`](Self::start).
    #[inline]
    pub fn finish(&self, phase: Phase, started: Option<Instant>) {
        if let Some(t0) = started {
            self.hists[phase.index()].record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// The histogram behind `phase` (export/analysis access).
    pub fn hist(&self, phase: Phase) -> &Histogram {
        &self.hists[phase.index()]
    }

    /// Write the per-phase latency table (the `--stats` rendering).
    /// Phases that never fired are listed with a zero count so the
    /// table shape is stable across runs.
    pub fn write_table<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(
            w,
            "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "phase (ns)", "count", "mean", "p50", "p90", "p99", "max"
        )?;
        for &p in &Phase::ALL {
            let h = self.hist(p);
            writeln!(
                w,
                "{:<16} {:>8} {:>10.1} {:>10} {:>10} {:>10} {:>12}",
                p.name(),
                h.count(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
                h.max(),
            )?;
        }
        Ok(())
    }

    /// The per-phase stats as one JSON object (embedded in metrics-JSON
    /// under `"revocation_phases_ns"`).
    pub(crate) fn json(&self) -> String {
        let mut out = String::from("{");
        let fields: Vec<String> = Phase::ALL
            .iter()
            .map(|&p| {
                let h = self.hist(p);
                format!(
                    "\"{}\": {{\"count\": {}, \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \
                     \"p99\": {}, \"max\": {}}}",
                    p.name(),
                    h.count(),
                    h.mean(),
                    h.percentile(50.0),
                    h.percentile(90.0),
                    h.percentile(99.0),
                    h.max(),
                )
            })
            .collect();
        out.push_str(&fields.join(", "));
        out.push('}');
        out
    }

    /// Write the per-phase stats in Prometheus text exposition format
    /// (`revmon_revocation_phase_ns{phase=…,quantile=…}` summaries).
    pub fn write_prometheus<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "# HELP revmon_revocation_phase_ns Revocation slow-path phase latency.")?;
        writeln!(w, "# TYPE revmon_revocation_phase_ns summary")?;
        for &p in &Phase::ALL {
            let h = self.hist(p);
            for (q, pct) in [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0)] {
                writeln!(
                    w,
                    "revmon_revocation_phase_ns{{phase=\"{}\",quantile=\"{q}\"}} {}",
                    p.name(),
                    h.percentile(pct)
                )?;
            }
            writeln!(
                w,
                "revmon_revocation_phase_ns_sum{{phase=\"{}\"}} {}",
                p.name(),
                (h.mean() * h.count() as f64).round() as u64
            )?;
            writeln!(
                w,
                "revmon_revocation_phase_ns_count{{phase=\"{}\"}} {}",
                p.name(),
                h.count()
            )?;
        }
        Ok(())
    }
}

/// The process-global phase-timer set both runtimes record into.
/// Created enabled on first use.
pub fn timers() -> &'static PhaseTimers {
    static TIMERS: OnceLock<PhaseTimers> = OnceLock::new();
    TIMERS.get_or_init(PhaseTimers::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_record_independently() {
        let t = PhaseTimers::new();
        t.record(Phase::UndoWalk, 100);
        t.record(Phase::UndoWalk, 300);
        t.record(Phase::Requeue, 7);
        assert_eq!(t.hist(Phase::UndoWalk).count(), 2);
        assert_eq!(t.hist(Phase::Requeue).count(), 1);
        assert_eq!(t.hist(Phase::Inflate).count(), 0);
        let total: u64 = Phase::ALL.iter().map(|&p| t.hist(p).count()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn disabled_timers_drop_records() {
        let t = PhaseTimers::new();
        t.set_enabled(false);
        assert!(!t.enabled());
        t.record(Phase::Restore, 50);
        assert!(t.start(Phase::Restore).is_none());
        t.finish(Phase::Restore, None);
        assert_eq!(t.hist(Phase::Restore).count(), 0);
        t.set_enabled(true);
        t.record(Phase::Restore, 50);
        assert_eq!(t.hist(Phase::Restore).count(), 1);
    }

    #[test]
    fn start_finish_records_elapsed() {
        let t = PhaseTimers::new();
        let span = t.start(Phase::SignalVictim);
        assert!(span.is_some());
        t.finish(Phase::SignalVictim, span);
        assert_eq!(t.hist(Phase::SignalVictim).count(), 1);
    }

    #[test]
    fn table_lists_every_phase() {
        let t = PhaseTimers::new();
        t.record(Phase::UndoWalk, 1000);
        let mut buf = Vec::new();
        t.write_table(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for &p in &Phase::ALL {
            assert!(text.contains(p.name()), "missing {} in:\n{text}", p.name());
        }
    }

    #[test]
    fn json_and_prometheus_are_well_formed() {
        let t = PhaseTimers::new();
        t.record(Phase::Inflate, 42);
        let json = t.json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"inflate\": {\"count\": 1"));

        let mut buf = Vec::new();
        t.write_prometheus(&mut buf).unwrap();
        let prom = String::from_utf8(buf).unwrap();
        assert!(prom.contains("revmon_revocation_phase_ns{phase=\"inflate\",quantile=\"0.5\"} 42"));
        assert!(prom.contains("revmon_revocation_phase_ns_count{phase=\"inflate\"} 1"));
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad sample line: {line}");
        }
    }
}
