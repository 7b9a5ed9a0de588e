//! `trace_pipeline` — `revmon analyze` on a large trace plus the write
//! side of telemetry, in one loop.
//!
//! Set-up generates the trace: one short-section run of the paper's
//! microbenchmark on the VM with an `EventSink` attached (nothing may be
//! dropped). A timed *pass* then replays those events through
//! `EventSink::record` → `drain` → `write_trace_jsonl` →
//! `import_trace_jsonl` → `Analysis::from_events` → `write_report` +
//! `analysis_json` + `FoldedStacks::from_episodes(..).folded()` +
//! `write_chrome_trace`, all in memory. A faster importer that costs
//! the exporter (or the reverse: the "one JSON reader/writer"
//! simplification) shows here. The VM's interpreter and `locks` do
//! nothing in the timed region.
//!
//! * `latency_us` — one full pass: the nine stages, each at its steady
//!   calibrated time over the run's passes (`stats::steady`), summed.
//! * `work_per_s` — events through the whole pass per second (the
//!   issue's `pipeline_events_per_s`): the same reading the other way
//!   up, not a second measurement.
//!
//! An operation is a pass. Its checks: the drained and the imported
//! events equal the generated ones, the import raises no warning, the
//! sink dropped nothing, and the analysis finds exactly as many
//! revocation episodes as the generating run performed rollbacks.

use super::{Ctx, Outcome, PassTimes, Row, Workload};
use crate::host::{mix, Calibrator};
use crate::stats;
use crate::trace::{Tracer, HARNESS};
use revmon_bench::{run_cell_sink, BenchParams};
use revmon_obs::{
    analysis_json, import_trace_jsonl, write_chrome_trace, write_report, write_trace_jsonl,
    Analysis, Event, EventSink, FoldedStacks, TsUnit,
};
use revmon_vm::VmConfig;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The generating cell: 2 high- and 8 low-priority threads, sections of
/// 20 / 100 operations (a hundredth of the Figure-5 cell's), so events
/// per simulated instruction are as dense as the VM can make them.
/// [`SECTIONS`] per thread sets the trace size.
fn generator(seed: u64) -> BenchParams {
    BenchParams {
        high_threads: 2,
        low_threads: 8,
        high_iters: 20,
        low_iters: 100,
        sections: SECTIONS,
        write_pct: 50,
        modified: true,
        seed,
        quantum: 1_200,
    }
}

/// Sections per generator thread: ≈ 228 k events and ≈ 5.7 k revocation
/// episodes, a 13 MB JSONL trace — larger than this host's L2, small
/// enough that a 20-second run sees ≈ 80 passes.
pub const SECTIONS: i64 = 5_000;

/// Ring capacity for one producer thread holding the whole trace.
const RING_CAP: usize = 1 << 19;

/// The nine timed stages, in order.
pub const STAGES: [&str; 9] = [
    "record",
    "drain",
    "export_jsonl",
    "import",
    "analysis",
    "report",
    "analysis_json",
    "flame",
    "export_chrome",
];

/// Generated trace.
pub struct Input {
    events: Vec<Event>,
    names: BTreeMap<u64, String>,
    /// Rollbacks the generating run performed.
    rollbacks: u64,
    /// Events the generating sink dropped (must be 0).
    dropped: u64,
}

/// What one pass produced, for the checks and the byte rates.
struct Pass {
    /// Start and wall ns of each stage.
    stages: Vec<(Instant, f64)>,
    drained_ok: bool,
    imported_ok: bool,
    warnings: u64,
    dropped: u64,
    revocation_episodes: u64,
    jsonl_bytes: usize,
    chrome_bytes: usize,
}

/// What the stages of one pass share.
struct Stages<'a> {
    t: &'a mut Tracer,
    calib: &'a mut Calibrator,
    iter: u64,
    events: u64,
    done: Vec<(Instant, f64)>,
}

impl Stages<'_> {
    /// Run the next stage (named by how many have run) inside a span and
    /// record its wall time; a calibration sample first, if one is due.
    fn timed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let name = STAGES[self.done.len()];
        self.calib.tick();
        let events = self.events;
        let t0 = Instant::now();
        let r = self.t.span(name, "obs", self.iter, |t| {
            let r = f();
            t.count("events", events);
            r
        });
        self.done.push((t0, t0.elapsed().as_nanos() as f64));
        r
    }
}

fn one_pass(input: &Input, t: &mut Tracer, calib: &mut Calibrator, iter: u64) -> Pass {
    let unit = TsUnit::VirtualTicks;
    let events = input.events.len() as u64;
    let mut s = Stages { t, calib, iter, events, done: Vec::with_capacity(STAGES.len()) };

    let sink = EventSink::with_capacity(unit, RING_CAP);
    s.timed(|| {
        for ev in &input.events {
            sink.record(*ev);
        }
    });
    let drained = s.timed(|| sink.drain());
    let jsonl = s.timed(|| {
        let mut buf = Vec::new();
        write_trace_jsonl(&mut buf, &drained, unit, &input.names).expect("write to memory");
        buf
    });
    // Each buffer is checked and dropped as soon as the next stage has
    // consumed it, as `revmon analyze` would, so the pass's peak memory
    // is two adjacent stages' data, not all nine.
    let drained_ok = drained == input.events;
    drop(drained);
    let text = String::from_utf8(jsonl).expect("the exporter writes UTF-8");
    let imported = s.timed(|| import_trace_jsonl(&text));
    let jsonl_bytes = text.len();
    drop(text);
    let analysis = s.timed(|| Analysis::from_events(&imported.events));
    s.timed(|| {
        let mut buf = Vec::new();
        write_report(&mut buf, &analysis, &imported.names, unit).expect("write to memory");
        std::hint::black_box(buf);
    });
    s.timed(|| {
        std::hint::black_box(analysis_json(&analysis, &imported.names, unit));
    });
    s.timed(|| {
        std::hint::black_box(
            FoldedStacks::from_episodes(&analysis.episodes, &imported.names).folded(),
        );
    });
    let chrome = s.timed(|| {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &imported.events, unit).expect("write to memory");
        buf
    });

    Pass {
        stages: s.done,
        drained_ok,
        imported_ok: imported.events == input.events,
        warnings: imported.warnings.total(),
        dropped: sink.dropped(),
        revocation_episodes: analysis.revocation_episodes(),
        jsonl_bytes,
        chrome_bytes: chrome.len(),
    }
}

/// The workload.
pub struct TracePipeline;

impl Workload for TracePipeline {
    const NAME: &'static str = "trace_pipeline";
    const SETUP_REPS: usize = 5;
    type Input = Input;

    fn setup(seed: u64) -> Input {
        let sink = Arc::new(EventSink::with_capacity(TsUnit::VirtualTicks, RING_CAP));
        let cell =
            run_cell_sink(&generator(mix(seed, 9)), VmConfig::modified(), Some(Arc::clone(&sink)));
        let events = sink.drain();
        let names = BTreeMap::from([(0u64, "lock".to_string())]);
        Input { events, names, rollbacks: cell.metrics.rollbacks, dropped: sink.dropped() }
    }

    fn run(input: &mut Input, ctx: &mut Ctx) -> Outcome {
        let mut out = Outcome::default();
        let n_events = input.events.len();
        if input.dropped != 0 || n_events == 0 {
            out.attempted += 1;
            out.fail(format!("set-up: {n_events} events generated, {} dropped", input.dropped));
        }
        let mut times = PassTimes::new(STAGES.len());
        let mut bytes = (0, 0);
        let mut drop_ratio = 0.0;
        let mut pass = 0u64;
        // Whole passes until the window closes; a traced run needs one
        // pass on either side of the alternation.
        while pass <= u64::from(ctx.alternate) || !ctx.expired() {
            ctx.between_passes();
            let traced = ctx.begin_op(pass);
            let (inp, calib) = (&*input, &mut ctx.calib);
            let p =
                ctx.tracer.span("pipeline_pass", HARNESS, pass, |t| one_pass(inp, t, calib, pass));
            out.attempted += 1;
            times.begin_pass(traced);
            for &(t0, ns) in &p.stages {
                times.push(t0, ns);
            }
            bytes = (p.jsonl_bytes, p.chrome_bytes);
            drop_ratio = p.dropped as f64 / n_events.max(1) as f64;
            let mut problems = Vec::new();
            if !p.drained_ok {
                problems.push("drained events differ from the recorded ones".to_string());
            }
            if !p.imported_ok {
                problems.push("imported events differ from the recorded ones".to_string());
            }
            if p.warnings != 0 {
                problems.push(format!("{} import warnings", p.warnings));
            }
            if p.dropped != 0 {
                problems.push(format!("{} events dropped", p.dropped));
            }
            if p.revocation_episodes != input.rollbacks {
                problems.push(format!(
                    "{} revocation episodes, the generating run performed {} rollbacks",
                    p.revocation_episodes, input.rollbacks
                ));
            }
            if !problems.is_empty() {
                out.fail(format!("pass {pass}: {}", problems.join("; ")));
            }
            pass += 1;
        }
        ctx.calib.sample();

        let cal = times.calibrated(&ctx.calib);
        let pass_ns = cal.pass_ns();
        out.latency_us = pass_ns / 1e3;
        out.work_per_s = n_events as f64 * 1e9 / pass_ns;
        out.overhead_ratio = cal.overhead_ratio().filter(|_| ctx.alternate);
        out.rows.push(Row {
            name: "pipeline_events_per_s",
            unit: "1/s",
            value: out.work_per_s,
            summary: None,
        });
        out.rows.push(Row {
            name: "pipeline_pass_s",
            unit: "s",
            value: pass_ns / 1e9,
            summary: Some(stats::summarize(&times.raw_pass_s())),
        });
        out.rows.push(Row {
            name: "pipeline_pass_s_floor",
            unit: "s",
            value: times.floor_ns() / 1e9,
            summary: None,
        });
        out.rows.push(Row {
            name: "trace_events",
            unit: "count",
            value: n_events as f64,
            summary: None,
        });
        out.rows.push(Row {
            name: "trace_jsonl_mb",
            unit: "MB",
            value: bytes.0 as f64 / 1e6,
            summary: None,
        });
        out.rows.push(Row {
            name: "revocation_episodes",
            unit: "count",
            value: input.rollbacks as f64,
            summary: None,
        });

        let stage =
            |name: &str| cal.op_ns(STAGES.iter().position(|s| *s == name).expect("a stage name"));
        let per_s = |ns: f64| n_events as f64 * 1e9 / ns;
        let mb_per_s = |bytes: usize, ns: f64| bytes as f64 / 1e6 / (ns / 1e9);
        let l = &mut out.layer;
        l.set("obs.drain_events_per_s", per_s(stage("drain")));
        l.set("obs.export_jsonl_mb_per_s", mb_per_s(bytes.0, stage("export_jsonl")));
        l.set("obs.export_chrome_mb_per_s", mb_per_s(bytes.1, stage("export_chrome")));
        l.set("obs.import_events_per_s", per_s(stage("import")));
        l.set("obs.analysis_events_per_s", per_s(stage("analysis")));
        l.set("obs.report_us", stage("report") / 1e3);
        l.set("obs.analysis_json_us", stage("analysis_json") / 1e3);
        l.set("obs.flame_us", stage("flame") / 1e3);
        l.set("obs.drop_ratio", drop_ratio);
        out
    }
}
