//! One run of one workload, inside the child process.
//!
//! Untraced run: set-up repeated, the measured window, the end-to-end
//! metrics, every timing in calibrated time (`host::Calibrator`).
//! Traced run: the workload once more with spans recorded on every
//! second operation, a short ledger pass of each *other* workload and
//! of `locks_inversion` (their per-layer readings, so every traced run
//! reports the whole ledger), the per-layer probes, the span file and
//! the self-time table. End-to-end metrics are never taken from a
//! traced run.

use crate::host;
use crate::json::Value;
use crate::metrics::{self, declared, Readings};
use crate::probes;
use crate::report::{self, Detail, Reading, RunResult, MAX_FAILURE_LINES};
use crate::stats;
use crate::trace;
use crate::workloads::explore_bounded::ExploreBounded;
use crate::workloads::locks_fastpath::LocksFastpath;
use crate::workloads::locks_inversion::LocksInversion;
use crate::workloads::trace_pipeline::TracePipeline;
use crate::workloads::vm_fig5::VmFig5;
use crate::workloads::{Ctx, Outcome, Workload, LEDGER_ONLY, NAMES};
use std::time::Duration;

/// What the child was asked to do.
#[derive(Clone, Debug)]
pub struct Request {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: the measured window.
    pub seconds: f64,
    /// `--trace 1`.
    pub traced: bool,
    /// `--quick`: a tenth of the sample counts, the same per-sample work.
    pub quick: bool,
}

/// Window of a ledger pass (another workload's per-layer readings).
const LEDGER_WINDOW: Duration = Duration::from_millis(1500);

/// Call `f` with the workload type named `name`.
macro_rules! with_workload {
    ($name:expr, $f:ident ( $($arg:expr),* )) => {
        match $name {
            "vm_fig5" => Ok($f::<VmFig5>($($arg),*)),
            "locks_inversion" => Ok($f::<LocksInversion>($($arg),*)),
            "locks_fastpath" => Ok($f::<LocksFastpath>($($arg),*)),
            "explore_bounded" => Ok($f::<ExploreBounded>($($arg),*)),
            "trace_pipeline" => Ok($f::<TracePipeline>($($arg),*)),
            other => Err(format!(
                "unknown workload `{other}` (one of: {}, {LEDGER_ONLY})",
                NAMES.join(", ")
            )),
        }
    };
}

/// Run the request and return its result (also printed and written to
/// `results/`). `Err` only for a request that cannot be run at all.
pub fn run(req: &Request) -> Result<RunResult, String> {
    with_workload!(req.workload.as_str(), drive(req))
}

fn drive<W: Workload + 'static>(req: &Request) -> RunResult {
    let window = Duration::from_secs_f64(req.seconds);
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut absorb = |who: &str, out: &Outcome, attempted: &mut u64| {
        *attempted += out.attempted;
        failures.extend(out.failures.iter().map(|f| format!("{who}: {f}")));
    };

    let (metrics, details) = if req.traced {
        let mut readings = Readings::default();
        // The other workloads' rows of the ledger, from a short pass each.
        for other in NAMES.iter().chain([&LEDGER_ONLY]).filter(|n| **n != W::NAME) {
            let scale = if req.quick { 0.2 } else { 1.0 };
            let out = with_workload!(*other, ledger_pass(req.seed, LEDGER_WINDOW.mul_f64(scale)))
                .expect("NAMES and LEDGER_ONLY hold only known workloads");
            absorb(other, &out, &mut attempted);
            readings.extend(out.layer);
        }
        // This workload, traced on every second operation.
        let mut input = W::setup(req.seed);
        let mut ctx = Ctx::new(window.mul_f64(0.5), true);
        let out = W::run(&mut input, &mut ctx);
        absorb(W::NAME, &out, &mut attempted);
        readings.set("bench.trace_overhead_ratio", out.overhead_ratio.unwrap_or(1.0));
        readings.set("host.calib_ms_p50", ctx.calib.p50_ms());
        readings.set("host.calib_spread", ctx.calib.spread());
        let details: Vec<Detail> = out.rows.iter().map(Detail::from).collect();
        readings.extend(out.layer);
        probes::run_all(&mut readings, req.seed, if req.quick { 0.1 } else { 1.0 });
        write_trace(W::NAME, ctx.tracer.spans());

        let metrics = declared()
            .per_layer
            .iter()
            .map(|m| Reading {
                name: m.name.clone(),
                value: readings.get(&m.name).unwrap_or_else(|| {
                    failures.push(format!("harness: no reading for `{}`", m.name));
                    attempted += 1;
                    0.0
                }),
                unit: m.unit.clone(),
            })
            .collect();
        (metrics, details)
    } else {
        // Set-up once before the window and, for a steady reading, again
        // between passes all through it.
        let seed = req.seed;
        let mut ctx = Ctx::new(window, false);
        let mut input = ctx.timed_setup(|| W::setup(seed));
        let reps = if req.quick { 3 } else { W::SETUP_REPS };
        ctx.repeat_setup(reps - 1, move || drop(std::hint::black_box(W::setup(seed))));
        let out = W::run(&mut input, &mut ctx);
        let setup_s = ctx.setup_seconds();
        absorb(W::NAME, &out, &mut attempted);
        if ctx.calib.spread() > 0.10 {
            println!(
                "  note: host calibration kernel spread {:.3} > 0.10 over {} samples (median \
                 {:.3} ms): a neighbour was busy during this run; timings are calibrated for it",
                ctx.calib.spread(),
                ctx.calib.n(),
                ctx.calib.p50_ms()
            );
        }
        let value = |name: &str| match name {
            metrics::LATENCY_US => out.latency_us,
            metrics::WORK_PER_S => out.work_per_s,
            metrics::PEAK_RSS_MB => host::peak_rss_mb().unwrap_or(0.0),
            metrics::SETUP_S => stats::steady(&setup_s),
            other => unreachable!("BENCHMARK.json names `{other}`, which has no source"),
        };
        let metrics = declared()
            .end_to_end
            .iter()
            .map(|m| Reading { name: m.name.clone(), value: value(&m.name), unit: m.unit.clone() })
            .collect();
        let mut details: Vec<Detail> = out.rows.iter().map(Detail::from).collect();
        let s = stats::summarize(&ctx.setup_wall_seconds());
        details.push(Detail {
            reading: Reading {
                name: "setup_s".into(),
                value: stats::steady(&setup_s),
                unit: "s".into(),
            },
            n: s.n as u64,
            p25: s.p25,
            p50: s.p50,
            p75: s.p75,
            tail: None,
        });
        (metrics, details)
    };

    let failed = failures.len() as u64;
    failures.truncate(MAX_FAILURE_LINES);
    let result = RunResult {
        workload: W::NAME.into(),
        seed: req.seed,
        traced: req.traced,
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        failures,
        metrics,
        details,
    };
    result.print();
    match report::write_result(&result) {
        Ok(path) => println!("  wrote {}", path.display()),
        Err(e) => println!("  warning: could not write the results file: {e}"),
    }
    result
}

/// Another workload's short, untraced pass: set-up once, measure for
/// `window`, keep its per-layer readings and its failures.
fn ledger_pass<W: Workload>(seed: u64, window: Duration) -> Outcome {
    let mut input = W::setup(seed);
    W::run(&mut input, &mut Ctx::new(window, false))
}

/// Write `results/trace.<workload>.json` and print the self-time table.
fn write_trace(workload: &str, spans: &[trace::Span]) {
    let (by_layer, wall) = trace::layer_ledger(spans);
    println!(
        "  -- self time by layer ({} spans; root spans cover {:.3} s)",
        spans.len(),
        wall as f64 / 1e9
    );
    for (layer, ns) in &by_layer {
        println!(
            "  {:<10} {:>12.3} ms {:>7.2} %",
            layer,
            *ns as f64 / 1e6,
            *ns as f64 * 100.0 / wall.max(1) as f64
        );
    }
    let sum: u64 = by_layer.values().sum();
    println!(
        "  {:<10} {:>12.3} ms {:>7.2} % of the root spans' wall time",
        "sum",
        sum as f64 / 1e6,
        sum as f64 * 100.0 / wall.max(1) as f64
    );
    let path = report::results_dir().join(format!("trace.{workload}.json"));
    let written = std::fs::create_dir_all(report::results_dir())
        .and_then(|()| std::fs::write(&path, trace::to_json(workload, spans).compact()));
    match written {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => println!("  warning: could not write the span file: {e}"),
    }
}

/// Bless: write the goldens for every blessed seed. Returns the files written.
pub fn bless() -> Result<Vec<std::path::PathBuf>, String> {
    use crate::workloads::{explore_bounded, vm_fig5, write_golden, BLESSED_SEEDS};
    let mut written = Vec::new();
    for seed in BLESSED_SEEDS {
        let docs: [(&str, Value); 2] = [
            (VmFig5::NAME, vm_fig5::bless(seed)?),
            (ExploreBounded::NAME, explore_bounded::bless(seed)),
        ];
        for (workload, doc) in docs {
            written.push(write_golden(workload, seed, &doc).map_err(|e| e.to_string())?);
        }
    }
    Ok(written)
}
