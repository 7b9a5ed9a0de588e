//! The workloads and what they share: the run context, the outcome
//! shape, golden files, and the traced/untraced alternation.
//!
//! All are closed loops with one client: the next operation starts when
//! the previous one has completed. The four of [`NAMES`] run one thread
//! and report the end-to-end metrics. `locks_inversion` runs two, and on
//! a two-vCPU shared host its timings cannot repeat within any bound the
//! contract allows (see its module), so it yields per-layer readings
//! only: every traced run makes a short pass of it.

pub mod explore_bounded;
pub mod locks_fastpath;
pub mod locks_inversion;
pub mod trace_pipeline;
pub mod vm_fig5;

use crate::host::Calibrator;
use crate::json::{self, Value};
use crate::metrics::Readings;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in the order `--all` runs them and `BENCHMARK.json`
/// lists them.
pub const NAMES: [&str; 4] = ["vm_fig5", "locks_fastpath", "explore_bounded", "trace_pipeline"];

/// The workload that only fills per-layer readings. `--workload` still
/// runs it by hand; no end-to-end number of it is gated.
pub const LEDGER_ONLY: &str = "locks_inversion";

/// Seeds `--bless` writes goldens for. Any other seed is a hold-out: it
/// is checked against every invariant that needs no golden.
pub const BLESSED_SEEDS: [u64; 2] = [1, 2];

/// Set-up repeated *during* the measured phase, between passes.
///
/// `setup_s` is the steady reading ([`stats::steady`]) of a run's
/// set-ups, like every other timing. Set-ups bunched at the
/// start of a run all fall into one of this host's seconds-long slow or
/// quiet spells; spread over the window they sample the same spells the
/// measured passes do. The time they take is added to the deadline, so
/// the measured phase still measures for the whole window.
struct Resetup {
    run: Box<dyn FnMut()>,
    /// When each remaining set-up is due, ascending.
    due: Vec<Instant>,
}

/// What a workload's measured phase gets from the harness.
pub struct Ctx {
    window: Duration,
    /// Span recorder (disabled in the untraced run).
    pub tracer: Tracer,
    /// Traced run: record spans on every second operation only, so the
    /// traced and untraced readings share the same stretch of host time
    /// and their ratio is the tracing overhead.
    pub alternate: bool,
    /// Fixed kernel interleaved with the samples; every timing is
    /// reported in calibrated time (see [`Calibrator`]).
    pub calib: Calibrator,
    end: Instant,
    resetup: Option<Resetup>,
    /// Start and wall time of every set-up timed so far.
    setups: Vec<(Instant, Duration)>,
}

impl Ctx {
    /// A context for one measured phase. The window opens now.
    pub fn new(window: Duration, traced: bool) -> Self {
        Ctx {
            window,
            tracer: Tracer::new(traced),
            alternate: traced,
            calib: Calibrator::new(),
            end: Instant::now() + window,
            resetup: None,
            setups: Vec::new(),
        }
    }

    /// Run one set-up with a calibration sample on either side and keep
    /// its time. The window is moved by what this took.
    pub fn timed_setup<R>(&mut self, setup: impl FnOnce() -> R) -> R {
        let before = Instant::now();
        self.calib.sample();
        let t0 = Instant::now();
        let r = setup();
        self.setups.push((t0, t0.elapsed()));
        self.calib.sample();
        self.end += before.elapsed();
        r
    }

    /// Run `setup` another `times` times between passes, evenly spaced
    /// over the window.
    pub fn repeat_setup(&mut self, times: usize, setup: impl FnMut() + 'static) {
        let start = self.end - self.window;
        let due = (1..=times)
            .map(|i| start + self.window.mul_f64(i as f64 / (times + 1) as f64))
            .collect();
        self.resetup = Some(Resetup { run: Box::new(setup), due });
    }

    /// Calibrated seconds of each set-up timed so far.
    pub fn setup_seconds(&self) -> Vec<f64> {
        self.setups
            .iter()
            .map(|&(t0, took)| took.as_secs_f64() * self.calib.scale(t0, took))
            .collect()
    }

    /// Wall seconds of the same set-ups, uncalibrated (context).
    pub fn setup_wall_seconds(&self) -> Vec<f64> {
        self.setups.iter().map(|(_, took)| took.as_secs_f64()).collect()
    }

    /// Whether the window has closed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.end
    }

    /// Time left in the window.
    pub fn remaining(&self) -> Duration {
        self.end.saturating_duration_since(Instant::now())
    }

    /// Call between passes, when nothing of the workload is running:
    /// every repeated set-up that is due runs here.
    pub fn between_passes(&mut self) {
        let Some(mut r) = self.resetup.take() else { return };
        while r.due.first().is_some_and(|due| Instant::now() >= *due) {
            r.due.remove(0);
            self.timed_setup(&mut r.run);
        }
        self.resetup = Some(r);
    }

    /// Call before operation (or pass) number `i`: takes a calibration
    /// sample if one is due and, in the traced run, switches span
    /// recording on for odd `i` and off for even `i`. Returns whether
    /// this operation is traced.
    pub fn begin_op(&mut self, i: u64) -> bool {
        self.calib.tick();
        if self.alternate {
            self.tracer.set_enabled(i % 2 == 1);
        }
        self.tracer.enabled()
    }
}

/// Wall time of every operation of every pass, each pass being the same
/// `width` operations in the same order, with when it started (for
/// calibration) and whether the pass recorded spans.
pub struct PassTimes {
    width: usize,
    traced: Vec<bool>,
    raw: Vec<(Instant, f64)>,
}

impl PassTimes {
    /// For passes of `width` operations.
    pub fn new(width: usize) -> Self {
        PassTimes { width, traced: Vec::new(), raw: Vec::new() }
    }

    /// Start a pass; its `width` operations follow through [`PassTimes::push`].
    pub fn begin_pass(&mut self, traced: bool) {
        debug_assert_eq!(self.raw.len(), self.width * self.traced.len(), "the last pass is short");
        self.traced.push(traced);
    }

    /// Record the next operation: started at `t0`, took `ns` of wall time.
    pub fn push(&mut self, t0: Instant, ns: f64) {
        self.raw.push((t0, ns));
    }

    /// Wall ns of every operation, pass after pass, uncalibrated.
    pub fn raw_ns(&self) -> Vec<f64> {
        self.raw.iter().map(|o| o.1).collect()
    }

    /// Wall seconds of each whole pass, uncalibrated (context rows).
    pub fn raw_pass_s(&self) -> Vec<f64> {
        self.raw
            .chunks_exact(self.width)
            .map(|p| p.iter().map(|o| o.1).sum::<f64>() / 1e9)
            .collect()
    }

    /// Every operation at its lowest wall time over the passes, summed:
    /// the pass on a host that is quiet throughout. A context row only —
    /// a cost paid on some passes and not on others never shows in it.
    pub fn floor_ns(&self) -> f64 {
        (0..self.width)
            .map(|i| {
                let readings: Vec<f64> =
                    self.raw.iter().skip(i).step_by(self.width).map(|o| o.1).collect();
                stats::quiet_floor(&readings)
            })
            .sum()
    }

    /// The same times in calibrated ns. Call after the last pass, when
    /// the calibration sample that follows it has been taken.
    pub fn calibrated(&self, calib: &Calibrator) -> Calibrated {
        Calibrated {
            width: self.width,
            traced: self.traced.clone(),
            ns: self.raw.iter().map(|&(t0, ns)| calib.calibrated_ns(t0, ns)).collect(),
        }
    }
}

/// [`PassTimes`] in calibrated ns.
pub struct Calibrated {
    width: usize,
    traced: Vec<bool>,
    /// Calibrated ns of every operation, pass after pass.
    pub ns: Vec<f64>,
}

impl Calibrated {
    /// One pass, calibrated ns: every operation at its steady reading
    /// over the passes ([`stats::steady`]), summed. What the workloads
    /// report. Per operation and not per whole pass, because a slow
    /// spell of the host rarely spares a whole pass but seldom hits the
    /// same operation in every pass.
    pub fn pass_ns(&self) -> f64 {
        (0..self.width).map(|i| self.op_ns(i)).sum()
    }

    /// Operation `i`'s steady reading over the passes, calibrated ns.
    pub fn op_ns(&self, i: usize) -> f64 {
        let readings: Vec<f64> = self.ns.iter().skip(i).step_by(self.width).copied().collect();
        stats::steady(&readings)
    }

    /// The traced passes' [`Calibrated::pass_ns`] ÷ the untraced passes';
    /// `None` until both sides have a pass.
    pub fn overhead_ratio(&self) -> Option<f64> {
        let side = |want: bool| -> Option<f64> {
            let ns: Vec<f64> = self
                .ns
                .chunks_exact(self.width)
                .zip(&self.traced)
                .filter(|(_, &t)| t == want)
                .flat_map(|(pass, _)| pass.iter().copied())
                .collect();
            let half = Calibrated { width: self.width, traced: Vec::new(), ns };
            (!half.ns.is_empty()).then(|| half.pass_ns())
        };
        Some(ratio(side(true)?, side(false)?))
    }
}

/// One line of a workload's detailed report: a named reading with the
/// spread of the samples behind it.
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value: the steady reading of the calibrated samples
    /// ([`stats::steady`]), unless the name says otherwise (`_floor`).
    pub value: f64,
    /// Sample count, quartiles and tail of the same samples as wall
    /// time, uncalibrated, when the value came from samples.
    pub summary: Option<Summary>,
}

/// What a measured phase returns.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation (panicked, timed out, or failed
    /// its check).
    pub failures: Vec<String>,
    /// End-to-end: time a caller waits for one unit of result, µs.
    pub latency_us: f64,
    /// End-to-end: useful work per second.
    pub work_per_s: f64,
    /// Detailed rows (printed and written to the results file).
    pub rows: Vec<Row>,
    /// Per-layer readings this workload's run yields.
    pub layer: Readings,
    /// Traced ÷ untraced reading of the primary timing (traced run only).
    pub overhead_ratio: Option<f64>,
}

impl Outcome {
    /// Record a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// A workload: seeded set-up, then a measured phase.
pub trait Workload {
    /// Name (one of [`NAMES`], or [`LEDGER_ONLY`]).
    const NAME: &'static str;
    /// Times set-up runs in an untraced run (once before the window,
    /// the rest spread over it); `setup_s` is their steady reading.
    const SETUP_REPS: usize;
    /// Generated inputs and warmed-up state.
    type Input;
    /// Generate inputs from `seed` and warm up. Everything a fresh
    /// process must do before its first timed operation.
    fn setup(seed: u64) -> Self::Input;
    /// Measure for `ctx.window`, check every output.
    fn run(input: &mut Self::Input, ctx: &mut Ctx) -> Outcome;
}

/// `benchmark/` — anchored at build time, so results and goldens land
/// beside the sources whatever the working directory is.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/golden/<workload>.<seed>.json`.
pub fn golden_path(workload: &str, seed: u64) -> PathBuf {
    bench_dir().join("golden").join(format!("{workload}.{seed}.json"))
}

/// The golden for `(workload, seed)`, if that seed was blessed. A golden
/// that exists but does not parse is an error, not a hold-out.
pub fn load_golden(workload: &str, seed: u64) -> Result<Option<Value>, String> {
    let path = golden_path(workload, seed);
    match std::fs::read_to_string(&path) {
        Ok(text) => json::parse(&text).map(Some).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Write a golden file.
pub fn write_golden(workload: &str, seed: u64, doc: &Value) -> std::io::Result<PathBuf> {
    let path = golden_path(workload, seed);
    std::fs::create_dir_all(path.parent().expect("golden path has a parent"))?;
    std::fs::write(&path, doc.pretty())?;
    Ok(path)
}

/// Compare named exact counts against a golden object; returns one
/// message per difference.
pub fn diff_counts(what: &str, got: &[(&'static str, u64)], golden: &Value) -> Vec<String> {
    got.iter()
        .filter_map(|&(key, v)| match golden.get(key).and_then(Value::as_u64) {
            Some(g) if g == v => None,
            Some(g) => Some(format!("{what}: {key} = {v}, golden {g}")),
            None => Some(format!("{what}: golden has no `{key}`")),
        })
        .collect()
}

/// Ratio of two steady readings, 1.0 when the base is missing.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    #[test]
    fn an_edited_golden_is_a_failure_naming_the_count() {
        let golden =
            obj([("instructions", Value::from(3_360_860u64)), ("rollbacks", Value::from(0u64))]);
        let got = [("instructions", 3_360_860u64), ("rollbacks", 0)];
        assert!(diff_counts("2+8 w0 unmod", &got, &golden).is_empty());
        let edited =
            obj([("instructions", Value::from(12_345u64)), ("rollbacks", Value::from(0u64))]);
        let problems = diff_counts("2+8 w0 unmod", &got, &edited);
        assert_eq!(problems, ["2+8 w0 unmod: instructions = 3360860, golden 12345"]);
        let missing = diff_counts("x", &[("log_entries", 1)], &golden);
        assert_eq!(missing, ["x: golden has no `log_entries`"]);
    }

    #[test]
    fn pass_times_report_each_operation_at_its_steady_reading_and_compare_the_two_sides() {
        let mut t = PassTimes::new(2);
        let t0 = Instant::now();
        for (traced, a, b) in [(false, 10.0, 30.0), (true, 12.0, 33.0), (false, 11.0, 29.0)] {
            t.begin_pass(traced);
            t.push(t0, a);
            t.push(t0, b);
        }
        assert_eq!(t.floor_ns(), 10.0 + 29.0);
        assert_eq!(t.raw_pass_s(), vec![40e-9, 45e-9, 40e-9]);
        // One kernel sample, twice as slow as the reference: every time halves.
        let mut calib = Calibrator::new();
        calib.sample();
        let c = t.calibrated(&calib);
        let k = c.ns[0] / 10.0;
        assert!(k > 0.0);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b.abs().max(1.0);
        // Three passes: the lowest quarter is the lowest reading of each operation.
        assert!(close(c.pass_ns(), (10.0 + 29.0) * k));
        assert!(close(c.op_ns(1), 29.0 * k));
        assert!(close(c.overhead_ratio().expect("both sides"), 45.0 / 39.0));
        assert_eq!(PassTimes::new(1).calibrated(&calib).overhead_ratio(), None);
    }

    #[test]
    fn repeated_set_ups_run_between_passes_and_extend_the_window() {
        let mut ctx = Ctx::new(Duration::from_millis(40), false);
        ctx.repeat_setup(2, || std::thread::sleep(Duration::from_millis(5)));
        ctx.between_passes(); // nothing due at the start of the window
        assert!(ctx.setup_seconds().is_empty());
        while !ctx.expired() {
            ctx.between_passes();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ctx.setup_seconds().len(), 2);
        assert!(ctx.setup_seconds().iter().all(|s| *s > 0.0));
        let input = ctx.timed_setup(|| 7);
        assert_eq!((input, ctx.setup_seconds().len()), (7, 3));
    }
}
