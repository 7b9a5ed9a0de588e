//! `revmon` — run, disassemble and verify `.rvm` assembly programs on the
//! revocable-monitor VM, and demo the real-thread locks runtime.
//!
//! ```text
//! revmon run program.rvm [--entry main] [--config modified|unmodified]
//!        [--policy blocking|revocation|inherit|ceiling=N] [--sched rr|prio]
//!        [--queue pq|fifo] [--detect acq|bg=N] [--seed N] [--quantum N]
//!        [--max-steps N] [--cores N]
//!        [--governor k=K,backoff=TICKS[,decay=TICKS]] [--elide] [--trace]
//!        [--stats] [--trace-out events.jsonl] [--chrome-trace out.json]
//!        [--metrics-json metrics.json] [--prometheus out.prom]
//!        [--flame out.folded]
//! revmon explore program.rvm [--max-preemptions N] [--max-schedules N]
//!        [--all-failures] [--max-rounds N] [--fuzz-iters N] [--fuzz-seed N]
//!        [--fuzz-len N] [--replay file.schedule.json] [--minimize]
//!        [--save-failure out.schedule.json] [--fault-skip-undo WORDS] [--stats]
//!        [--metrics-json metrics.json] [--entry main]
//!        [--config modified|unmodified]
//!        [--policy blocking|revocation|inherit|ceiling=N] [--sched rr|prio]
//!        [--queue pq|fifo] [--detect acq|bg=N] [--seed N] [--quantum N]
//!        [--max-steps N] [--cores N]
//!        [--governor k=K,backoff=TICKS[,decay=TICKS]] [--elide] [--trace]
//! revmon demo [--low N] [--high N] [--sections N] [--watch] [--stats]
//!        [--trace-out events.jsonl] [--chrome-trace out.json]
//!        [--metrics-json metrics.json] [--prometheus out.prom]
//!        [--flame out.folded]
//! revmon analyze trace.jsonl [--json] [--prometheus out.prom]
//!        [--flame out.folded]
//! revmon serve [--addr HOST:PORT] [--low N] [--high N] [--no-workload]
//!        [--max-requests N]
//! revmon dis program.rvm [--rewrite]
//! revmon verify program.rvm [--rewrite]
//! ```
//!
//! The observability flags work on both runtimes: `run` exports the VM's
//! whole virtual-clock trace, `demo` streams wall-clock events from the
//! locks runtime's priority-inversion scenario. See `docs/observability.md`.
//!
//! `analyze` imports a `--trace-out` JSONL file and reconstructs
//! priority-inversion episodes and per-monitor contention profiles from
//! it; `demo --watch` runs the same analysis live while the scenario
//! executes. See `docs/analysis.md`.
//!
//! `serve` exposes the same analysis live over HTTP — Prometheus
//! `/metrics`, a `/healthz` probe, and the wait-for graph as JSON or DOT
//! — with a demo-style background workload unless `--no-workload`. The
//! revocation slow path is phase-timed on both runtimes (always on; see
//! `docs/profiling.md`); `--stats` prints the per-phase table and
//! `--flame` exports episode critical paths as folded stacks.
//!
//! `explore` enumerates schedules of a program exhaustively under a
//! preemption bound (or samples them with `--fuzz-iters`), checking the
//! revocation protocol's invariants on every run; failing schedules can
//! be minimized and saved as replayable `.schedule.json` artifacts. See
//! `docs/exploration.md`.

use revmon_core::{DetectionStrategy, GovernorConfig, PolicyNameError, Priority, QueueDiscipline};
use revmon_obs::{Analysis, EventSink, PipelineStats, RunMeta, TsUnit};
use revmon_vm::{
    assemble, disassemble, rewrite_program, verify_program, SchedulerKind, Vm, VmConfig,
};
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Set once a write to standard output found its reader gone.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Standard output, for everything a command prints. A reader that
/// closes the pipe early (`revmon run … | head -1`) has had all it
/// wanted: the write that finds the pipe closed, and every write after
/// it, succeeds without writing, so the command still writes its output
/// files and exits 0. Any other error is returned as it is.
struct Stdout;

impl Stdout {
    /// `op` on std's stdout, unless it was found closed: then, and when
    /// `op` finds it closed, the result is `Ok(closed)`.
    fn unless_closed<T>(closed: T, op: impl FnOnce(io::Stdout) -> io::Result<T>) -> io::Result<T> {
        if STDOUT_CLOSED.load(Ordering::Relaxed) {
            return Ok(closed);
        }
        match op(io::stdout()) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                STDOUT_CLOSED.store(true, Ordering::Relaxed);
                Ok(closed)
            }
            r => r,
        }
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Self::unless_closed(buf.len(), |mut out| out.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        Self::unless_closed((), |mut out| out.flush())
    }
}

/// `print!` through [`Stdout`], so a closed pipe ends the output quietly.
/// Like std's, it panics on any other error. This crate's `print!` and
/// `println!` are these two.
macro_rules! print {
    ($($arg:tt)*) => {
        if let Err(e) = ::std::io::Write::write_fmt(&mut $crate::Stdout, format_args!($($arg)*)) {
            panic!("failed printing to stdout: {e}");
        }
    };
}

/// `println!` through [`Stdout`] (see [`print!`]).
macro_rules! println {
    () => { print!("\n") };
    ($($arg:tt)*) => { print!("{}\n", format_args!($($arg)*)) };
}

mod serve;
mod workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("revmon: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A subcommand's whole command line: the operand it requires, if any,
/// and its options, written as they appear in the usage text —
/// `[--name]`, or `[--name VALUE]` when the option takes a value
/// (space-separated; `VALUE` itself has no spaces). This synopsis is the
/// one flag table: [`Opts`] checks arguments and lookups against it, and
/// [`usage`] (mirrored in the module docs above) prints it.
struct Command {
    name: &'static str,
    operand: Option<&'static str>,
    flags: &'static [&'static str],
}

/// VM configuration knobs shared by `run` and `explore`
/// ([`parse_vm_config`]).
const VM_FLAGS: &str = "[--entry main] [--config modified|unmodified] \
    [--policy blocking|revocation|inherit|ceiling=N] [--sched rr|prio] \
    [--queue pq|fifo] [--detect acq|bg=N] [--seed N] [--quantum N] [--max-steps N] [--cores N] \
    [--governor k=K,backoff=TICKS[,decay=TICKS]] [--elide] [--trace]";

/// Observability outputs shared by `run` and `demo` ([`ObsOuts`]).
const OBS_FLAGS: &str = "[--stats] [--trace-out events.jsonl] [--chrome-trace out.json] \
    [--metrics-json metrics.json] [--prometheus out.prom] [--flame out.folded]";

const EXPLORE_FLAGS: &str = "[--max-preemptions N] [--max-schedules N] [--all-failures] \
    [--max-rounds N] [--fuzz-iters N] [--fuzz-seed N] [--fuzz-len N] \
    [--replay file.schedule.json] [--minimize] [--save-failure out.schedule.json] \
    [--fault-skip-undo WORDS] [--stats] [--metrics-json metrics.json]";

const COMMANDS: &[Command] = &[
    Command { name: "run", operand: Some("program.rvm"), flags: &[VM_FLAGS, OBS_FLAGS] },
    Command { name: "explore", operand: Some("program.rvm"), flags: &[EXPLORE_FLAGS, VM_FLAGS] },
    Command {
        name: "demo",
        operand: None,
        flags: &["[--low N] [--high N] [--sections N] [--watch]", OBS_FLAGS],
    },
    Command {
        name: "analyze",
        operand: Some("trace.jsonl"),
        flags: &["[--json] [--prometheus out.prom] [--flame out.folded]"],
    },
    Command {
        name: "serve",
        operand: None,
        flags: &["[--addr HOST:PORT] [--low N] [--high N] [--no-workload] [--max-requests N]"],
    },
    Command { name: "dis", operand: Some("program.rvm"), flags: &["[--rewrite]"] },
    Command { name: "verify", operand: Some("program.rvm"), flags: &["[--rewrite]"] },
];

impl Command {
    /// Every option as written between its brackets: `--name` or
    /// `--name VALUE`.
    fn items(&self) -> impl Iterator<Item = &'static str> {
        self.flags.iter().flat_map(|group| group[1..group.len() - 1].split("] ["))
    }

    /// Every accepted option as `(name, value placeholder)`.
    fn flags(&self) -> impl Iterator<Item = (&'static str, Option<&'static str>)> {
        self.items().map(|item| match item.split_once(' ') {
            Some((name, value)) => (name, Some(value)),
            None => (item, None),
        })
    }

    /// `revmon <name> [operand] [--flag VALUE]...`, wrapped at 78 columns.
    fn usage(&self) -> String {
        let mut out = format!("revmon {}", self.name);
        let mut width = out.len();
        let flags = self.items().map(|item| format!("[{item}]"));
        for word in self.operand.map(str::to_string).into_iter().chain(flags) {
            if width + 1 + word.len() > 78 {
                out.push_str("\n      ");
                width = 6;
            }
            out.push(' ');
            out.push_str(&word);
            width += 1 + word.len();
        }
        out
    }
}

fn usage() -> String {
    COMMANDS.iter().map(Command::usage).collect::<Vec<_>>().join("\n")
}

/// A subcommand's options, every argument matched against its
/// [`Command`] table up front: a misspelt, misplaced or value-less
/// option is an error naming the accepted ones, never a silent default.
pub(crate) struct Opts<'a> {
    cmd: &'static Command,
    given: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Opts<'a> {
    fn parse(cmd: &'static Command, args: &'a [String]) -> Result<Self, String> {
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some((name, value)) = cmd.flags().find(|(name, _)| name == arg) else {
                return Err(format!("unknown option `{arg}`; usage:\n{}", cmd.usage()));
            };
            let value = match value {
                Some(_) => Some(args.next().ok_or(format!("{name} needs a value"))?.as_str()),
                None => None,
            };
            given.push((name, value));
        }
        Ok(Opts { cmd, given })
    }

    /// The first occurrence of `name`. Asking for an option the
    /// command's table does not list (or with the wrong arity) is a bug
    /// in this file: usage and parser would disagree.
    fn lookup(&self, name: &str, takes_value: bool) -> Option<Option<&'a str>> {
        assert!(
            self.cmd.flags().any(|(n, v)| n == name && v.is_some() == takes_value),
            "`{name}` is not in the flag table of `revmon {}`",
            self.cmd.name
        );
        self.given.iter().find(|(n, _)| *n == name).map(|&(_, value)| value)
    }

    /// Whether the value-less option `flag` was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.lookup(flag, false).is_some()
    }

    /// The value of `--key value`, if given.
    pub(crate) fn get(&self, key: &str) -> Option<&'a str> {
        self.lookup(key, true).flatten()
    }

    /// `--key value` parsed into any `FromStr` number.
    pub(crate) fn num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|s| s.parse().map_err(|_| format!("bad value for {key}: {s}")))
            .transpose()
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or_else(|| format!("usage:\n{}", usage()))?;
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}`; usage:\n{}", usage()))?;
    let (file, rest) = match cmd.operand {
        Some(_) => {
            (args.get(1).ok_or_else(|| format!("usage: {}", cmd.usage()))?.as_str(), &args[2..])
        }
        None => ("", &args[1..]),
    };
    let opts = &Opts::parse(cmd, rest)?;
    match cmd.name {
        "demo" => return run_demo(opts),
        "serve" => return serve::run_serve(opts),
        "analyze" => return run_analyze(file, opts),
        _ => {}
    }
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let program = assemble(&src).map_err(|e| format!("{file}: {e}"))?;
    let rewritten = |p| if opts.has("--rewrite") { rewrite_program(&p) } else { p };
    match cmd.name {
        "dis" => {
            print!("{}", disassemble(&rewritten(program)));
            Ok(())
        }
        "verify" => {
            let p = rewritten(program);
            match verify_program(&p) {
                Ok(()) => {
                    println!("{file}: OK ({} methods)", p.methods.len());
                    Ok(())
                }
                Err(errors) => {
                    for e in &errors {
                        eprintln!("{file}: {e}");
                    }
                    Err(format!("{} verification error(s)", errors.len()))
                }
            }
        }
        "run" => run_program(file, program, opts),
        "explore" => run_explore(file, program, &src, opts),
        other => unreachable!("`{other}` is in COMMANDS but not dispatched"),
    }
}

/// The observability output paths shared by `run` and `demo`.
struct ObsOuts<'a> {
    trace_out: Option<&'a str>,
    chrome: Option<&'a str>,
    metrics: Option<&'a str>,
    prometheus: Option<&'a str>,
    flame: Option<&'a str>,
}

impl<'a> ObsOuts<'a> {
    fn parse(opts: &Opts<'a>) -> Self {
        ObsOuts {
            trace_out: opts.get("--trace-out"),
            chrome: opts.get("--chrome-trace"),
            metrics: opts.get("--metrics-json"),
            prometheus: opts.get("--prometheus"),
            flame: opts.get("--flame"),
        }
    }

    fn wanted(&self) -> bool {
        self.trace_out.is_some()
            || self.chrome.is_some()
            || self.metrics.is_some()
            || self.prometheus.is_some()
            || self.flame.is_some()
    }

    /// Write the outputs read off the run's `analysis`: `--metrics-json`
    /// (the run's `counters`, plus the telemetry `pipeline`'s own object
    /// when the events came through a sink), `--prometheus` and
    /// `--flame`, whose monitors `names` labels. `run` writes the trace
    /// files itself; `demo`'s collector streams them.
    fn export(
        &self,
        analysis: &Analysis,
        unit: TsUnit,
        pipeline: Option<&PipelineStats>,
        counters: &[(&str, u64)],
        names: &std::collections::BTreeMap<u64, String>,
    ) -> Result<(), String> {
        if let Some(path) = &self.metrics {
            let json = revmon_obs::metrics_json(
                counters,
                &analysis.histograms,
                unit,
                Some(revmon_obs::prof::timers()),
                pipeline,
            );
            std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("revmon: wrote metrics to {path}");
        }
        if let Some(path) = &self.prometheus {
            let mut f = create(path)?;
            revmon_obs::write_prometheus(&mut f, analysis, names, unit)
                .and_then(|()| revmon_obs::prof::timers().write_prometheus(&mut f))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("revmon: wrote Prometheus metrics to {path}");
        }
        if let Some(path) = &self.flame {
            let stacks = revmon_obs::FoldedStacks::from_episodes(&analysis.episodes, names);
            let mut f = create(path)?;
            stacks.write_folded(&mut f).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("revmon: wrote {} folded stacks to {path}", stacks.len());
        }
        Ok(())
    }
}

fn create(path: &str) -> Result<std::io::BufWriter<std::fs::File>, String> {
    std::fs::File::create(path)
        .map(std::io::BufWriter::new)
        .map_err(|e| format!("cannot create {path}: {e}"))
}

/// Build a [`VmConfig`] from the common command-line knobs shared by
/// `run` and `explore`.
fn parse_vm_config(opts: &Opts<'_>) -> Result<VmConfig, String> {
    let mut cfg = match opts.get("--config") {
        None | Some("modified") => VmConfig::modified(),
        Some("unmodified") => VmConfig::unmodified(),
        Some(o) => return Err(format!("--config must be modified|unmodified, got {o}")),
    };
    if let Some(p) = opts.get("--policy") {
        cfg.policy = p.parse().map_err(|e| match e {
            PolicyNameError::BadCeiling => "bad ceiling level".to_string(),
            PolicyNameError::Unknown => format!("unknown policy `{p}`"),
        })?;
    }
    if let Some(s) = opts.get("--sched") {
        cfg.scheduler = match s {
            "rr" => SchedulerKind::RoundRobin,
            "prio" => SchedulerKind::PriorityPreemptive,
            o => return Err(format!("--sched must be rr|prio, got {o}")),
        };
    }
    if let Some(q) = opts.get("--queue") {
        cfg.queue_discipline = match q {
            "pq" => QueueDiscipline::Priority,
            "fifo" => QueueDiscipline::Fifo,
            o => return Err(format!("--queue must be pq|fifo, got {o}")),
        };
    }
    if let Some(d) = opts.get("--detect") {
        cfg.detection = match d {
            "acq" => DetectionStrategy::AtAcquisition,
            s if s.starts_with("bg=") => DetectionStrategy::Background {
                period: s[3..].parse().map_err(|_| "bad bg period".to_string())?,
            },
            o => return Err(format!("--detect must be acq|bg=N, got {o}")),
        };
    }
    if let Some(s) = opts.get("--seed") {
        cfg.seed = s.parse().map_err(|_| "bad seed".to_string())?;
    }
    if let Some(q) = opts.get("--quantum") {
        cfg.cost.quantum = q.parse().map_err(|_| "bad quantum".to_string())?;
    }
    if let Some(m) = opts.get("--max-steps") {
        cfg.max_steps = m.parse().map_err(|_| "bad max-steps".to_string())?;
    }
    if let Some(c) = opts.get("--cores") {
        let n: usize = c.parse().map_err(|_| "bad cores".to_string())?;
        if n == 0 {
            return Err("--cores must be at least 1".into());
        }
        cfg.cores = n;
    }
    if let Some(g) = opts.get("--governor") {
        cfg.governor = parse_governor(g)?;
    }
    cfg.elide_barriers = opts.has("--elide");
    cfg.trace = opts.has("--trace");
    Ok(cfg)
}

/// Parse `--governor k=K,backoff=TICKS[,decay=TICKS]` into a
/// [`GovernorConfig`]. `k` is required and must be positive (a disabled
/// governor is the default; asking for one explicitly is a mistake).
fn parse_governor(spec: &str) -> Result<GovernorConfig, String> {
    let mut cfg = GovernorConfig::disabled();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (key, value) =
            part.split_once('=').ok_or_else(|| format!("--governor: `{part}` is not key=value"))?;
        let parse = |what: &str| -> Result<u64, String> {
            value.parse().map_err(|_| format!("--governor: bad {what} `{value}`"))
        };
        match key {
            "k" => {
                cfg.k = u32::try_from(parse("retry budget")?)
                    .map_err(|_| format!("--governor: k `{value}` out of range"))?
            }
            "backoff" => cfg.backoff = parse("backoff window")?,
            "decay" => cfg.decay = parse("decay window")?,
            o => return Err(format!("--governor: unknown key `{o}` (expected k, backoff, decay)")),
        }
    }
    if !cfg.enabled() {
        return Err("--governor needs k=<positive retry budget>".into());
    }
    Ok(cfg)
}

fn run_program(
    file: &str,
    program: revmon_vm::bytecode::Program,
    opts: &Opts<'_>,
) -> Result<(), String> {
    let mut cfg = parse_vm_config(opts)?;
    let outs = ObsOuts::parse(opts);
    cfg.trace |= outs.wanted();
    let entry_name = opts.get("--entry").unwrap_or("main");
    let entry = program
        .method_by_name(entry_name)
        .ok_or_else(|| format!("{file}: no method named `{entry_name}`"))?;
    if program.method(entry).params != 0 {
        return Err(format!("entry method `{entry_name}` must take no parameters"));
    }

    let mut vm = Vm::try_new(program, cfg).map_err(|errs| {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        format!("{file}: verification failed:\n  {}", msgs.join("\n  "))
    })?;
    vm.spawn(entry_name, entry, vec![], Priority::NORM);
    let report = vm.run().map_err(|e| format!("{file}: VM fault: {e}"))?;
    // The run's whole event stream; every number reported below comes
    // from this one analysis of it.
    let events = vm.take_trace();
    let analysis = outs.wanted().then(|| Analysis::from_events(&events));
    let unit = TsUnit::VirtualTicks;

    if opts.has("--trace") {
        println!("--- trace ---");
        revmon_obs::write_events_jsonl(&mut Stdout, &events)
            .map_err(|e| format!("writing trace: {e}"))?;
    }
    if !report.output.is_empty() {
        println!("--- output ---");
        for v in &report.output {
            println!("{v}");
        }
    }
    for t in &report.threads {
        if let Some(tag) = t.uncaught {
            eprintln!("warning: thread {} died with uncaught exception (class {tag})", t.name);
        }
    }
    if opts.has("--stats") {
        println!("--- stats ---");
        print!("{}", report.summary());
        if !report.monitors.is_empty() {
            println!("--- monitors (by contention) ---");
            for m in report.monitors.iter().take(8) {
                println!(
                    "{}: {} acquires, {} contended, peak queue {}",
                    m.object, m.acquires, m.contended, m.peak_queue
                );
            }
        }
        if let Some(analysis) = &analysis {
            print_sink_stats(unit, analysis, None)?;
        }
        println!("--- revocation phases (host-clock) ---");
        let mut out = Stdout;
        revmon_obs::prof::timers()
            .write_table(&mut out)
            .map_err(|e| format!("writing phase table: {e}"))?;
    }
    if let Some(analysis) = &analysis {
        let mut counters = Vec::new();
        report.global.for_each_field(|name, v| counters.push((name, v)));
        let meta = RunMeta {
            recorded: Some(events.len() as u64),
            dropped: Some(0),
            governor: cfg.governor.enabled().then_some((
                cfg.governor.k,
                cfg.governor.backoff,
                cfg.governor.decay,
            )),
            scheduler: Some(
                match cfg.scheduler {
                    SchedulerKind::RoundRobin => "rr",
                    SchedulerKind::PriorityPreemptive => "prio",
                }
                .into(),
            ),
            ..RunMeta::default()
        };
        let names = vm.monitor_names();
        if let Some(path) = outs.trace_out {
            let mut f = create(path)?;
            revmon_obs::write_trace_jsonl_with(&mut f, &events, unit, &names, &meta)
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("revmon: wrote {} events to {path}", events.len());
        }
        if let Some(path) = outs.chrome {
            let mut f = create(path)?;
            revmon_obs::write_chrome_trace(&mut f, &events, unit)
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "revmon: wrote Chrome trace to {path} (open in Perfetto or chrome://tracing)"
            );
        }
        outs.export(analysis, unit, None, &counters, &names)?;
    }
    Ok(())
}

/// The event half of `--stats`: the latency histograms of the run's
/// analysis `a`, then, when the events came through a sink, its
/// telemetry pipeline `p`'s own table (without one, nothing was lost).
fn print_sink_stats(unit: TsUnit, a: &Analysis, p: Option<&PipelineStats>) -> Result<(), String> {
    println!("--- latency histograms ---");
    let mut out = Stdout;
    let (recorded, dropped) = p.map_or((a.events, 0), |p| (p.recorded, p.dropped));
    revmon_obs::write_summary(&mut out, &a.histograms, unit, recorded, dropped)
        .map_err(|e| format!("writing summary: {e}"))?;
    let Some(p) = p else { return Ok(()) };
    println!("--- telemetry pipeline ---");
    revmon_obs::write_pipeline_table(&mut out, p)
        .map_err(|e| format!("writing pipeline table: {e}"))
}

/// `revmon analyze`: import a JSONL trace (`run`/`demo --trace-out`)
/// and report priority-inversion episodes and per-monitor contention.
/// The file goes line by line straight into the analyzer: what stays in
/// memory is the trace's names, run context and damage report, and the
/// episodes found.
fn run_analyze(file: &str, opts: &Opts<'_>) -> Result<(), String> {
    let cannot_read = |e: std::io::Error| format!("cannot read {file}: {e}");
    let trace = std::io::BufReader::new(std::fs::File::open(file).map_err(cannot_read)?);
    let mut imp = revmon_obs::TraceImport::default();
    let mut analyzer = revmon_obs::Analyzer::default();
    imp.read(trace, |ev| analyzer.observe(ev)).map_err(cannot_read)?;
    if imp.warnings.total() > 0 {
        let w = &imp.warnings;
        eprintln!(
            "revmon: {file}: skipped {} damaged line(s) ({} malformed, {} unknown kind, {} out of order)",
            w.total(),
            w.malformed_lines,
            w.unknown_kinds,
            w.out_of_order
        );
    }
    let mut analysis = analyzer.finish();
    if analysis.events == 0 {
        return Err(format!("{file}: no importable events"));
    }
    // Damaged (thread, monitor) pairs cannot be classified honestly —
    // their resolution events may be among the skipped lines — so their
    // unresolved verdicts are reported as `truncated`, not as real
    // inversions the runtime failed to resolve.
    analysis.mark_truncated(&imp.damaged, imp.warnings.total());
    let unit = imp.unit();
    let meta = &imp.run_meta;
    if let Some(dropped) = meta.dropped.filter(|&d| d > 0) {
        eprintln!(
            "revmon: {file}: the recording run dropped {dropped} event(s) to ring-buffer \
             overflow ({} recorded) — episodes touching the gap may be truncated",
            meta.recorded.map_or_else(|| "?".into(), |r| r.to_string()),
        );
    }
    if opts.has("--json") {
        print!("{}", revmon_obs::analysis_json(&analysis, &imp.names, unit));
    } else {
        // Label the run from its trace-header context so governed runs
        // are not mistaken for baseline ones.
        let mut context = Vec::new();
        if let Some(s) = &meta.scheduler {
            context.push(format!("scheduler={s}"));
        }
        if let Some((k, b, d)) = meta.governor {
            context.push(format!("governor k={k} backoff={b} decay={d}"));
        }
        if !context.is_empty() {
            println!("run context: {}", context.join(", "));
        }
        let mut out = Stdout;
        revmon_obs::write_report(&mut out, &analysis, &imp.names, unit)
            .map_err(|e| format!("writing report: {e}"))?;
    }
    if let Some(path) = opts.get("--flame") {
        let stacks = revmon_obs::FoldedStacks::from_episodes(&analysis.episodes, &imp.names);
        let mut f = create(path)?;
        stacks.write_folded(&mut f).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("revmon: wrote {} folded stacks to {path}", stacks.len());
    }
    if let Some(path) = opts.get("--prometheus") {
        let mut f = create(path)?;
        revmon_obs::write_prometheus(&mut f, &analysis, &imp.names, unit)
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("revmon: wrote Prometheus metrics to {path}");
    }
    Ok(())
}

/// `revmon explore`: enumerate (or fuzz) the schedules of a program,
/// checking the revocation protocol's invariants on every run.
fn run_explore(
    file: &str,
    program: revmon_vm::bytecode::Program,
    src: &str,
    opts: &Opts<'_>,
) -> Result<(), String> {
    use revmon_explore::{explore, fuzz, minimize, Bounds, FuzzPlan, Runner, ScheduleFile};

    if let Err(errors) = verify_program(&program) {
        let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        return Err(format!("{file}: verification failed:\n  {}", msgs.join("\n  ")));
    }
    let mut cfg = parse_vm_config(opts)?;
    if let Some(n) = opts.num("--fault-skip-undo")? {
        // Test-only: sabotage rollback to prove detection — every rollback
        // leaves its newest N logged words unrestored.
        cfg.fault_skip_undo = n;
    }
    let entry_name = opts.get("--entry").unwrap_or("main");
    let do_minimize = opts.has("--minimize");
    let save_failure = opts.get("--save-failure");
    let metrics = opts.get("--metrics-json");

    // Replay mode: re-execute a saved schedule bit-for-bit.
    if let Some(path) = opts.get("--replay") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let sched = ScheduleFile::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if !sched.matches_program(src) {
            return Err(format!(
                "{path}: schedule was recorded against a different program (hash {}, expected {})",
                sched.program_fnv,
                format_args!("{:016x}", revmon_core::fnv1a(src.as_bytes())),
            ));
        }
        sched.apply_to(&mut cfg)?;
        let runner = Runner::new(program, &sched.entry, cfg)?;
        let out = runner.run(&sched.decisions);
        println!(
            "replayed {} decisions: terminal {:?}, {} rounds, clock {}, fingerprint {:016x}",
            out.decisions.len(),
            out.terminal,
            out.rounds,
            out.clock,
            out.fingerprint
        );
        for v in &out.violations {
            println!("violation: {v}");
        }
        return match &sched.expect_invariant {
            Some(inv) if out.violates(inv) => {
                println!("reproduced expected violation `{inv}`");
                Ok(())
            }
            Some(inv) => Err(format!("expected violation `{inv}` did not reproduce")),
            None if out.violations.is_empty() => Ok(()),
            None => Err(format!("{} invariant violation(s)", out.violations.len())),
        };
    }

    let mut runner = Runner::new(program, entry_name, cfg)?;
    if let Some(r) = opts.num("--max-rounds")? {
        runner.max_rounds = r;
    }

    // Shared failure handling: print, optionally minimize, optionally save.
    let handle_failure = |runner: &Runner,
                          schedule: Vec<u32>,
                          invariant: &str,
                          detail: &str|
     -> Result<(), String> {
        println!("FAILURE: {invariant} — {detail}");
        println!("schedule ({} decisions): {schedule:?}", schedule.len());
        let mut final_schedule = schedule;
        if do_minimize {
            let min = minimize(runner, &final_schedule, invariant, 0);
            println!(
                "minimized to {} decisions in {} runs: {:?}",
                min.schedule.len(),
                min.runs,
                min.schedule
            );
            final_schedule = min.schedule;
        }
        if let Some(path) = &save_failure {
            let artifact = ScheduleFile::new(
                file,
                src,
                runner.entry_name(),
                runner.config(),
                final_schedule,
                Some(invariant.to_string()),
            );
            std::fs::write(path, artifact.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
            println!("saved failing schedule to {path}");
        }
        Ok(())
    };

    // Fuzzing mode: sample the schedule space instead of enumerating it.
    if let Some(iters) = opts.num("--fuzz-iters")? {
        let plan = FuzzPlan {
            iters,
            seed: opts.num("--fuzz-seed")?.unwrap_or(FuzzPlan::default().seed),
            script_len: opts.num("--fuzz-len")?.unwrap_or(FuzzPlan::default().script_len),
            ..FuzzPlan::default()
        };
        let started = std::time::Instant::now();
        let report = fuzz(&runner, plan);
        let wall = started.elapsed();
        println!(
            "fuzzed {} schedules: {} completed, {} stalled, {} rollbacks verified",
            report.iters, report.completed, report.stalls, report.rollbacks
        );
        if opts.has("--stats") {
            println!("--- stats ---");
            print_schedule_rate(report.iters, wall, report.workers, report.run_time, None);
        }
        if let Some(path) = &metrics {
            let counters = [
                ("fuzz_iters", report.iters),
                ("fuzz_completed", report.completed),
                ("fuzz_stalls", report.stalls),
                ("fuzz_rollbacks", report.rollbacks),
                ("fuzz_failures", report.failure.is_some() as u64),
                ("fuzz_workers", report.workers as u64),
                ("fuzz_run_us", report.run_time.as_micros() as u64),
            ];
            write_metrics(path, &counters)?;
        }
        return match report.failure {
            None => {
                println!("invariants: all passed");
                Ok(())
            }
            Some((schedule, invariant)) => {
                handle_failure(&runner, schedule, &invariant, "found by fuzzing")?;
                Err(format!("invariant `{invariant}` violated"))
            }
        };
    }

    // Exhaustive mode.
    let bounds = Bounds {
        max_preemptions: opts.num("--max-preemptions")?.unwrap_or(2),
        max_schedules: opts.num("--max-schedules")?.unwrap_or(0),
        stop_on_first_failure: !opts.has("--all-failures"),
    };
    let started = std::time::Instant::now();
    let report = explore(&runner, bounds);
    let wall = started.elapsed();
    let s = &report.stats;
    println!(
        "explored {} schedules ({} decision points) under preemption bound {}",
        s.schedules, s.decision_points, bounds.max_preemptions
    );
    println!(
        "pruned: {} visited-state, {} preemption-bound",
        s.pruned_visited, s.pruned_preemption
    );
    println!(
        "terminals: {} distinct final states, {} stalled, {} budget-exhausted; {} rollbacks verified",
        report.terminal_states.len(),
        s.stalls,
        s.budget_exhausted,
        s.rollbacks
    );
    if s.capped {
        println!(
            "NOTE: schedule cap ({}) stopped the search early — this is a sample, not a proof",
            bounds.max_schedules
        );
    }
    if opts.has("--stats") {
        println!("--- stats ---");
        print_schedule_rate(s.schedules, wall, report.workers, report.run_time, s.first_violation);
        println!(
            "dedup hit ratio    : {:.3} ({} of {} expansions already visited)",
            s.dedup_hit_ratio(),
            s.pruned_visited,
            s.expansions
        );
    }
    if let Some(path) = &metrics {
        let counters = [
            ("explore_schedules", s.schedules),
            ("explore_decision_points", s.decision_points),
            ("explore_expansions", s.expansions),
            ("explore_pruned_visited", s.pruned_visited),
            ("explore_pruned_preemption", s.pruned_preemption),
            ("explore_stalls", s.stalls),
            ("explore_budget_exhausted", s.budget_exhausted),
            ("explore_rollbacks", s.rollbacks),
            ("explore_terminal_states", report.terminal_states.len() as u64),
            ("explore_failures", report.failures.len() as u64),
            ("explore_capped", s.capped as u64),
            ("explore_workers", report.workers as u64),
            ("explore_run_us", report.run_time.as_micros() as u64),
        ];
        write_metrics(path, &counters)?;
    }
    if report.clean() {
        println!("invariants: all passed");
        Ok(())
    } else {
        let n = report.failures.len();
        for f in report.failures {
            let v = &f.outcome.violations[0];
            handle_failure(&runner, f.schedule.clone(), v.invariant, &v.detail)?;
        }
        Err(format!("{n} invariant-violating schedule(s)"))
    }
}

/// The wall-clock half of `explore --stats`: how long the search took,
/// on how many threads and how much run time they spent between them,
/// when it found its first violation (if it found one) and what one
/// schedule cost. The cost is the summed run time over the schedules,
/// so a search spread over more threads does not read as cheaper
/// schedules; `schedules/s` is the wall-clock rate.
fn print_schedule_rate(
    schedules: u64,
    wall: std::time::Duration,
    workers: usize,
    run_time: std::time::Duration,
    first_violation: Option<std::time::Duration>,
) {
    let secs = wall.as_secs_f64();
    println!("wall time          : {secs:.3} s");
    println!("workers            : {workers}");
    println!("run time (summed)  : {:.3} s", run_time.as_secs_f64());
    if let Some(t) = first_violation {
        println!("first violation    : {:.3} s", t.as_secs_f64());
    }
    if schedules > 0 && secs > 0.0 {
        println!("schedules/s        : {:.1}", schedules as f64 / secs);
        println!("us per schedule    : {:.1}", run_time.as_secs_f64() * 1e6 / schedules as f64);
    }
}

/// Write explore/fuzz counters as a metrics JSON document (same format
/// as `run --metrics-json`, with empty histograms).
fn write_metrics(path: &str, counters: &[(&str, u64)]) -> Result<(), String> {
    let json = revmon_obs::metrics_json(
        counters,
        &revmon_obs::Histograms::default(),
        TsUnit::VirtualTicks,
        None,
        None,
    );
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("revmon: wrote metrics to {path}");
    Ok(())
}

/// `revmon demo`: a Figure-1 priority-inversion scenario on the
/// real-thread locks runtime — low-priority threads hold a revocable
/// monitor for long sections while a high-priority thread barges in —
/// exporting the same observability artifacts as `run`, with wall-clock
/// timestamps.
fn run_demo(opts: &Opts<'_>) -> Result<(), String> {
    let low_n: usize = opts.num("--low")?.unwrap_or(3);
    let high_sections: u64 = opts.num("--sections")?.unwrap_or(20);
    let high_n: usize = opts.num("--high")?.unwrap_or(1);
    if low_n == 0 || high_n == 0 || high_sections == 0 {
        return Err("--low, --high and --sections must be positive".into());
    }

    let outs = ObsOuts::parse(opts);
    let watch = opts.has("--watch");
    let sink = (outs.wanted() || watch).then(|| Arc::new(EventSink::new(TsUnit::WallNanos)));
    // Anything analysed — `--stats`, the metrics, Prometheus and
    // flamegraph outputs, `--watch` — reads the whole run, so the sink
    // keeps it all; stream-only runs cap the retained buffer so
    // arbitrarily long demos stay flat.
    let needs_history = watch
        || opts.has("--stats")
        || outs.metrics.is_some()
        || outs.prometheus.is_some()
        || outs.flame.is_some();
    let mut collector: Option<revmon_obs::Collector> = None;
    if let Some(sink) = &sink {
        revmon_locks::obs::install(Arc::clone(sink));

        // A background collector drains the per-thread rings on an epoch
        // cadence and streams the merged order incrementally into
        // `--trace-out`/`--chrome-trace` — the trace files grow during
        // the run, not after it.
        let mut streams = revmon_obs::StreamSet::none();
        let header = RunMeta { scheduler: Some("os".into()), ..RunMeta::default() };
        if let Some(path) = &outs.trace_out {
            let w: Box<dyn std::io::Write + Send> = Box::new(create(path)?);
            streams.jsonl = Some(
                revmon_obs::TraceStream::new(w, sink.ts_unit(), &header)
                    .map_err(|e| format!("writing {path}: {e}"))?,
            );
        }
        if let Some(path) = &outs.chrome {
            let w: Box<dyn std::io::Write + Send> = Box::new(create(path)?);
            streams.chrome = Some(
                revmon_obs::ChromeStream::new(w, sink.ts_unit())
                    .map_err(|e| format!("writing {path}: {e}"))?,
            );
        }
        collector = Some(revmon_obs::Collector::start(
            Arc::clone(sink),
            revmon_obs::CollectorConfig {
                epoch: std::time::Duration::from_millis(50),
                retain: if needs_history { None } else { Some(100_000) },
            },
            streams,
        ));
    }

    let pause = std::time::Duration::from_micros(200);
    let w = workload::start("aggregate", low_n, high_n, pause, high_sections);

    // Live reporting: periodically snapshot the collector's retained
    // buffer — non-consuming, so watching never steals events from the
    // trace streams or perturbs the producers.
    let watch_done = Arc::new(AtomicBool::new(false));
    let watcher = watch.then(|| {
        let sink = Arc::clone(sink.as_ref().expect("watch implies a sink"));
        let done = Arc::clone(&watch_done);
        std::thread::spawn(move || {
            let names = revmon_locks::obs::monitor_names();
            loop {
                let finished = done.load(Ordering::Acquire);
                let events = sink.snapshot();
                let a = Analysis::from_events(&events);
                eprintln!(
                    "watch: {} events | {} episodes ({} revocation, {} unresolved) | \
                     {} undo entries wasted | hottest {}",
                    a.events,
                    a.episodes.len(),
                    a.revocation_episodes(),
                    a.episodes
                        .iter()
                        .filter(|e| e.resolution == revmon_obs::Resolution::Unresolved)
                        .count(),
                    a.wasted_entries,
                    a.profiles
                        .first()
                        .map(|p| revmon_obs::monitor_label(&names, p.monitor))
                        .unwrap_or_else(|| "-".into()),
                );
                if finished {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
        })
    });

    for h in w.highs {
        h.join().map_err(|_| "high-priority thread panicked".to_string())?;
    }
    w.stop.store(true, Ordering::Release);
    for l in w.lows {
        l.join().map_err(|_| "low-priority thread panicked".to_string())?;
    }

    println!(
        "demo: {low_n} low + {high_n} high threads, {} high sections, {} low sections, counter {}",
        high_sections * high_n as u64,
        w.low_commits.load(Ordering::Relaxed),
        w.counter.read_unsynchronized()
    );

    // Stop the live reporter (snapshots are non-consuming; nothing to
    // hand back).
    if let Some(watcher) = watcher {
        watch_done.store(true, Ordering::Release);
        watcher.join().map_err(|_| "watch reporter panicked".to_string())?;
    }

    let names = revmon_locks::obs::monitor_names();
    let mut meta = RunMeta {
        governor: None, // locks governors are per-monitor, not a run-wide config
        scheduler: Some("os".into()),
        ..RunMeta::default()
    };
    let mut analysis = None;
    if let Some(sink) = &sink {
        revmon_locks::obs::uninstall();
        // The pipeline's accounting: the per-producer drop breakdown
        // only when there is something to say.
        let stats = sink.pipeline_stats();
        meta.recorded = Some(stats.recorded);
        meta.dropped = Some(stats.dropped);
        if stats.dropped > 0 {
            meta.drops_by_producer = RunMeta::encode_drop_breakdown(&stats.drops_by_producer);
        }
        // The collector has been streaming `--trace-out`/`--chrome-trace`
        // all along; stopping it writes the final catch-up batch, the
        // monitor-name table, and the trace_end counter trailer.
        if let Some(collector) = collector.take() {
            let report =
                collector.stop(&names, &meta).map_err(|e| format!("closing trace streams: {e}"))?;
            if let Some(path) = &outs.trace_out {
                eprintln!("revmon: streamed {} events to {path}", report.events_streamed);
            }
            if let Some(path) = &outs.chrome {
                eprintln!(
                    "revmon: wrote Chrome trace to {path} (open in Perfetto or chrome://tracing)"
                );
                if report.chrome_repairs > 0 {
                    eprintln!(
                        "revmon: repaired {} span(s) torn by ring-buffer overflow in {path}",
                        report.chrome_repairs
                    );
                }
            }
        }
        // The whole run, when anything reads it (`needs_history`).
        analysis = needs_history.then(|| Analysis::from_events(&sink.drain()));
    }

    // Aggregate over every monitor in the process (here: the one), the
    // library-wide view the per-monitor snapshots can't give.
    if opts.has("--stats") {
        println!("--- stats (all monitors) ---");
        let total = revmon_locks::aggregate_snapshot();
        total.for_each_field(|name, v| println!("{name:<24}: {v}"));
        if let (Some(sink), Some(analysis)) = (&sink, &analysis) {
            print_sink_stats(sink.ts_unit(), analysis, Some(&sink.pipeline_stats()))?;
        }
        println!("--- revocation phases ---");
        let mut out = Stdout;
        revmon_obs::prof::timers()
            .write_table(&mut out)
            .map_err(|e| format!("writing phase table: {e}"))?;
    }

    if let (Some(sink), Some(analysis)) = (&sink, &analysis) {
        let mut counters = Vec::new();
        let total = revmon_locks::aggregate_snapshot();
        total.for_each_field(|name, v| counters.push((name, v)));
        // The trace files were streamed; the rest come from the analysis.
        outs.export(analysis, sink.ts_unit(), Some(&sink.pipeline_stats()), &counters, &names)?;
        if watch {
            let mut out = Stdout;
            revmon_obs::write_report(&mut out, analysis, &names, sink.ts_unit())
                .map_err(|e| format!("writing report: {e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_docs_show_the_usage_the_flag_tables_render() {
        let shown: String = usage().lines().map(|l| format!("//! {l}\n")).collect();
        assert!(
            include_str!("main.rs").contains(&shown),
            "the ```text block at the top of main.rs must be exactly usage():\n{}",
            usage()
        );
    }

    #[test]
    fn unknown_misplaced_and_valueless_options_are_errors() {
        let run = COMMANDS.iter().find(|c| c.name == "run").expect("run exists");
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = |list: &[&str]| Opts::parse(run, &args(list)).err().expect("rejected");
        assert!(err(&["--polcy", "revocation"]).starts_with("unknown option `--polcy`; usage:"));
        assert!(err(&["--no-such-flag"]).contains("[--policy blocking|revocation|"));
        assert!(err(&["--fuzz-iters", "3"]).contains("unknown option"), "explore-only flag");
        assert_eq!(err(&["--stats", "--seed"]), "--seed needs a value");

        let given = args(&["--seed", "7", "--stats", "--seed", "9"]);
        let opts = Opts::parse(run, &given).expect("accepted");
        assert_eq!(opts.num::<u64>("--seed"), Ok(Some(7)));
        assert!(opts.has("--stats") && !opts.has("--trace"));
        assert_eq!(opts.get("--entry"), None);
    }

    #[test]
    fn every_command_lists_each_flag_once() {
        for cmd in COMMANDS {
            let mut names: Vec<&str> = cmd.flags().map(|(name, _)| name).collect();
            assert!(
                names.iter().all(|n| n.starts_with("--") && !n.contains(['[', ']'])),
                "{names:?}"
            );
            names.sort_unstable();
            let listed = names.len();
            names.dedup();
            assert_eq!(names.len(), listed, "duplicate flag in `revmon {}`", cmd.name);
        }
    }
}
