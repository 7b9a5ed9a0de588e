//! The repository's benchmark: four workloads, four end-to-end metrics
//! reported by each, and a per-layer ledger traced from outside. See
//! `README.md` beside this package and `BENCHMARK.json` at the root.
//!
//! ```text
//! revmon-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! revmon-benchmark --all             [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! revmon-benchmark --repeat N [--agree] [--seed N] [--seconds S] [--quick]
//! revmon-benchmark --bless
//! ```
//!
//! Every workload runs in a child process of its own under a wall-clock
//! timeout. The last line of standard output of a `--workload` run is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. The
//! exit code is non-zero when any check failed.

mod host;
mod json;
mod metrics;
mod phases;
mod probes;
mod report;
mod run;
mod sets;
mod stats;
mod supervise;
mod trace;
mod workloads;

use run::Request;
use std::process::ExitCode;

/// Measured window of a `--quick` run (the default window is
/// `run_seconds` of `BENCHMARK.json`).
const QUICK_SECONDS: f64 = 2.0;

const USAGE: &str =
    "usage: revmon-benchmark (--workload <name> | --all | --repeat N [--agree] | --bless) \
                     [--seed N] [--seconds S] [--trace 0|1] [--quick]";

struct Cli {
    workload: Option<String>,
    all: bool,
    repeat: Option<usize>,
    agree: bool,
    bless: bool,
    child: bool,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        repeat: None,
        agree: false,
        bless: false,
        child: false,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be above 0 and at most 60".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got `{other}`")),
                }
            }
            "--repeat" => {
                cli.repeat = Some(value("a count")?.parse().map_err(|_| "--repeat needs a count")?)
            }
            "--all" => cli.all = true,
            "--agree" => cli.agree = true,
            "--bless" => cli.bless = true,
            "--quick" => cli.quick = true,
            "--child" => cli.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let modes = [cli.workload.is_some(), cli.all, cli.repeat.is_some(), cli.bless];
    if modes.iter().filter(|m| **m).count() != 1 {
        return Err("give exactly one of --workload, --all, --repeat, --bless".into());
    }
    if cli.repeat == Some(0) {
        return Err("--repeat needs at least 1".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("revmon-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let req = Request {
        workload: cli.workload.clone().unwrap_or_default(),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick {
            QUICK_SECONDS
        } else {
            metrics::declared().run_seconds
        }),
        traced: cli.traced,
        quick: cli.quick,
    };
    let ok = if cli.bless {
        match run::bless() {
            Ok(paths) => {
                for p in paths {
                    println!("blessed {}", p.display());
                }
                true
            }
            Err(e) => {
                eprintln!("revmon-benchmark: --bless: {e}");
                false
            }
        }
    } else if cli.child {
        match run::run(&req) {
            Ok(result) => {
                println!("{}", result.result_line());
                result.correct
            }
            Err(e) => {
                eprintln!("revmon-benchmark: {e}");
                return ExitCode::from(2);
            }
        }
    } else if let Some(sets) = cli.repeat {
        sets::repeat(&req, sets, cli.agree)
    } else if cli.all {
        sets::all(&req)
    } else {
        let declared = &metrics::declared().workloads;
        if !declared.contains(&req.workload) && req.workload != workloads::LEDGER_ONLY {
            eprintln!(
                "revmon-benchmark: unknown workload `{}` (one of: {}, {})",
                req.workload,
                declared.join(", "),
                workloads::LEDGER_ONLY
            );
            return ExitCode::from(2);
        }
        let r = sets::run_supervised(&req);
        r.correct && r.failed == 0
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
