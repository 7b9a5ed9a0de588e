//! Running workloads as supervised child processes, singly and in sets,
//! and judging whether sets of the same build agree.
//!
//! A *set* is what the acceptance driver does for one build: every
//! workload run ten times, each with another seed, and per metric
//! the median and the quartile distance of those readings. Two sets of
//! one build must agree: every spread within the metric's bound
//! (`setup_s` excepted) and no later median worse than the first by
//! more than the bound. A set also makes one traced run per workload;
//! the exact counts among the per-layer metrics must be identical from
//! set to set.

use crate::host;
use crate::json::{obj, Value};
use crate::metrics::{declared, Better, SETUP_S};
use crate::report::{self, fmt_value, RunResult};
use crate::run::Request;
use crate::stats;
use crate::supervise;
use crate::workloads::{bench_dir, NAMES};
use std::fmt::Write as _;
use std::process::Command;
use std::time::Duration;

/// Longest a child may run beyond its measured window: set-up, ledger
/// passes, probes and checks. The contract's limit for a run is 180 s.
const GRACE: Duration = Duration::from_secs(90);

/// Runs per workload in a set (the acceptance driver makes ten).
const RUNS_PER_SET: u64 = 10;

/// Run `req` in a child process under the timeout. The child prints the
/// result line (the driver's contract) as its last line of output; for a
/// child that dies or hangs the parent prints the line of a failure
/// result: one operation attempted, one failed.
pub fn run_supervised(req: &Request) -> RunResult {
    // A stale file must not pass for this run's result.
    let _ = std::fs::remove_file(report::result_path(&req.workload, req.traced));
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(req, &supervise::End::NotStarted(e.to_string())),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", &req.workload])
        .args(["--seed", &req.seed.to_string()])
        .args(["--seconds", &req.seconds.to_string()])
        .args(["--trace", if req.traced { "1" } else { "0" }]);
    if req.quick {
        cmd.arg("--quick");
    }
    let timeout = (Duration::from_secs_f64(req.seconds) + GRACE).min(Duration::from_secs(170));
    let end = supervise::run(&mut cmd, timeout);
    // Exit code 1 is a run that completed and reported failed checks.
    let completed = match end {
        supervise::End::Exited(Some(code @ (0 | 1))) => Some(code == 0),
        _ => None,
    };
    match (completed, report::read_result(&req.workload, req.traced)) {
        (Some(_), Ok(result)) => result,
        // The child finished and printed its own result; only its results
        // file is unreadable (a read-only checkout). Its exit code stands.
        (Some(correct), Err(_)) => RunResult {
            workload: req.workload.clone(),
            seed: req.seed,
            traced: req.traced,
            correct,
            attempted: 1,
            failed: u64::from(!correct),
            failures: Vec::new(),
            metrics: Vec::new(),
            details: Vec::new(),
        },
        (None, _) => failed(req, &end),
    }
}

fn failed(req: &Request, end: &supervise::End) -> RunResult {
    let mut r = report::failure_result(end);
    r.workload.clone_from(&req.workload);
    r.seed = req.seed;
    r.traced = req.traced;
    r.print();
    println!("{}", r.result_line());
    r
}

/// `--all`: every workload once, each in its own child. Returns whether
/// every run was correct.
pub fn all(base: &Request) -> bool {
    let mut ok = true;
    let mut history = String::new();
    let from = Provenance::here();
    for name in NAMES {
        let r = run_supervised(&Request { workload: name.into(), ..base.clone() });
        ok &= r.correct && r.failed == 0;
        for m in &r.metrics {
            history_line(&mut history, &from, name, &m.name, &[m.value]);
        }
    }
    // A quick run's timings are not comparable with full runs: not recorded.
    if !base.quick {
        append_history(&history);
    }
    ok
}

/// Per `(workload, metric)`: the readings of one set's runs.
type SetReadings = Vec<(String, String, Vec<f64>)>;

/// One set: [`RUNS_PER_SET`] untraced runs and one traced run per workload.
struct Set {
    end_to_end: SetReadings,
    /// `(workload, metric, value)` for the exact counts of the traced runs.
    counts: Vec<(String, String, f64)>,
    incorrect: Vec<String>,
}

fn run_set(base: &Request) -> Set {
    let mut set = Set { end_to_end: Vec::new(), counts: Vec::new(), incorrect: Vec::new() };
    for name in NAMES {
        let end_to_end = &declared().end_to_end;
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); end_to_end.len()];
        for k in 0..RUNS_PER_SET {
            let req = Request {
                workload: name.into(),
                seed: base.seed.wrapping_add(k),
                traced: false,
                ..base.clone()
            };
            let r = run_supervised(&req);
            if !r.correct || r.failed != 0 {
                set.incorrect.push(format!(
                    "{name} seed {}: {} of {} failed",
                    req.seed, r.failed, r.attempted
                ));
            }
            for (slot, m) in per_metric.iter_mut().zip(end_to_end) {
                slot.extend(r.metric(&m.name));
            }
        }
        for (values, m) in per_metric.into_iter().zip(end_to_end) {
            set.end_to_end.push((name.to_string(), m.name.clone(), values));
        }
        let traced =
            run_supervised(&Request { workload: name.into(), traced: true, ..base.clone() });
        if !traced.correct {
            set.incorrect
                .push(format!("{name} traced: {} of {} failed", traced.failed, traced.attempted));
        }
        let exact =
            |m: &&crate::metrics::Metric| m.unit == "count" && !m.name.starts_with("locks.");
        for m in declared().per_layer.iter().filter(exact) {
            if let Some(v) = traced.metric(&m.name) {
                set.counts.push((name.to_string(), m.name.clone(), v));
            }
        }
    }
    set
}

/// Whether `later` is worse than `first` by more than `bound` of `first`.
fn worse_by_more_than(better: Better, first: f64, later: f64, bound: f64) -> bool {
    match better {
        Better::Lower => later > first * (1.0 + bound),
        Better::Higher => later < first * (1.0 - bound),
    }
}

/// The verdict on sets of one build: the report and whether they agree.
fn judge(sets: &[Set]) -> (String, bool) {
    let mut md = String::new();
    let mut agree = true;
    let _ = writeln!(md, "| workload | metric | bound | medians | spreads | verdict |");
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    for (i, (workload, metric, _)) in sets[0].end_to_end.iter().enumerate() {
        let def =
            declared().end_to_end.iter().find(|m| m.name == *metric).expect("a declared metric");
        let bound = def.bound.expect("end-to-end metrics have a bound");
        let medians: Vec<f64> =
            sets.iter().map(|s| stats::quartiles(&s.end_to_end[i].2).1).collect();
        let spreads: Vec<f64> = sets.iter().map(|s| stats::spread(&s.end_to_end[i].2)).collect();
        let mut problems = Vec::new();
        if def.name != SETUP_S && spreads.iter().any(|s| *s > bound) {
            problems.push("spread over bound");
        }
        if medians[1..].iter().any(|m| worse_by_more_than(def.better, medians[0], *m, bound)) {
            problems.push("median worse than the first set's by more than the bound");
        }
        agree &= problems.is_empty();
        let list = |xs: &[f64]| xs.iter().map(|x| fmt_value(*x)).collect::<Vec<_>>().join(" · ");
        let _ = writeln!(
            md,
            "| {workload} | {metric} ({}) | {} | {} | {} | {} |",
            def.unit,
            bound,
            list(&medians),
            list(&spreads),
            if problems.is_empty() { "ok".to_string() } else { problems.join("; ") }
        );
    }
    let mut differing = Vec::new();
    for (i, (workload, metric, v)) in sets[0].counts.iter().enumerate() {
        if sets[1..].iter().any(|s| s.counts.get(i).map(|c| c.2) != Some(*v)) {
            differing.push(format!("{workload}/{metric}"));
        }
    }
    let _ = writeln!(
        md,
        "\nExact counts (`vm.*`, `explore.*`, unit `count`) of the traced runs, {} readings per set: {}",
        sets[0].counts.len(),
        if differing.is_empty() { "identical in every set.".to_string() } else { format!("DIFFER: {}", differing.join(", ")) }
    );
    agree &= differing.is_empty();
    let incorrect: Vec<&String> = sets.iter().flat_map(|s| &s.incorrect).collect();
    let _ = writeln!(
        md,
        "\nRuns with failed operations: {}",
        if incorrect.is_empty() { "none.".to_string() } else { format!("{incorrect:?}") }
    );
    agree &= incorrect.is_empty();
    (md, agree)
}

/// `--repeat N [--agree]`: N sets back to back. With `--agree` the
/// verdict decides the exit code and the report is also written to
/// `results/AGREEMENT.md`.
pub fn repeat(base: &Request, sets: usize, agree: bool) -> bool {
    let done: Vec<Set> = (0..sets.max(1)).map(|_| run_set(base)).collect();
    let (table, agreed) = judge(&done);
    let from = Provenance::here();
    let mut md = String::new();
    let _ = writeln!(md, "# Agreement of {} sets of one build\n", done.len());
    let _ = writeln!(
        md,
        "`--repeat {} --seconds {} --seed {}` ({RUNS_PER_SET} runs per workload and set) at commit \
         `{}` on {}.\n",
        done.len(),
        base.seconds,
        base.seed,
        from.commit,
        from.host
    );
    let _ = writeln!(
        md,
        "Per set and metric: the median of the runs' readings and their quartile distance as a \
         share of it (Python's `statistics.quantiles(values, n=4)`), as the acceptance driver \
         computes them. Sets agree when every spread but `setup_s`'s is within the bound and no \
         later median is worse than the first by more than the bound.\n"
    );
    md.push_str(&table);
    let _ = writeln!(
        md,
        "\n**Verdict: {}**",
        if agreed { "the sets agree." } else { "THE SETS DISAGREE." }
    );
    println!("\n{md}");
    if !base.quick {
        let mut history = String::new();
        for set in &done {
            for (workload, metric, values) in &set.end_to_end {
                history_line(&mut history, &from, workload, metric, values);
            }
        }
        append_history(&history);
    }
    if agree {
        let path = report::results_dir().join("AGREEMENT.md");
        if let Err(e) = std::fs::write(&path, &md) {
            println!("warning: could not write {}: {e}", path.display());
        }
    }
    agreed || !agree
}

/// Short commit hash of the checkout, or `unknown` outside a git repository.
fn commit() -> String {
    Command::new("git")
        .arg("-C")
        .arg(bench_dir())
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The build and the host a history line was measured on.
struct Provenance {
    commit: String,
    host: String,
}

impl Provenance {
    fn here() -> Self {
        Provenance { commit: commit(), host: host::fingerprint() }
    }
}

/// One `HISTORY.jsonl` line: commit, workload, metric, median, quartiles, n, host.
fn history_line(out: &mut String, from: &Provenance, workload: &str, metric: &str, values: &[f64]) {
    if values.is_empty() {
        return;
    }
    let (p25, median, p75) = stats::quartiles(values);
    let line = obj([
        ("commit", Value::from(from.commit.as_str())),
        ("workload", Value::from(workload)),
        ("metric", Value::from(metric)),
        ("median", Value::from(median)),
        ("p25", Value::from(p25)),
        ("p75", Value::from(p75)),
        ("n", Value::from(values.len() as u64)),
        ("host", Value::from(from.host.as_str())),
    ]);
    out.push_str(&line.compact());
    out.push('\n');
}

fn append_history(lines: &str) {
    use std::io::Write as _;
    let path = report::results_dir().join("HISTORY.jsonl");
    let appended = std::fs::create_dir_all(report::results_dir())
        .and_then(|()| std::fs::OpenOptions::new().create(true).append(true).open(&path))
        .and_then(|mut f| f.write_all(lines.as_bytes()));
    if let Err(e) = appended {
        println!("warning: could not append to {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(latency: &[f64], count: f64) -> Set {
        Set {
            end_to_end: vec![("vm_fig5".into(), "latency_us".into(), latency.to_vec())],
            counts: vec![("vm_fig5".into(), "vm.instructions".into(), count)],
            incorrect: vec![],
        }
    }

    #[test]
    fn sets_agree_within_the_bound_and_disagree_beyond_it() {
        let a = [100.0, 101.0, 102.0, 103.0, 100.5, 101.5, 102.5, 99.5, 100.2, 101.1];
        let near: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        let far: Vec<f64> = a.iter().map(|v| v * 1.30).collect();
        assert!(judge(&[set(&a, 5.0), set(&near, 5.0)]).1);
        assert!(!judge(&[set(&a, 5.0), set(&far, 5.0)]).1, "30 % worse is beyond the bound");
        assert!(
            judge(&[set(&far, 5.0), set(&a, 5.0)]).1,
            "better than the first set is not a regression"
        );
        assert!(!judge(&[set(&a, 5.0), set(&a, 6.0)]).1, "an exact count that moved");
        let wide = [50.0, 100.0, 150.0, 60.0, 140.0, 100.0, 90.0, 110.0, 40.0, 160.0];
        let (md, ok) = judge(&[set(&wide, 5.0), set(&wide, 5.0)]);
        assert!(!ok && md.contains("spread over bound"));
    }

    #[test]
    fn worse_means_higher_for_times_and_lower_for_rates() {
        assert!(worse_by_more_than(Better::Lower, 100.0, 111.0, 0.10));
        assert!(!worse_by_more_than(Better::Lower, 100.0, 109.0, 0.10));
        assert!(worse_by_more_than(Better::Higher, 100.0, 89.0, 0.10));
        assert!(!worse_by_more_than(Better::Higher, 100.0, 91.0, 0.10));
    }

    #[test]
    fn history_lines_are_one_json_object_each() {
        let mut out = String::new();
        let from = Provenance { commit: "abc1234".into(), host: "2 cores".into() };
        history_line(&mut out, &from, "vm_fig5", "latency_us", &[3.0, 1.0, 2.0, 4.0]);
        history_line(&mut out, &from, "vm_fig5", "latency_us", &[]);
        assert_eq!(out.lines().count(), 1);
        let v = crate::json::parse(out.trim()).unwrap();
        assert_eq!(v.get("median").and_then(Value::as_f64), Some(2.5));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(4));
    }
}
