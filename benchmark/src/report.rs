//! One run's result: the line the driver reads, the table a person
//! reads, and the file the parent process and later sessions read.

use crate::json::{self, obj, Value};
use crate::supervise::End;
use crate::workloads::{bench_dir, Row};
use std::path::PathBuf;

/// A named reading with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// A detail row: the reported value (the steady reading of the
/// calibrated samples unless the name says otherwise) and, as wall time,
/// the count and spread of the samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Detail {
    /// The reading.
    pub reading: Reading,
    /// Samples, first quartile, median, third quartile.
    pub n: u64,
    /// First quartile of all samples.
    pub p25: f64,
    /// Median of all samples.
    pub p50: f64,
    /// Third quartile of all samples.
    pub p75: f64,
    /// Highest percentile with ten samples beyond it, e.g. `("p99", 12.5)`.
    pub tail: Option<(String, f64)>,
}

impl From<&Row> for Detail {
    fn from(r: &Row) -> Self {
        let s = r.summary.unwrap_or_default();
        Detail {
            reading: Reading { name: r.name.into(), value: r.value, unit: r.unit.into() },
            n: s.n as u64,
            p25: s.p25,
            p50: s.p50,
            p75: s.p75,
            tail: s.tail.map(|(v, label)| (label.to_string(), v)),
        }
    }
}

/// Everything one run of one workload reports.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics) or not
    /// (end-to-end metrics).
    pub traced: bool,
    /// Every output checked out.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked, timed out or failed their check.
    pub failed: u64,
    /// Up to [`MAX_FAILURE_LINES`] failure messages.
    pub failures: Vec<String>,
    /// The declared metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Reading>,
    /// Workload-specific detail rows.
    pub details: Vec<Detail>,
}

/// Failure messages kept per run (the count is always exact).
pub const MAX_FAILURE_LINES: usize = 20;

impl RunResult {
    /// failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The reading called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        obj([
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        obj([
                            ("value", Value::from(m.value)),
                            ("unit", Value::from(m.unit.as_str())),
                        ]),
                    )
                })),
            ),
        ])
        .compact()
    }

    /// The results file.
    pub fn to_json(&self) -> Value {
        let reading = |m: &Reading| {
            vec![
                ("name".to_string(), Value::from(m.name.as_str())),
                ("value".to_string(), Value::from(m.value)),
                ("unit".to_string(), Value::from(m.unit.as_str())),
            ]
        };
        obj([
            ("workload", Value::from(self.workload.as_str())),
            ("seed", Value::from(self.seed)),
            ("traced", Value::from(self.traced)),
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("fail_ratio", Value::from(self.fail_ratio())),
            (
                "failures",
                Value::Arr(self.failures.iter().map(|f| Value::from(f.as_str())).collect()),
            ),
            ("metrics", Value::Arr(self.metrics.iter().map(|m| Value::Obj(reading(m))).collect())),
            (
                "details",
                Value::Arr(
                    self.details
                        .iter()
                        .map(|d| {
                            let mut members = reading(&d.reading);
                            members.extend([
                                ("n".to_string(), Value::from(d.n)),
                                ("p25".to_string(), Value::from(d.p25)),
                                ("p50".to_string(), Value::from(d.p50)),
                                ("p75".to_string(), Value::from(d.p75)),
                            ]);
                            if let Some((label, v)) = &d.tail {
                                members.push(("tail".to_string(), Value::from(label.as_str())));
                                members.push(("tail_value".to_string(), Value::from(*v)));
                            }
                            Value::Obj(members)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Read a results file back.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let need = |k: &str| v.get(k).ok_or_else(|| format!("results file has no `{k}`"));
        let reading = |m: &Value| -> Result<Reading, String> {
            Ok(Reading {
                name: m.get("name").and_then(Value::as_str).ok_or("reading without name")?.into(),
                value: m.get("value").and_then(Value::as_f64).ok_or("reading without value")?,
                unit: m.get("unit").and_then(Value::as_str).ok_or("reading without unit")?.into(),
            })
        };
        Ok(RunResult {
            workload: need("workload")?.as_str().ok_or("workload is not a string")?.into(),
            seed: need("seed")?.as_u64().ok_or("seed is not a count")?,
            traced: need("traced")?.as_bool().ok_or("traced is not a boolean")?,
            correct: need("correct")?.as_bool().ok_or("correct is not a boolean")?,
            attempted: need("attempted")?.as_u64().ok_or("attempted is not a count")?,
            failed: need("failed")?.as_u64().ok_or("failed is not a count")?,
            failures: need("failures")?
                .as_arr()
                .ok_or("failures is not a list")?
                .iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect(),
            metrics: need("metrics")?
                .as_arr()
                .ok_or("metrics is not a list")?
                .iter()
                .map(reading)
                .collect::<Result<_, _>>()?,
            // Detail rows are for people; no reader of the file needs them back.
            details: Vec::new(),
        })
    }

    /// The table a person reads.
    pub fn print(&self) {
        let kind = if self.traced { "traced run: per-layer metrics" } else { "end-to-end metrics" };
        println!("== {} (seed {}) — {kind}", self.workload, self.seed);
        for m in &self.metrics {
            println!("  {:<40} {:>16} {}", m.name, fmt_value(m.value), m.unit);
        }
        if !self.details.is_empty() {
            println!(
                "  -- detail: steady reading of the calibrated samples  [wall-time p25 / p50 / p75, tail, n]"
            );
        }
        for d in &self.details {
            let tail = d
                .tail
                .as_ref()
                .map_or(String::new(), |(label, v)| format!("  {label} {}", fmt_value(*v)));
            let spread = if d.n > 0 {
                format!(
                    "  [{} / {} / {}{tail}  n={}]",
                    fmt_value(d.p25),
                    fmt_value(d.p50),
                    fmt_value(d.p75),
                    d.n
                )
            } else {
                String::new()
            };
            println!(
                "  {:<40} {:>16} {}{spread}",
                d.reading.name,
                fmt_value(d.reading.value),
                d.reading.unit
            );
        }
        println!(
            "  fail_ratio {} ({} failed of {} attempted){}",
            fmt_value(self.fail_ratio()),
            self.failed,
            self.attempted,
            if self.correct { "" } else { "  ** INCORRECT **" }
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        if self.failed as usize > self.failures.len() {
            println!("  … and {} more", self.failed as usize - self.failures.len());
        }
    }
}

/// Four significant decimals for small values, whole numbers for counts.
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// The result of a workload whose child process produced none: one
/// operation attempted, one failed — never a silent gap.
pub fn failure_result(end: &End) -> RunResult {
    RunResult {
        workload: String::new(),
        seed: 0,
        traced: false,
        correct: false,
        attempted: 1,
        failed: 1,
        failures: vec![end.describe()],
        metrics: Vec::new(),
        details: Vec::new(),
    }
}

/// `benchmark/results/`.
pub fn results_dir() -> PathBuf {
    bench_dir().join("results")
}

/// `results/<workload>.json` (untraced) or `results/layers.<workload>.json` (traced).
pub fn result_path(workload: &str, traced: bool) -> PathBuf {
    let file = if traced { format!("layers.{workload}.json") } else { format!("{workload}.json") };
    results_dir().join(file)
}

/// Write the results file for `r`.
pub fn write_result(r: &RunResult) -> std::io::Result<PathBuf> {
    let path = result_path(&r.workload, r.traced);
    std::fs::create_dir_all(results_dir())?;
    std::fs::write(&path, r.to_json().pretty())?;
    Ok(path)
}

/// Read the results file a child wrote.
pub fn read_result(workload: &str, traced: bool) -> Result<RunResult, String> {
    let path = result_path(workload, traced);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    RunResult::from_json(&json::parse(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "vm_fig5".into(),
            seed: 7,
            traced: false,
            correct: true,
            attempted: 1000,
            failed: 0,
            failures: vec![],
            metrics: vec![
                Reading { name: "latency_us".into(), value: 1203.4017, unit: "us".into() },
                Reading { name: "setup_s".into(), value: 0.0081273, unit: "s".into() },
            ],
            details: vec![Detail {
                reading: Reading { name: "sweep_s".into(), value: 0.5, unit: "s".into() },
                n: 1200,
                p25: 0.5,
                p50: 0.6,
                p75: 0.7,
                tail: Some(("p99".into(), 1.5)),
            }],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample().result_line();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("latency_us").unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1203.4017));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("us"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn results_file_round_trips() {
        let mut r = sample();
        let file = r.to_json().pretty();
        assert!(file.contains("\"sweep_s\"") && file.contains("\"tail\": \"p99\""));
        let back = RunResult::from_json(&json::parse(&file).unwrap()).unwrap();
        r.details.clear(); // written for people, not read back
        assert_eq!(back, r);
        assert!(RunResult::from_json(&obj([("workload", Value::from("x"))])).is_err());
    }

    #[test]
    fn fail_ratio_counts_failed_over_attempted() {
        let mut r = sample();
        assert_eq!(r.fail_ratio(), 0.0);
        r.failed = 250;
        assert_eq!(r.fail_ratio(), 0.25);
        r.attempted = 0;
        r.failed = 0;
        assert_eq!(r.fail_ratio(), 0.0);
    }
}
