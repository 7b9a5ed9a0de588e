//! Every metric the benchmark reports, by name. The names, units,
//! directions and bounds are declared once, in `BENCHMARK.json` at the
//! repository root, which is compiled in and read with this package's
//! own JSON parser; the code only says where each end-to-end value comes
//! from (`run.rs`) and which readings fill the per-layer ledger.

use crate::json::{self, Value};
use std::sync::OnceLock;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller readings are better.
    Lower,
    /// Larger readings are better.
    Higher,
}

/// A declared metric. End-to-end metrics are reported by every
/// workload's untraced run and carry a bound; per-layer metrics are
/// reported by the traced run only and carry none. The prefix of a
/// per-layer name before the first `.` is the layer (crate).
#[derive(Debug)]
pub struct Metric {
    /// Name in `BENCHMARK.json` and in every result line.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
}

/// Steady calibrated time of the workload's set-up, repeated in each run.
pub const SETUP_S: &str = "setup_s";
/// `VmHWM` of the process that ran the workload.
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
/// Time a caller waits for one unit of the workload's result.
pub const LATENCY_US: &str = "latency_us";
/// Useful work completed per second.
pub const WORK_PER_S: &str = "work_per_s";

/// What `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Declared {
    /// `run_seconds`: the default measured window.
    pub run_seconds: f64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// The end-to-end metrics. What `latency_us` and `work_per_s` mean on
    /// each workload is in that workload's module docs and the README.
    pub end_to_end: Vec<Metric>,
    /// The per-layer ledger. Which end-to-end metric each reading should
    /// move, and on which workload, is tabulated in the README; on every
    /// other workload the prediction is no change.
    pub per_layer: Vec<Metric>,
}

fn parse_declared(text: &str) -> Result<Declared, String> {
    let doc = json::parse(text)?;
    let list =
        |key: &str| doc.get(key).and_then(Value::as_arr).ok_or_else(|| format!("no list `{key}`"));
    let string = |m: &Value, key: &str| {
        m.get(key).and_then(Value::as_str).map(String::from).ok_or_else(|| format!("no `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let better = match string(m, "better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("`better` is `{other}`")),
                };
                Ok(Metric {
                    name: string(m, "name")?,
                    unit: string(m, "unit")?,
                    better,
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Declared {
        run_seconds: doc.get("run_seconds").and_then(Value::as_f64).ok_or("no `run_seconds`")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| string(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The declarations of the `BENCHMARK.json` this binary was built beside.
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        parse_declared(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json (compiled in): {e}"))
    })
}

/// Named readings collected during a run.
#[derive(Clone, Debug, Default)]
pub struct Readings(Vec<(&'static str, f64)>);

impl Readings {
    /// Record `name = value`. A second reading of one name replaces the
    /// first (the traced workload's own numbers win over a ledger pass).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Record every pair of `other`.
    pub fn extend(&mut self, other: Readings) {
        for (n, v) in other.0 {
            self.set(n, v);
        }
    }

    /// The reading for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let d = declared();
        assert_eq!(d.workloads, crate::workloads::NAMES);
        assert!((1.0..=60.0).contains(&d.run_seconds) && d.run_seconds.fract() == 0.0);
        // run.rs has a source for exactly these four.
        let names: Vec<&str> = d.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, [LATENCY_US, WORK_PER_S, PEAK_RSS_MB, SETUP_S]);
        for m in &d.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = d.end_to_end.iter().find(|m| m.name == SETUP_S).expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!((1..=128).contains(&d.per_layer.len()));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()), "per-layer metrics carry no bound");
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let d = declared();
        let mut all: Vec<&str> =
            d.end_to_end.iter().chain(&d.per_layer).map(|m| m.name.as_str()).collect();
        for n in &all {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "duplicate metric name");
    }

    #[test]
    fn a_broken_declaration_is_named() {
        assert!(parse_declared("{}").unwrap_err().contains("run_seconds"));
        let no_dir = r#"{"run_seconds": 1, "workloads": [], "per_layer": [],
            "end_to_end": [{"name": "x", "unit": "s", "better": "faster"}]}"#;
        assert!(parse_declared(no_dir).unwrap_err().contains("faster"));
    }

    #[test]
    fn readings_replace_on_second_set() {
        let mut r = Readings::default();
        r.set("a", 1.0);
        r.set("a", 2.0);
        assert_eq!(r.get("a"), Some(2.0));
        assert_eq!(r.get("b"), None);
    }
}
