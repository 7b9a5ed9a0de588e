//! Serializable `.schedule.json` replay artifacts.
//!
//! A failing schedule is only useful if it can travel: out of a fuzzing
//! run, into a bug report, back into `revmon explore --replay`. The
//! artifact captures everything replay determinism depends on — the
//! program's identity (name + FNV-1a content hash), the entry method,
//! the VM configuration axes that alter execution (inversion policy,
//! RNG seed, quantum, step cap, fault injection), and the decision
//! sequence itself. An optional `expect` block names the invariant the
//! schedule is supposed to violate, so replays can assert they still
//! reproduce the original failure.
//!
//! The format is a small fixed-shape JSON document, written with
//! `format!` and read back with the workspace's one JSON reader
//! ([`revmon_obs::json`]; this workspace deliberately carries no serde
//! dependency).

use revmon_core::PolicyNameError;
use revmon_obs::json::{esc, Reader, Value};
use revmon_vm::VmConfig;

/// A portable schedule: program identity + config axes + decisions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleFile {
    /// Format version (currently 1).
    pub version: u32,
    /// Program file name (diagnostic; the hash is authoritative).
    pub program: String,
    /// FNV-1a 64-bit hash of the program source text, as fixed-width hex.
    pub program_fnv: String,
    /// Entry method name.
    pub entry: String,
    /// Inversion policy tag: `revocation`, `blocking`, `inherit`,
    /// `delegation`, or `ceiling=N`.
    pub policy: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// Scheduling quantum in ticks.
    pub quantum: u64,
    /// Instruction cap (0 = unlimited).
    pub max_steps: u64,
    /// Test-only rollback fault injection level.
    pub fault_skip_undo: u32,
    /// Simulated core count the run used. Serialized only when not 1,
    /// so single-core artifacts keep the historical byte-exact shape and
    /// pre-multicore artifacts (no `cores` key) parse as 1.
    pub cores: usize,
    /// The decision sequence.
    pub decisions: Vec<u32>,
    /// Invariant this schedule is expected to violate, if any.
    pub expect_invariant: Option<String>,
}

/// FNV-1a 64-bit hash of `text`, the schedule format's program identity.
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl ScheduleFile {
    /// Build an artifact from a run's context.
    pub fn new(
        program_name: &str,
        program_src: &str,
        entry: &str,
        cfg: &VmConfig,
        decisions: Vec<u32>,
        expect_invariant: Option<String>,
    ) -> Self {
        ScheduleFile {
            version: 1,
            program: program_name.to_string(),
            program_fnv: format!("{:016x}", fnv1a(program_src)),
            entry: entry.to_string(),
            policy: cfg.policy.to_string(),
            seed: cfg.seed,
            quantum: cfg.cost.quantum,
            max_steps: cfg.max_steps,
            fault_skip_undo: cfg.fault_skip_undo,
            cores: cfg.cores.max(1),
            decisions,
            expect_invariant,
        }
    }

    /// Apply the artifact's configuration axes onto `cfg` (policy, seed,
    /// quantum, step cap, fault level, core count).
    pub fn apply_to(&self, cfg: &mut VmConfig) -> Result<(), String> {
        cfg.policy = self.policy.parse().map_err(|e| match e {
            PolicyNameError::BadCeiling => format!("bad ceiling in `{}`", self.policy),
            PolicyNameError::Unknown => format!("unknown policy tag `{}`", self.policy),
        })?;
        cfg.seed = self.seed;
        cfg.cost.quantum = self.quantum;
        cfg.max_steps = self.max_steps;
        cfg.fault_skip_undo = self.fault_skip_undo;
        cfg.cores = self.cores.max(1);
        Ok(())
    }

    /// Verify the artifact matches `program_src` (FNV identity check).
    pub fn matches_program(&self, program_src: &str) -> bool {
        self.program_fnv == format!("{:016x}", fnv1a(program_src))
    }

    /// Serialize as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let decisions: Vec<String> = self.decisions.iter().map(|d| d.to_string()).collect();
        let expect = match &self.expect_invariant {
            None => "null".to_string(),
            Some(s) => format!("\"{}\"", esc(s)),
        };
        // The `cores` axis appears only when it deviates from 1: legacy
        // single-core artifacts stay byte-identical to the v1 shape.
        let cores_line =
            if self.cores != 1 { format!("  \"cores\": {},\n", self.cores) } else { String::new() };
        format!(
            "{{\n  \"version\": {},\n  \"program\": \"{}\",\n  \"program_fnv\": \"{}\",\n  \"entry\": \"{}\",\n  \"policy\": \"{}\",\n  \"seed\": {},\n  \"quantum\": {},\n  \"max_steps\": {},\n  \"fault_skip_undo\": {},\n{}  \"decisions\": [{}],\n  \"expect_invariant\": {}\n}}\n",
            self.version,
            esc(&self.program),
            esc(&self.program_fnv),
            esc(&self.entry),
            esc(&self.policy),
            self.seed,
            self.quantum,
            self.max_steps,
            self.fault_skip_undo,
            cores_line,
            decisions.join(", "),
            expect,
        )
    }

    /// Parse a document produced by [`ScheduleFile::to_json`] (or edited
    /// by hand within the same shape).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut r = Reader::new(text);
        let mut file = ScheduleFile {
            version: 0,
            program: String::new(),
            program_fnv: String::new(),
            entry: String::new(),
            policy: String::new(),
            seed: 0,
            quantum: 0,
            max_steps: 0,
            fault_skip_undo: 0,
            cores: 1,
            decisions: Vec::new(),
            expect_invariant: None,
        };
        r.begin(b'{')?;
        while r.more(b'}')? {
            match &*r.key()? {
                "version" => file.version = r.num()?,
                "program" => file.program = r.string()?.into_owned(),
                "program_fnv" => file.program_fnv = r.string()?.into_owned(),
                "entry" => file.entry = r.string()?.into_owned(),
                "policy" => file.policy = r.string()?.into_owned(),
                "seed" => file.seed = r.num()?,
                "quantum" => file.quantum = r.num()?,
                "max_steps" => file.max_steps = r.num()?,
                "fault_skip_undo" => file.fault_skip_undo = r.num()?,
                "cores" => file.cores = r.num::<usize>()?.max(1),
                "decisions" => {
                    file.decisions.clear();
                    r.begin(b'[')?;
                    while r.more(b']')? {
                        file.decisions.push(r.num()?);
                    }
                }
                "expect_invariant" => {
                    file.expect_invariant = match r.value()? {
                        Value::Str(s) => Some(s.into_owned()),
                        Value::Null => None,
                        Value::Num(n) => {
                            return Err(format!("expect_invariant: {n} is not a name"))
                        }
                    }
                }
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        r.end()?;
        if file.version != 1 {
            return Err(format!("unsupported schedule version {}", file.version));
        }
        Ok(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testprogs;

    fn sample() -> ScheduleFile {
        ScheduleFile::new(
            "priority_inversion.rvm",
            "; the program text",
            "main",
            &testprogs::explore_config(),
            vec![1, 0, revmon_vm::DEFAULT_CHOICE, 2],
            Some("rollback-restoration".into()),
        )
    }

    #[test]
    fn json_round_trips() {
        let f = sample();
        let parsed = ScheduleFile::parse(&f.to_json()).expect("parses");
        assert_eq!(parsed, f);
    }

    #[test]
    fn no_expectation_round_trips_as_null() {
        let mut f = sample();
        f.expect_invariant = None;
        assert!(f.to_json().contains("\"expect_invariant\": null"));
        assert_eq!(ScheduleFile::parse(&f.to_json()).unwrap(), f);
    }

    #[test]
    fn program_identity_is_content_hashed() {
        let f = sample();
        assert!(f.matches_program("; the program text"));
        assert!(!f.matches_program("; tampered text"));
        assert_eq!(f.program_fnv.len(), 16);
    }

    #[test]
    fn config_axes_survive_apply() {
        let f = sample();
        let mut cfg = revmon_vm::VmConfig::unmodified();
        f.apply_to(&mut cfg).unwrap();
        assert_eq!(cfg.policy.to_string(), f.policy);
        assert_eq!(cfg.cost.quantum, f.quantum);
        assert_eq!(cfg.seed, f.seed);
    }

    #[test]
    fn cores_axis_round_trips_and_defaults_to_one() {
        // Single-core artifacts keep the historical shape: no key.
        let f = sample();
        assert_eq!(f.cores, 1);
        assert!(!f.to_json().contains("\"cores\""));
        assert_eq!(ScheduleFile::parse(&f.to_json()).unwrap().cores, 1);

        // Multi-core artifacts carry and restore the axis.
        let mut f = sample();
        f.cores = 4;
        assert!(f.to_json().contains("\"cores\": 4"));
        let parsed = ScheduleFile::parse(&f.to_json()).unwrap();
        assert_eq!(parsed, f);
        let mut cfg = revmon_vm::VmConfig::unmodified();
        parsed.apply_to(&mut cfg).unwrap();
        assert_eq!(cfg.cores, 4);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(ScheduleFile::parse("{").is_err());
        assert!(ScheduleFile::parse("{\"version\": 2}").is_err());
        assert!(ScheduleFile::parse("{\"mystery\": 1}").is_err());
        assert!(ScheduleFile::parse("{\"version\": 1} trailing").is_err());
    }

    #[test]
    fn ascii_document_shape_is_byte_stable() {
        let mut f = sample();
        f.decisions = vec![1, 0, 2];
        assert_eq!(
            f.to_json(),
            "{\n  \"version\": 1,\n  \"program\": \"priority_inversion.rvm\",\n  \
             \"program_fnv\": \"c4da3103ce9edbd4\",\n  \"entry\": \"main\",\n  \
             \"policy\": \"revocation\",\n  \"seed\": 24301,\n  \"quantum\": 1,\n  \
             \"max_steps\": 0,\n  \"fault_skip_undo\": 0,\n  \
             \"decisions\": [1, 0, 2],\n  \"expect_invariant\": \"rollback-restoration\"\n}\n"
        );
    }

    #[test]
    fn hostile_program_paths_round_trip_exactly() {
        // Non-ASCII must not come back as mojibake, and tabs and control
        // characters must be written as escapes, not raw.
        for path in ["naïve/путь/道.rvm", "tab\there", "cr\rlf\n", "ctl\u{1}\u{1f}", "q\"b\\s/"]
        {
            let mut f = sample();
            f.program = path.to_string();
            f.expect_invariant = Some(path.to_string());
            let json = f.to_json();
            assert!(
                json.chars().all(|c| c == '\n' || c as u32 >= 0x20),
                "raw control character in {json:?}"
            );
            assert_eq!(ScheduleFile::parse(&json).as_ref(), Ok(&f), "{json}");
        }
    }

    #[test]
    fn out_of_range_numbers_are_positioned_errors_not_wraps() {
        let json = sample().to_json().replace("[1, 0, ", "[1, 4294967296, ");
        let at = json.find("4294967296").unwrap();
        assert_eq!(
            ScheduleFile::parse(&json),
            Err(format!("expected an unsigned number that fits its field at byte {at}"))
        );
        // DEFAULT_CHOICE (u32::MAX) itself is a legal decision.
        assert!(ScheduleFile::parse(&sample().to_json()).is_ok());
        let json = sample().to_json().replace("\"version\": 1", "\"version\": 4294967297");
        assert!(ScheduleFile::parse(&json).unwrap_err().contains("fits its field at byte"));
    }
}
