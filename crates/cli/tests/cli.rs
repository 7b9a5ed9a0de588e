//! End-to-end CLI tests over the sample `.rvm` programs: each behaviour
//! of the shipped binary that the repository promises is asserted here,
//! once, and runs against whichever build runs the tests.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_revmon"))
}

fn program(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs").join(name);
    p.to_string_lossy().into_owned()
}

/// Every program of the corpus, by path, in name order.
fn corpus() -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    let mut paths: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rvm"))
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    paths.sort();
    paths
}

/// `revmon args…`, which must succeed; its stdout.
fn ok(args: &[&str]) -> String {
    let out = bin().args(args).output().unwrap();
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

/// A directory of the test's own, named by process id and test name, so
/// that two runs on one host — a debug and a release build, or two
/// checkouts — never write the same file. It is removed when the test
/// passes; a failing test leaves it behind to look at.
struct TestDir(PathBuf);

impl TestDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("revmon-cli-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    /// The path of `name` in the directory, as the CLI takes it.
    fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[test]
fn run_counter_emits_total() {
    let out = bin().args(["run", &program("counter.rvm"), "--stats"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("4000"), "expected the counter total, got:\n{stdout}");
    assert!(stdout.contains("rollbacks"), "stats block missing");
}

#[test]
fn priority_inversion_waits_less_on_modified_vm() {
    let wait_of = |config: &str| -> i64 {
        let out = bin()
            .args(["run", &program("priority_inversion.rvm"), "--config", config])
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout
            .lines()
            .filter_map(|l| l.trim().parse::<i64>().ok())
            .next()
            .unwrap_or_else(|| panic!("no emitted wait time in:\n{stdout}"))
    };
    let modified = wait_of("modified");
    let unmodified = wait_of("unmodified");
    assert!(
        modified < unmodified / 2,
        "revocation should slash the high-priority wait: modified={modified} unmodified={unmodified}"
    );
}

#[test]
fn deadlock_breaks_on_modified_vm_and_stalls_on_unmodified() {
    let ok = bin().args(["run", &program("deadlock.rvm")]).output().unwrap();
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).contains('2'));

    let stalled =
        bin().args(["run", &program("deadlock.rvm"), "--config", "unmodified"]).output().unwrap();
    assert!(!stalled.status.success(), "blocking VM must report the deadlock");
    assert!(String::from_utf8_lossy(&stalled.stderr).contains("no runnable threads"));
}

#[test]
fn dis_shows_injected_scopes_after_rewrite() {
    let plain = bin().args(["dis", &program("counter.rvm")]).output().unwrap();
    assert!(plain.status.success());
    let plain = String::from_utf8_lossy(&plain.stdout).into_owned();
    assert!(plain.contains("monitorenter"));
    assert!(!plain.contains("savestate"));

    let rewritten = bin().args(["dis", &program("counter.rvm"), "--rewrite"]).output().unwrap();
    let rewritten = String::from_utf8_lossy(&rewritten.stdout).into_owned();
    assert!(rewritten.contains("savestate"));
    assert!(rewritten.contains("rollbackhandler"));
}

#[test]
fn verify_accepts_samples_and_rejects_garbage() {
    let corpus = corpus();
    assert!(corpus.len() >= 8, "corpus: {corpus:?}");
    for p in &corpus {
        assert!(ok(&["verify", p]).contains(": OK ("), "{p}");
        assert!(ok(&["verify", p, "--rewrite"]).contains(": OK ("), "{p} rewritten");
        assert!(ok(&["dis", p, "--rewrite"]).contains("method main("), "{p} rewritten");
    }
    let dir = TestDir::new("verify");
    let bad = dir.file("bad.rvm");
    std::fs::write(&bad, ".method m params=0 locals=0\n    pop\n    retvoid\n.end\n").unwrap();
    let out = bin().args(["verify", &bad]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("stack"));

    // Hostile source is a positioned error with exit status 1, never a
    // panic, an abort or a different program: `.statics -1` used to
    // abort the process asking for 2^32 slots, and `getfield 65536` to
    // assemble as `getfield +0`.
    let hostile = ".statics -1\n.method main params=0\n    new fields=1\n    getfield 65536\n    retvoid\n.end\n";
    for (src, at) in [
        (hostile, ": line 1: .statics count -1 is out of range"),
        (&hostile[12..], ": line 3: field offset 65536 is out of range"),
    ] {
        let file = dir.file("hostile.rvm");
        std::fs::write(&file, src).unwrap();
        let out = bin().args(["run", &file]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(at), "{stderr}");
    }
}

#[test]
fn unknown_flags_and_files_fail_cleanly() {
    let out = bin().args(["run", "/nonexistent.rvm"]).output().unwrap();
    assert!(!out.status.success());
    let out = bin().args(["frobnicate", &program("counter.rvm")]).output().unwrap();
    assert!(!out.status.success());
    // A typo'd option must not silently run the default policy.
    let out = bin()
        .args(["run", &program("counter.rvm"), "--polcy", "revocation", "--no-such-flag"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option `--polcy`"), "stderr: {stderr}");
    assert!(stderr.contains("[--policy "), "accepted options not named: {stderr}");
    assert!(out.stdout.is_empty(), "the program must not have run");
    // Nor may an unknown policy name.
    let out =
        bin().args(["run", &program("counter.rvm"), "--policy", "delegation"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown policy `delegation`"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "the program must not have run");
}

#[test]
fn trace_flag_prints_monitor_events() {
    let out = bin().args(["run", &program("priority_inversion.rvm"), "--trace"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Acquire"), "trace missing:\n{stdout}");
}

/// A reader that closes the pipe early has all it wanted: the command
/// ends its output there and exits 0, with nothing on stderr. The trace
/// (≈ 258 KB) is larger than a pipe buffer, so writing it is certain to
/// meet the closed read end.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let mut child = bin()
        .args(["run", &program("delegation_storm.rvm"), "--trace"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {stderr}", out.status);
    assert!(stderr.is_empty(), "stderr: {stderr}");
}

#[test]
fn run_trace_out_then_analyze_reports_the_revocation_episode() {
    let dir = TestDir::new("analyze");
    let trace = dir.file("pi.jsonl");
    ok(&["run", &program("priority_inversion.rvm"), "--trace-out", &trace]);

    // Text report: named monitor, revocation resolution, wasted work.
    let report = ok(&["analyze", &trace]);
    assert!(report.contains("inversion episodes: 1"), "report:\n{report}");
    assert!(report.contains("monitor \"lock\""), "monitor name missing:\n{report}");
    assert!(report.contains("revocation"), "resolution missing:\n{report}");
    assert!(report.contains("undo entries rolled back"), "wasted work missing:\n{report}");

    // JSON report + Prometheus export.
    let prom = dir.file("pi.prom");
    let json = ok(&["analyze", &trace, "--json", "--prometheus", &prom]);
    assert!(json.contains("\"resolutions\": {\"revocation\": 1"), "json:\n{json}");
    assert!(json.contains("\"monitor_name\": \"lock\""), "json:\n{json}");
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_text.contains("revmon_episodes_total{resolution=\"revocation\"} 1"));
    assert!(prom_text.contains("revmon_monitor_acquires_total{monitor=\"lock\"}"));

    // The importer decodes the exporter's exact spelling in a fast stage
    // and hands every other line to the general JSON reader. Spaced after
    // every `:` and `,`, no line is canonical any more, so the same trace
    // goes through the other stage and must analyze to the same bytes.
    let exported = std::fs::read_to_string(&trace).unwrap();
    let respelled: String =
        exported.lines().map(|l| l.replace("\":", "\": ").replace(",\"", ", \"") + "\n").collect();
    for (a, b) in exported.lines().zip(respelled.lines()) {
        assert_ne!(a, b, "the re-spelling left a line as exported");
    }
    let spaced = dir.file("pi.spaced.jsonl");
    std::fs::write(&spaced, respelled).unwrap();
    assert_eq!(ok(&["analyze", &spaced]), report, "text report differs between spellings");
    assert_eq!(ok(&["analyze", &spaced, "--json"]), json, "--json differs between spellings");
}

#[test]
fn analyze_tolerates_damage_and_rejects_empty_input() {
    let dir = TestDir::new("damage");
    let damaged = dir.file("damaged.jsonl");
    std::fs::write(
        &damaged,
        "{\"ts\":10,\"thread\":1,\"monitor\":3,\"kind\":\"Acquire\"}\nnot json\n",
    )
    .unwrap();
    let out = bin().args(["analyze", &damaged]).output().unwrap();
    assert!(out.status.success(), "damage must degrade, not fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("skipped 1 damaged line"));

    // A line that is not even UTF-8 is one more damaged line, not a
    // failed read: the report is the clean trace's plus the damage note.
    let clean = dir.file("clean.jsonl");
    ok(&["run", &program("priority_inversion.rvm"), "--trace-out", &clean]);
    let mut bytes = std::fs::read(&clean).unwrap();
    let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes.splice(second_line..second_line, *b"{\"name\":\"\xff\xfe\n");
    let garbled = dir.file("garbled.jsonl");
    std::fs::write(&garbled, bytes).unwrap();
    let want = ok(&["analyze", &clean]);
    let got = bin().args(["analyze", &garbled]).output().unwrap();
    assert!(got.status.success(), "stderr: {}", String::from_utf8_lossy(&got.stderr));
    assert!(String::from_utf8_lossy(&got.stderr).contains("skipped 1 damaged line(s) (1 malformed"));
    let got = String::from_utf8(got.stdout).unwrap();
    assert!(got.contains("  damage: 1 skipped lines"), "report:\n{got}");
    let without_note: Vec<&str> = got.lines().filter(|l| !l.starts_with("  damage:")).collect();
    assert_eq!(without_note, want.lines().collect::<Vec<_>>());

    let empty = dir.file("empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let out = bin().args(["analyze", &empty]).output().unwrap();
    assert!(!out.status.success(), "no events must be an error");
}

/// The number right after the first `key` in `text`, if any.
fn number_after(text: &str, key: &str) -> Option<u64> {
    let rest = &text[text.find(key)? + key.len()..];
    let digits: String =
        rest.chars().skip_while(|c| !c.is_ascii_digit()).take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[test]
fn demo_metrics_agree_with_its_streamed_trace() {
    let dir = TestDir::new("demo");
    let (metrics, trace, chrome) =
        (dir.file("demo.json"), dir.file("demo.jsonl"), dir.file("demo.chrome.json"));
    let outputs = ["--metrics-json", &metrics, "--trace-out", &trace, "--chrome-trace", &chrome];
    let run = ["demo", "--low", "2", "--high", "1", "--sections", "10", "--stats"];
    let stdout = ok(&[&run[..], &outputs].concat());
    assert!(stdout.contains("--- latency histograms ---"), "stats:\n{stdout}");

    // `--stats` keeps the whole run: the ten HIGH sections at least.
    let json = std::fs::read_to_string(&metrics).unwrap();
    let count = |hist: &str| number_after(&json, &format!("\"{hist}\": {{\"count\":"));
    assert!(count("section_length").unwrap() >= 10, "metrics:\n{json}");

    // The streamed trace is whole: its `trace_end` trailer reports no
    // loss, and every event it counts is a line of the file.
    let text = std::fs::read_to_string(&trace).unwrap();
    let trailer = text.lines().last().unwrap();
    assert!(trailer.starts_with("{\"meta\":\"trace_end\""), "trailer: {trailer}");
    assert!(trailer.contains("\"dropped\":0,") || trailer.contains("\"dropped\":0}"), "{trailer}");
    let events = text.lines().filter(|l| l.starts_with("{\"ts\":")).count() as u64;
    assert_eq!(number_after(trailer, "\"recorded\":"), Some(events), "trailer: {trailer}");
    assert_chrome_trace(&chrome);

    let out = bin().args(["analyze", &trace, "--json"]).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("skipped"), "the streamed trace imported with warnings: {stderr}");
    let analysis = String::from_utf8_lossy(&out.stdout);
    let kinds = analysis.lines().find(|l| l.contains("\"kinds\"")).expect("kinds line");
    let rollbacks = number_after(kinds, "\"Rollback\":").unwrap_or(0);
    assert_eq!(count("rollback_duration"), Some(rollbacks), "metrics:\n{json}\n{analysis}");
}

/// A Chrome trace file must load as JSON, and the `u64::MAX` that stands
/// for "no monitor" in an event must not reach any event's `args` as a
/// number. `revmon_obs::json::Reader` reads unsigned integers only and
/// the trace's timestamps are decimals, so the syntax is walked here.
fn assert_chrome_trace(path: &str) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut json = Json { s: &text, i: 0, args: Vec::new() };
    json.value().and_then(|()| json.end()).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(text.starts_with("{\"traceEvents\":["), "{path}");
    assert!(!json.args.is_empty(), "{path}: no event carries args");
    for args in json.args {
        assert!(!args.contains(&u64::MAX.to_string()), "{path}: sentinel inside args {args}");
    }
}

/// A JSON syntax walk that keeps the raw text of every `"args"` value.
struct Json<'a> {
    s: &'a str,
    i: usize,
    args: Vec<&'a str>,
}

impl<'a> Json<'a> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("expected {what} at byte {}", self.i))
    }

    fn peek(&mut self) -> Option<u8> {
        let b = self.s.as_bytes();
        while b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let found = self.peek() == Some(c);
        self.i += usize::from(found);
        found
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                self.i += 1;
                let close = open + 2; // `}` and `]` follow `{` and `[` by two
                if self.eat(close) {
                    return Ok(());
                }
                loop {
                    if open == b'{' {
                        self.peek();
                        let key = self.i;
                        self.string()?;
                        let is_args = &self.s[key..self.i] == "\"args\"";
                        if !self.eat(b':') {
                            return self.fail("`:`");
                        }
                        self.peek();
                        let start = self.i;
                        self.value()?;
                        if is_args {
                            self.args.push(&self.s[start..self.i]);
                        }
                    } else {
                        self.value()?;
                    }
                    if self.eat(close) {
                        return Ok(());
                    }
                    if !self.eat(b',') {
                        return self.fail("`,` or a closing bracket");
                    }
                }
            }
            Some(b'"') => self.string(),
            Some(b'-' | b'0'..=b'9') => {
                let rest = self.s[self.i..].bytes();
                let n = rest.take_while(|c| b"+-.eE0123456789".contains(c)).count();
                let number = self.s[self.i..self.i + n].parse::<f64>();
                self.i += n;
                number.map(drop).map_err(|e| format!("{e} before byte {}", self.i))
            }
            _ => {
                match ["null", "true", "false"].iter().find(|w| self.s[self.i..].starts_with(*w)) {
                    Some(w) => {
                        self.i += w.len();
                        Ok(())
                    }
                    None => self.fail("a JSON value"),
                }
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        if !self.eat(b'"') {
            return self.fail("a string");
        }
        loop {
            match self.s.as_bytes().get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => self.i += 2,
                Some(c) if *c >= 0x20 => self.i += 1,
                _ => return self.fail("a string character"),
            }
        }
    }

    fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.fail("the end of the file"),
        }
    }
}

#[test]
fn chrome_traces_load_and_keep_the_sentinel_out_of_args() {
    // A deadlock's instants name no monitor; four cores write four lanes.
    let dir = TestDir::new("chrome");
    for (name, extra) in [("deadlock.rvm", &[][..]), ("priority_inversion.rvm", &["--cores", "4"])]
    {
        let chrome = dir.file(&format!("{name}.json"));
        ok(&[&["run", &program(name), "--chrome-trace", &chrome][..], extra].concat());
        assert_chrome_trace(&chrome);
    }
}

/// A `main` that enters and leaves one monitor `sections` times: three
/// events a section (`Acquire`, `Commit`, `Release`).
fn section_loop(sections: u32) -> String {
    format!(
        ".statics 1
.method main params=0 locals=2
    new class=0 fields=0
    store l0
    const 0
    store l1
loop:
    load l1
    const {sections}
    if_ge done
    sync l0 {{
        getstatic s0
        const 1
        add
        putstatic s0
    }}
    load l1
    const 1
    add
    store l1
    goto loop
done:
    retvoid
.end
"
    )
}

#[test]
fn run_exports_every_event_of_a_long_trace() {
    let dir = TestDir::new("long_trace");
    let (src, trace) = (dir.file("loop.rvm"), dir.file("loop.jsonl"));
    std::fs::write(&src, section_loop(5_000)).unwrap();
    let stdout = ok(&["run", &src, "--trace", "--trace-out", &trace]);
    let events = |text: &str| text.lines().filter(|l| l.starts_with("{\"ts\":")).count();
    let file = std::fs::read_to_string(&trace).unwrap();
    assert_eq!(events(&file), 15_000, "--trace-out lost events");
    let header = file.lines().next().unwrap();
    assert!(header.contains("\"recorded\":15000,\"dropped\":0"), "header: {header}");
    assert_eq!(events(&stdout), 15_000, "--trace and --trace-out disagree");
}

#[test]
fn value_faults_name_their_method_and_pc() {
    // The verifier tracks stack depth, not value kinds: this passes
    // `verify` and adds an integer to a reference at pc 2.
    let dir = TestDir::new("value_faults");
    let src = dir.file("value.rvm");
    std::fs::write(
        &src,
        ".method main params=0 locals=1\n    new class=0 fields=1\n    const 1\n    add\n    retvoid\n.end\n",
    )
    .unwrap();
    ok(&["verify", &src]);
    let out = bin().args(["run", &src]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("expected an integer value"), "{stderr}");
    assert!(stderr.contains("main") && stderr.contains("pc 2"), "no position: {stderr}");
}

#[test]
fn no_command_thins_its_trace_or_invents_core_lanes() {
    // Every command records each event as it happened: none takes a
    // sampling modulus, and the real-thread demo has no simulated cores.
    // An unknown option is refused before `serve` binds or any thread runs.
    let counter = program("counter.rvm");
    for args in [
        &["demo", "--trace-sample", "2"][..],
        &["demo", "--cores", "2"],
        &["serve", "--addr", "127.0.0.1:0", "--trace-sample", "2", "--max-requests", "1"],
        &["run", &counter, "--trace-sample", "2"],
    ] {
        let out = bin().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let flag = args.iter().find(|a| ["--trace-sample", "--cores"].contains(a)).unwrap();
        assert!(stderr.contains(&format!("unknown option `{flag}`")), "{args:?}: {stderr}");
    }
}

#[test]
fn producer_consumer_handshake_works() {
    for config in ["modified", "unmodified"] {
        let out = bin()
            .args(["run", &program("producer_consumer.rvm"), "--config", config])
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let values: Vec<i64> =
            stdout.lines().filter_map(|l| l.trim().parse::<i64>().ok()).collect();
        assert_eq!(values, vec![10, 20, 30, 40, 50, 5], "config {config}: {stdout}");
    }
}

#[test]
fn explore_stats_time_the_first_violation_only_when_there_is_one() {
    let explore = |extra: &[&str]| {
        let out = bin()
            .args(["explore", &program("priority_inversion.rvm"), "--max-preemptions", "0"])
            .args(["--stats"])
            .args(extra)
            .output()
            .unwrap();
        (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let (ok, clean) = explore(&[]);
    assert!(ok && clean.contains("wall time"), "{clean}");
    assert!(!clean.contains("first violation"), "{clean}");
    let (ok, faulty) = explore(&["--fault-skip-undo", "1000000"]);
    assert!(!ok && faulty.contains("FAILURE: rollback-restoration"), "{faulty}");
    let line = faulty.lines().find(|l| l.starts_with("first violation    : ")).expect("timed");
    assert!(line.ends_with(" s"), "{line}");
}

#[test]
fn explore_minimizes_saves_and_replays_a_failure() {
    // Rollback that restores nothing must fail the search, shrink to a
    // schedule, and leave an artifact that reproduces the violation.
    let dir = TestDir::new("explore_replay");
    let (pi, saved) = (program("priority_inversion.rvm"), dir.file("fault.schedule.json"));
    let out = bin()
        .args(["explore", &pi, "--fault-skip-undo", "1000000", "--minimize"])
        .args(["--save-failure", &saved])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAILURE: rollback-restoration"), "{stdout}");
    assert!(stdout.contains("minimized to "), "{stdout}");
    let replay = ok(&["explore", &pi, "--replay", &saved]);
    assert!(replay.contains("reproduced expected violation `rollback-restoration`"), "{replay}");
}

#[test]
fn explore_is_clean_governed_and_under_each_policy() {
    // A clean search ends in some final state: a run that faults is a
    // terminal state of none, and the report alone would still pass it.
    let clean = |report: &str| {
        assert!(report.ends_with("invariants: all passed\n"), "{report}");
        assert!(!report.contains("terminals: 0 distinct final states"), "{report}");
    };
    // With the governor on, every schedule is also checked against the
    // bounded-revocation invariant between rounds.
    let repeat = program("repeat_revocation.rvm");
    clean(&ok(&["explore", &repeat, "--max-preemptions", "2", "--governor", "k=1,backoff=4096"]));
    // The combiner's invariants (`combiner-queue`, `delegation-drained`)
    // hold whichever policy contends for the monitor.
    let storm = program("delegation_storm.rvm");
    for policy in ["blocking", "revocation"] {
        let args = ["--max-preemptions", "2", "--max-schedules", "500"];
        clean(&ok(&[&["explore", &storm, "--policy", policy][..], &args].concat()));
    }
}

#[test]
fn delegation_storm_completes_every_submission() {
    let dir = TestDir::new("storm");
    let trace = dir.file("storm.jsonl");
    let stdout = ok(&["run", &program("delegation_storm.rvm"), "--stats", "--trace-out", &trace]);
    assert!(stdout.lines().any(|l| l == "650"), "the counter total:\n{stdout}");
    assert!(stdout.contains("delegations        : 600 submitted, 600 completed\n"), "{stdout}");
    let analysis = ok(&["analyze", &trace, "--json"]);
    assert!(analysis.contains("\"delegated\": 600,"), "{analysis}");
}
