//! End-to-end CLI tests over the sample `.rvm` programs.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_revmon"))
}

fn program(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs").join(name);
    p.to_string_lossy().into_owned()
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
    for f in ["counter.rvm", "priority_inversion.rvm", "deadlock.rvm"] {
        let out = bin().args(["verify", &program(f), "--rewrite"]).output().unwrap();
        assert!(out.status.success(), "{f} failed verify");
    }
    let tmp = std::env::temp_dir().join("revmon-bad.rvm");
    std::fs::write(&tmp, ".method m params=0 locals=0\n    pop\n    retvoid\n.end\n").unwrap();
    let out = bin().args(["verify", tmp.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("stack"));
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
    let trace = std::env::temp_dir().join("revmon-cli-pi.jsonl");
    let out = bin()
        .args(["run", &program("priority_inversion.rvm"), "--trace-out", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Text report: named monitor, revocation resolution, wasted work.
    let out = bin().args(["analyze", trace.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("inversion episodes: 1"), "report:\n{stdout}");
    assert!(stdout.contains("monitor \"lock\""), "monitor name missing:\n{stdout}");
    assert!(stdout.contains("revocation"), "resolution missing:\n{stdout}");
    assert!(stdout.contains("undo entries rolled back"), "wasted work missing:\n{stdout}");

    // JSON report + Prometheus export.
    let prom = std::env::temp_dir().join("revmon-cli-pi.prom");
    let out = bin()
        .args([
            "analyze",
            trace.to_str().unwrap(),
            "--json",
            "--prometheus",
            prom.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"resolutions\": {\"revocation\": 1"), "json:\n{json}");
    assert!(json.contains("\"monitor_name\": \"lock\""), "json:\n{json}");
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_text.contains("revmon_episodes_total{resolution=\"revocation\"} 1"));
    assert!(prom_text.contains("revmon_monitor_acquires_total{monitor=\"lock\"}"));
}

#[test]
fn analyze_tolerates_damage_and_rejects_empty_input() {
    let dir = std::env::temp_dir();
    let damaged = dir.join("revmon-cli-damaged.jsonl");
    std::fs::write(
        &damaged,
        "{\"ts\":10,\"thread\":1,\"monitor\":3,\"kind\":\"Acquire\"}\nnot json\n",
    )
    .unwrap();
    let out = bin().args(["analyze", damaged.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "damage must degrade, not fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("skipped 1 damaged line"));

    // A line that is not even UTF-8 is one more damaged line, not a
    // failed read: the report is the clean trace's plus the damage note.
    let clean = dir.join("revmon-cli-clean.jsonl");
    let out = bin()
        .args(["run", &program("priority_inversion.rvm"), "--trace-out", clean.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let mut bytes = std::fs::read(&clean).unwrap();
    let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes.splice(second_line..second_line, *b"{\"name\":\"\xff\xfe\n");
    let garbled = dir.join("revmon-cli-garbled.jsonl");
    std::fs::write(&garbled, bytes).unwrap();
    let want = bin().args(["analyze", clean.to_str().unwrap()]).output().unwrap();
    let got = bin().args(["analyze", garbled.to_str().unwrap()]).output().unwrap();
    assert!(got.status.success(), "stderr: {}", String::from_utf8_lossy(&got.stderr));
    assert!(String::from_utf8_lossy(&got.stderr).contains("skipped 1 damaged line(s) (1 malformed"));
    let got = String::from_utf8(got.stdout).unwrap();
    assert!(got.contains("  damage: 1 skipped lines"), "report:\n{got}");
    let without_note: Vec<&str> = got.lines().filter(|l| !l.starts_with("  damage:")).collect();
    let want = String::from_utf8(want.stdout).unwrap();
    assert_eq!(without_note, want.lines().collect::<Vec<_>>());

    let empty = dir.join("revmon-cli-empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let out = bin().args(["analyze", empty.to_str().unwrap()]).output().unwrap();
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
    let dir = std::env::temp_dir();
    let metrics = dir.join(format!("revmon-cli-demo-{}.json", std::process::id()));
    let trace = dir.join(format!("revmon-cli-demo-{}.jsonl", std::process::id()));
    let (metrics, trace) = (metrics.to_str().unwrap(), trace.to_str().unwrap());
    let out = bin()
        .args(["demo", "--low", "2", "--high", "1", "--sections", "10", "--stats"])
        .args(["--metrics-json", metrics, "--trace-out", trace])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--- latency histograms ---"), "stats:\n{stdout}");

    // `--stats` keeps the whole run: the ten HIGH sections at least.
    let json = std::fs::read_to_string(metrics).unwrap();
    let count = |hist: &str| number_after(&json, &format!("\"{hist}\": {{\"count\":"));
    assert!(count("section_length").unwrap() >= 10, "metrics:\n{json}");

    let out = bin().args(["analyze", trace, "--json"]).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("skipped"), "the streamed trace imported with warnings: {stderr}");
    let analysis = String::from_utf8_lossy(&out.stdout);
    let kinds = analysis.lines().find(|l| l.contains("\"kinds\"")).expect("kinds line");
    let rollbacks = number_after(kinds, "\"Rollback\":").unwrap_or(0);
    assert_eq!(count("rollback_duration"), Some(rollbacks), "metrics:\n{json}\n{analysis}");
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
    let dir = std::env::temp_dir();
    let src = dir.join(format!("revmon-cli-loop-{}.rvm", std::process::id()));
    let trace = dir.join(format!("revmon-cli-loop-{}.jsonl", std::process::id()));
    std::fs::write(&src, section_loop(5_000)).unwrap();
    let out = bin()
        .args(["run", src.to_str().unwrap(), "--trace", "--trace-out", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let events = |text: &str| text.lines().filter(|l| l.starts_with("{\"ts\":")).count();
    let stdout = String::from_utf8_lossy(&out.stdout);
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
    let src = std::env::temp_dir().join(format!("revmon-cli-value-{}.rvm", std::process::id()));
    std::fs::write(
        &src,
        ".method main params=0 locals=1\n    new class=0 fields=1\n    const 1\n    add\n    retvoid\n.end\n",
    )
    .unwrap();
    let verified = bin().args(["verify", src.to_str().unwrap()]).output().unwrap();
    assert!(verified.status.success(), "stderr: {}", String::from_utf8_lossy(&verified.stderr));
    let out = bin().args(["run", src.to_str().unwrap()]).output().unwrap();
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
