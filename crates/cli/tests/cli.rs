//! End-to-end CLI tests over the sample `.rvm` programs.

use std::path::PathBuf;
use std::process::Command;

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
}

#[test]
fn trace_flag_prints_monitor_events() {
    let out = bin().args(["run", &program("priority_inversion.rvm"), "--trace"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Acquire"), "trace missing:\n{stdout}");
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
