//! End-to-end smoke test for `revmon serve`: bind an ephemeral port,
//! scrape every route with a raw TCP client, and check the server exits
//! on its own at `--max-requests`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};

fn get(addr: &str, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("request");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("response");
    out
}

#[test]
fn serve_exposes_metrics_health_and_graph() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_revmon"))
        .args(["serve", "--addr", "127.0.0.1:0", "--max-requests", "3"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn revmon serve");

    // The first stdout line is `revmon: serving on HOST:PORT (...)` —
    // parse the bound address out of it (port 0 means the OS picked one).
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("banner line");
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("no address in banner {line:?}"))
        .to_string();

    let health = get(&addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "healthz: {health}");
    assert!(health.ends_with("ok\n"), "healthz body: {health}");

    let metrics = get(&addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "metrics: {metrics}");
    assert!(metrics.contains("revmon_episodes_total"), "analysis series missing:\n{metrics}");
    assert!(metrics.contains("revmon_revocation_phase_ns"), "phase timers missing:\n{metrics}");
    assert!(metrics.contains("revmon_events_recorded_total"), "sink counters missing:\n{metrics}");
    assert!(metrics.contains("revmon_obs_producers"), "pipeline gauges missing:\n{metrics}");
    assert!(metrics.contains("revmon_obs_backlog"), "pipeline backlog gauge missing:\n{metrics}");
    assert!(
        metrics.contains("revmon_obs_record_self_cost_ns"),
        "self-cost summary missing:\n{metrics}"
    );

    let graph = get(&addr, "/graph");
    assert!(graph.starts_with("HTTP/1.1 200"), "graph: {graph}");
    assert!(graph.contains("application/json"), "graph content type: {graph}");
    assert!(graph.contains("\"edges\""), "graph body: {graph}");

    // That was request 3 of 3: the server must exit by itself.
    let status = child.wait().expect("wait");
    assert!(status.success(), "serve exited with {status}");
}
