//! `revmon serve`: a dependency-free HTTP observability endpoint over
//! the locks runtime, built on nothing but `std::net::TcpListener`.
//!
//! Routes:
//!
//! * `GET /metrics`  — Prometheus text exposition: the episode/contention
//!   series of [`revmon_obs::write_prometheus`] computed over the
//!   retained event window, the revocation phase timers, and the
//!   telemetry pipeline's own series
//!   ([`revmon_obs::write_pipeline_prometheus`]: the sink's
//!   recorded/dropped counters, per-producer drops, collector
//!   lag/backlog, record-path self-cost).
//! * `GET /healthz`  — liveness probe, always `ok`.
//! * `GET /graph`    — live wait-for graph as JSON
//!   ([`revmon_obs::GraphSnapshot::to_json`]).
//! * `GET /graph.dot` — the same snapshot in Graphviz DOT.
//!
//! Unless `--no-workload` is given, serve also runs the `demo`
//! priority-inversion scenario in the background (forever) so the
//! endpoint has live contention to report; tune it with `--low N` and
//! `--high N`. `--max-requests N` exits after N requests (tests).

use revmon_obs::{EventSink, TsUnit};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Retained-event window backing `/metrics` and analysis: old enough
/// history for episode reconstruction, bounded so a serve process that
/// runs for days does not grow without limit (trims are counted in the
/// pipeline gauges).
const SERVE_RETAIN: usize = 100_000;

/// Everything a request handler needs: the live sink (the background
/// collector keeps its retained buffer filled and bounded).
struct ServeState {
    sink: Arc<EventSink>,
}

impl ServeState {
    /// Run analysis over the retained event window. Snapshots are
    /// non-consuming, so requests never steal events from each other or
    /// from any trace consumer.
    fn analysis(&self) -> revmon_obs::Analysis {
        revmon_obs::Analysis::from_events(&self.sink.snapshot())
    }
}

pub(crate) fn run_serve(opts: &crate::Opts<'_>) -> Result<(), String> {
    let addr = opts.get("--addr").unwrap_or("127.0.0.1:9494");
    let max_requests: u64 = opts.num("--max-requests")?.unwrap_or(0);
    let sink = Arc::new(EventSink::new(TsUnit::WallNanos));
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;

    revmon_locks::obs::install(Arc::clone(&sink));
    // Background collector: drains the per-thread rings on an epoch
    // cadence and keeps the retained window bounded, so request handlers
    // only ever read snapshots.
    let collector = revmon_obs::Collector::start(
        Arc::clone(&sink),
        revmon_obs::CollectorConfig {
            epoch: std::time::Duration::from_millis(100),
            retain: Some(SERVE_RETAIN),
        },
        revmon_obs::StreamSet::none(),
    );
    if !opts.has("--no-workload") {
        // The `demo` scenario, forever, in detached threads: live
        // inversion traffic for the endpoint to report.
        let (low, high) = (opts.num("--low")?.unwrap_or(3), opts.num("--high")?.unwrap_or(1));
        let pause = std::time::Duration::from_millis(5);
        crate::workload::start("served", low.max(1), high.max(1), pause, u64::MAX);
    }

    // The test harness parses this line to find the bound port, so keep
    // the `serving on <addr>` shape stable.
    println!("revmon: serving on {local} (/metrics /healthz /graph /graph.dot)");
    let state = ServeState { sink };
    let mut served = 0u64;
    for stream in listener.incoming() {
        match stream {
            Ok(s) => {
                if let Err(e) = handle(s, &state) {
                    eprintln!("revmon: serve: {e}");
                }
            }
            Err(e) => eprintln!("revmon: serve: accept: {e}"),
        }
        served += 1;
        if max_requests > 0 && served >= max_requests {
            break;
        }
    }
    collector
        .stop(&revmon_locks::obs::monitor_names(), &revmon_obs::RunMeta::default())
        .map_err(|e| format!("stopping collector: {e}"))?;
    Ok(())
}

/// Parse one request, route it, write one response, close.
fn handle(stream: TcpStream, state: &ServeState) -> Result<(), String> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line).map_err(|e| e.to_string())?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    // Drain headers so well-behaved clients see a clean close.
    let mut line = String::new();
    while reader.read_line(&mut line).map_err(|e| e.to_string())? > 2 {
        line.clear();
    }

    let (status, ctype, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "only GET is served\n".into())
    } else {
        route(path, state)?
    };
    let mut stream = reader.into_inner();
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .and_then(|()| stream.write_all(body.as_bytes()))
    .and_then(|()| stream.flush())
    .map_err(|e| e.to_string())
}

fn route(path: &str, state: &ServeState) -> Result<(&'static str, &'static str, String), String> {
    let names = revmon_locks::obs::monitor_names();
    match path {
        "/healthz" => Ok(("200 OK", "text/plain", "ok\n".into())),
        "/metrics" => {
            let analysis = state.analysis();
            let mut out = Vec::new();
            revmon_obs::write_prometheus(&mut out, &analysis, &names, state.sink.ts_unit())
                .and_then(|()| revmon_obs::prof::timers().write_prometheus(&mut out))
                .and_then(|()| {
                    revmon_obs::write_pipeline_prometheus(&mut out, &state.sink.pipeline_stats())
                })
                .map_err(|e| e.to_string())?;
            let body = String::from_utf8(out).map_err(|e| e.to_string())?;
            Ok(("200 OK", "text/plain; version=0.0.4", body))
        }
        "/graph" => {
            let snap = revmon_locks::wait_graph_snapshot();
            Ok(("200 OK", "application/json", snap.to_json(&names)))
        }
        "/graph.dot" => {
            let snap = revmon_locks::wait_graph_snapshot();
            Ok(("200 OK", "text/vnd.graphviz", snap.to_dot(&names)))
        }
        _ => Ok((
            "404 Not Found",
            "text/plain",
            "try /metrics, /healthz, /graph, /graph.dot\n".into(),
        )),
    }
}
