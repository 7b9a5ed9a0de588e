//! Hook between the locks runtime and the `revmon-obs` event layer.
//!
//! The library has no natural "VM object" to hang a sink on, so the sink
//! is process-global: [`install`] attaches one, [`uninstall`] detaches
//! it. Every instrumentation site first checks one relaxed atomic — with
//! no sink installed an event site costs a single load-and-branch.
//!
//! Timestamps are monotonic wall-clock nanoseconds since the first use
//! of this module in the process ([`revmon_obs::TsUnit::WallNanos`]).

use parking_lot::Mutex;
use revmon_obs::{Event, EventKind, EventSink};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Arc<EventSink>>> = Mutex::new(None);
/// Bumped on every [`install`]/[`uninstall`] so per-thread sink caches
/// know when to refresh. Emitters never touch the `SINK` mutex while the
/// installed sink is unchanged — the tracing-on fast path is one relaxed
/// enabled-check, one acquire generation load, and a thread-local read.
static GENERATION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// (generation, sink) pair cached per emitting thread.
    static CACHED_SINK: RefCell<(u64, Option<Arc<EventSink>>)> = const { RefCell::new((u64::MAX, None)) };
}

/// Number of telemetry core lanes events are attributed to. Real OS
/// threads have no simulated core, so the lane is derived from the
/// stable obs thread id (`(tid - 1) % cores`); with the default of 1
/// every event carries core 0, the historical output.
static CORES: AtomicU64 = AtomicU64::new(1);

/// Set the number of core lanes (`--cores` on `revmon demo`): events
/// are grouped into `n` lanes for per-core trace views (the Chrome
/// exporter renders one process row per lane). Clamped to ≥ 1.
pub fn set_cores(n: u64) {
    CORES.store(n.max(1), Ordering::Relaxed);
}

/// Attach a sink; subsequent monitor events are recorded into it.
pub fn install(sink: Arc<EventSink>) {
    *SINK.lock() = Some(sink);
    GENERATION.fetch_add(1, Ordering::Release);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Detach and return the current sink, if any.
pub fn uninstall() -> Option<Arc<EventSink>> {
    ENABLED.store(false, Ordering::SeqCst);
    let prev = SINK.lock().take();
    GENERATION.fetch_add(1, Ordering::Release);
    prev
}

static NAMES: Mutex<Option<std::collections::BTreeMap<u64, String>>> = Mutex::new(None);

/// Give monitor `monitor` (an obs id, see
/// [`RevocableMonitor::obs_id`](crate::RevocableMonitor::obs_id)) a
/// human name. Analysis reports over traces from this process then say
/// `monitor "queue"` instead of `monitor 3`. Naming is process-global
/// and off the hot path; renaming overwrites.
pub fn name_monitor(monitor: u64, name: &str) {
    NAMES.lock().get_or_insert_with(Default::default).insert(monitor, name.to_string());
}

/// Snapshot of the monitor-name table, for trace export
/// ([`revmon_obs::write_trace_jsonl`]) and report rendering.
pub fn monitor_names() -> std::collections::BTreeMap<u64, String> {
    NAMES.lock().clone().unwrap_or_default()
}

/// Whether a sink is installed. The cheap gate for sites that must do
/// extra work (e.g. read the clock) before emitting.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic nanoseconds since the module's first use.
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Small dense id for the current OS thread, stable for its lifetime.
pub(crate) fn obs_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Emit one event for the current thread, stamped now. One branch when
/// no sink is installed.
#[inline]
pub(crate) fn emit(monitor: u64, kind: EventKind) {
    if !enabled() {
        return;
    }
    emit_slow(obs_tid(), monitor, kind);
}

/// Emit an event attributed to another thread (e.g. flagging a holder
/// for revocation). One branch when no sink is installed.
#[inline]
pub(crate) fn emit_for(thread: u64, monitor: u64, kind: EventKind) {
    if !enabled() {
        return;
    }
    emit_slow(thread, monitor, kind);
}

/// The tracing-on path: resolve the installed sink through a per-thread
/// generation-stamped cache (no global lock while the sink is stable)
/// and record into the caller's SPSC ring.
fn emit_slow(thread: u64, monitor: u64, kind: EventKind) {
    let generation = GENERATION.load(Ordering::Acquire);
    // try_with / try_borrow_mut: an event fired during thread teardown
    // (TLS destroyed) or re-entrantly must degrade to a skipped event,
    // never a panic inside a lock-release path.
    let _ = CACHED_SINK.try_with(|cache| {
        let Ok(mut cache) = cache.try_borrow_mut() else { return };
        if cache.0 != generation {
            cache.1 = SINK.lock().clone();
            cache.0 = generation;
        }
        if let Some(sink) = &cache.1 {
            let core = (thread.wrapping_sub(1) % CORES.load(Ordering::Relaxed)) as u32;
            sink.record(Event { ts: now_ns(), thread, monitor, core, kind });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmon_obs::TsUnit;

    #[test]
    fn obs_tids_are_stable_per_thread() {
        let a = obs_tid();
        let b = obs_tid();
        assert_eq!(a, b);
        let other = std::thread::spawn(obs_tid).join().unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn emit_without_sink_is_a_noop() {
        // Never installs a sink in this test binary: just must not panic.
        emit(1, EventKind::Acquire);
    }

    #[test]
    fn install_uninstall_round_trip() {
        // One test owns the whole install lifecycle (tests in this
        // binary share the process-global sink slot), so the
        // generation-cache checks live here too.
        //
        // Sibling tests enter monitors concurrently and emit into
        // whichever sink is installed, so count only this thread's
        // events, never the sink-wide `recorded()`.
        let me = obs_tid();
        let mine = |sink: &EventSink, monitor: u64| {
            sink.drain().iter().filter(|e| e.thread == me && e.monitor == monitor).count()
        };
        let sink = Arc::new(EventSink::new(TsUnit::WallNanos));
        install(Arc::clone(&sink));
        assert!(enabled());
        emit(7, EventKind::Acquire);
        assert_eq!(mine(&sink, 7), 1, "emit did not reach the installed sink");

        let back = uninstall().expect("sink was installed");
        assert!(Arc::ptr_eq(&back, &sink));
        assert!(!enabled());
        emit(7, EventKind::Release);
        assert_eq!(mine(&sink, 7), 0, "emit after uninstall leaked into old sink");

        // Reinstalling a *different* sink must invalidate the emitting
        // thread's cached handle: the next event lands in the new sink.
        let second = Arc::new(EventSink::new(TsUnit::WallNanos));
        install(Arc::clone(&second));
        emit(8, EventKind::Acquire);
        assert_eq!(mine(&second, 8), 1, "stale cached sink survived reinstall");
        assert_eq!(mine(&sink, 8), 0);
        uninstall();
    }
}
