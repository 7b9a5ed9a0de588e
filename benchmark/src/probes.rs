//! Per-layer probes: small fixed loops over one public function each,
//! run in the traced run only. They say *which layer* moved when an
//! end-to-end metric moves; they are never the reason to accept a
//! change. Each reading is the quietest of [`SAMPLES`] samples.

use crate::host;
use crate::metrics::Readings;
use crate::stats;
use crate::workloads::locks_inversion::{self, Input as Inversion};
use crate::workloads::{explore_bounded, ratio, Ctx};
use revmon_bench::{run_cell_sink, BenchParams};
use revmon_core::{
    Governor, GovernorConfig, InversionPolicy, PrioritizedQueue, Priority, QueueDiscipline, UndoLog,
};
use revmon_explore::{explore, minimize, testprogs, Bounds, Runner, ScheduleFile};
use revmon_locks::{MonitorArena, RevocableMonitor, TCell};
use revmon_obs::{Event, EventKind, EventSink, Histogram, TsUnit};
use revmon_vm::builder::{MethodBuilder, ProgramBuilder};
use revmon_vm::bytecode::Program;
use revmon_vm::value::Value;
use revmon_vm::{assemble, rewrite_program, verify_program, Vm, VmConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Samples per probe.
const SAMPLES: usize = 7;

/// The eight corpus sources.
const CORPUS: [&str; 8] = [
    include_str!("../../programs/counter.rvm"),
    include_str!("../../programs/deadlock.rvm"),
    include_str!("../../programs/delegation_storm.rvm"),
    include_str!("../../programs/nested_wait_revoke.rvm"),
    include_str!("../../programs/priority_inversion.rvm"),
    include_str!("../../programs/producer_consumer.rvm"),
    include_str!("../../programs/repeat_revocation.rvm"),
    include_str!("../../programs/volatile_revoke.rvm"),
];

/// Quietest ns per call of `op`, each sample being `iters` calls.
fn ns_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    op(); // warm-up
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::quiet_floor(&samples)
}

/// Quietest wall ns of `f` (one call per sample), with its last result.
fn ns_once<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut last = f(); // warm-up
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            last = f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    (stats::quiet_floor(&samples), last)
}

/// Run every probe, `scale` × the full sample work (`--quick` passes 0.1).
pub fn run_all(r: &mut Readings, seed: u64, scale: f64) {
    host_probes(r);
    core_probes(r, scale);
    vm_probes(r, seed, scale);
    locks_probes(r, seed, scale);
    explore_probes(r);
    obs_probes(r, scale);
}

fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale) as u64).max(1)
}

fn host_probes(r: &mut Readings) {
    r.set("host.cores", host::cores() as f64);
    r.set("host.instant_now_ns", host::instant_now_ns());
}

fn core_probes(r: &mut Readings, scale: f64) {
    let iters = scaled(200_000, scale);
    for (name, resident) in
        [("core.queue_push_pop_ns.w1", 1u64), ("core.queue_push_pop_ns.w64", 64)]
    {
        let mut q = PrioritizedQueue::new(QueueDiscipline::Priority);
        for i in 0..resident {
            q.push(i, Priority::new((i % 10) as u8));
        }
        let mut next = resident;
        r.set(
            name,
            ns_per_op(iters, || {
                q.push(next, Priority::new((next % 10) as u8));
                next += 1;
                black_box(q.pop());
            }),
        );
    }
    {
        // A section's worth of entries: push them all, roll them all back.
        const ENTRIES: u64 = 4_000;
        let mut log: UndoLog<u64> = UndoLog::new();
        let rounds = scaled(50, scale);
        let push = ns_per_op(rounds, || {
            let mark = log.mark();
            for i in 0..ENTRIES {
                log.push(black_box(i));
            }
            log.commit_to(mark);
        });
        let both = ns_per_op(rounds, || {
            let mark = log.mark();
            for i in 0..ENTRIES {
                log.push(black_box(i));
            }
            log.rollback_to(mark, |e| {
                black_box(e);
            });
        });
        r.set("core.undo_push_ns", push / ENTRIES as f64);
        r.set("core.undo_rollback_ns_per_entry", (both - push).max(0.0) / ENTRIES as f64);
    }
    {
        let cfg = GovernorConfig { k: 3, backoff: 1_000, decay: 0 };
        let mut g = Governor::new();
        let mut now = 0u64;
        r.set(
            "core.governor_consult_ns",
            ns_per_op(iters, || {
                now += 1;
                black_box(g.consult(cfg, now % 16, now % 4, now));
            }),
        );
    }
}

/// `main` spawns `threads` copies of `worker(lock)`, which runs `body`
/// `iters` times, and joins them.
fn looping_program(threads: usize, iters: i64, body: impl FnOnce(&mut MethodBuilder)) -> Program {
    let mut pb = ProgramBuilder::new();
    let worker = pb.declare_method("worker", 1);
    let mut b = MethodBuilder::new(1, 2);
    b.repeat(1, iters, body);
    b.ret_void();
    pb.implement(worker, b);
    let main = pb.declare_method("main", 0);
    let n = threads as u16;
    let mut b = MethodBuilder::new(0, 1 + n);
    b.new_object(0, 0);
    b.store(0);
    for i in 0..n {
        b.load(0);
        b.const_i(5);
        b.spawn(worker);
        b.store(1 + i);
    }
    for i in 0..n {
        b.load(1 + i);
        b.join();
    }
    b.ret_void();
    pb.implement(main, b);
    pb.finish()
}

/// Run `main` of `program` on the modified VM; wall ns and the report.
fn run_main(program: &Program) -> (f64, revmon_vm::RunReport) {
    ns_once(|| {
        let mut vm = Vm::new(program.clone(), VmConfig::modified());
        let main = program.method_by_name("main").expect("looping programs have a main");
        vm.spawn("main", main, Vec::<Value>::new(), Priority::NORM);
        vm.run().expect("probe program runs")
    })
}

fn vm_probes(r: &mut Readings, seed: u64, scale: f64) {
    let iters = scaled(100_000, scale) as i64;
    {
        // Empty synchronized blocks against the same loop without them.
        let (with_sync, _) = run_main(&looping_program(1, iters, |b| b.sync_on_local(0, |_| {})));
        let (bare, _) = run_main(&looping_program(1, iters, |_| {}));
        r.set("vm.monitor_op_ns", (with_sync - bare).max(0.0) / iters as f64);
    }
    {
        let (ns, report) = run_main(&looping_program(2, iters, |b| b.yield_point()));
        let (bare, _) = run_main(&looping_program(2, iters, |_| {}));
        r.set(
            "vm.ctx_switch_ns",
            (ns - bare).max(0.0) / report.global.context_switches.max(1) as f64,
        );
    }
    {
        let runner = testprogs::inversion_pair();
        let new_ns = ns_per_op(scaled(2_000, scale), || {
            black_box(Vm::new(runner.program().clone(), *runner.config()));
        });
        r.set("vm.new_us", new_ns / 1e3);
    }
    {
        // Front end over the eight corpus sources, looped to ≥ 50 ms a sample.
        let programs: Vec<Program> =
            CORPUS.iter().map(|src| assemble(src).expect("corpus program assembles")).collect();
        let instrs: usize = programs.iter().map(Program::code_size).sum();
        let per_instr = |one_round: &mut dyn FnMut()| {
            let t0 = Instant::now();
            one_round();
            let round = t0.elapsed().as_secs_f64().max(1e-6);
            let rounds = scaled((0.05 / round).ceil() as u64, scale);
            ns_per_op(rounds, one_round) / instrs as f64
        };
        r.set(
            "vm.assemble_ns_per_instr",
            per_instr(&mut || {
                for src in CORPUS {
                    black_box(assemble(src).expect("corpus program assembles"));
                }
            }),
        );
        r.set(
            "vm.verify_ns_per_instr",
            per_instr(&mut || {
                for p in &programs {
                    black_box(verify_program(p).is_ok());
                }
            }),
        );
        r.set(
            "vm.rewrite_ns_per_instr",
            per_instr(&mut || {
                for p in &programs {
                    black_box(rewrite_program(p));
                }
            }),
        );
    }
    {
        // The same short-section cell with and without a sink, interleaved.
        let p = BenchParams {
            high_threads: 2,
            low_threads: 8,
            high_iters: 20,
            low_iters: 100,
            sections: scaled(200, scale) as i64,
            write_pct: 50,
            modified: true,
            seed: host::mix(seed, 11),
            quantum: 1_200,
        };
        let (mut plain, mut observed) = (Vec::new(), Vec::new());
        for _ in 0..SAMPLES {
            let t0 = Instant::now();
            black_box(run_cell_sink(&p, VmConfig::modified(), None));
            plain.push(t0.elapsed().as_nanos() as f64);
            let sink = Arc::new(EventSink::with_capacity(TsUnit::VirtualTicks, 1 << 16));
            let t0 = Instant::now();
            black_box(run_cell_sink(&p, VmConfig::modified(), Some(sink)));
            observed.push(t0.elapsed().as_nanos() as f64);
        }
        r.set(
            "vm.traced_run_ratio",
            ratio(stats::quiet_floor(&observed), stats::quiet_floor(&plain)),
        );
    }
}

/// One revocation of a one-write LOW section: HIGH's enter-to-exit
/// latency, ns. Pure handoff — no undo walk to speak of.
fn roundtrip_ns() -> f64 {
    let m = Arc::new(RevocableMonitor::new());
    let cell = TCell::new(0i64);
    let entered = Arc::new(Barrier::new(2));
    let hi_done = Arc::new(AtomicBool::new(false));
    let low = {
        let (m, cell, entered, hi_done) =
            (Arc::clone(&m), cell.clone(), Arc::clone(&entered), Arc::clone(&hi_done));
        std::thread::spawn(move || {
            let mut attempt = 0u32;
            m.enter(Priority::LOW, |tx| {
                attempt += 1;
                tx.write(&cell, 1);
                if attempt == 1 {
                    entered.wait();
                    while !hi_done.load(Ordering::Acquire) {
                        tx.checkpoint();
                        std::hint::spin_loop();
                    }
                }
            });
        })
    };
    entered.wait();
    let t0 = Instant::now();
    m.enter(Priority::HIGH, |tx| {
        black_box(tx.read(&cell));
    });
    let ns = t0.elapsed().as_nanos() as f64;
    hi_done.store(true, Ordering::Release);
    low.join().expect("LOW thread panicked");
    ns
}

/// Bare `std::thread` park/unpark ping-pong: one-way wake-up cost on
/// this host, µs. The floor under every handoff in `locks`.
fn park_unpark_floor_us(rounds: u64) -> f64 {
    let turn = Arc::new(AtomicU64::new(0));
    let main = std::thread::current();
    let pong = {
        let turn = Arc::clone(&turn);
        std::thread::spawn(move || {
            for i in 0..rounds {
                while turn.load(Ordering::Acquire) != 2 * i + 1 {
                    std::thread::park();
                }
                turn.store(2 * i + 2, Ordering::Release);
                main.unpark();
            }
        })
    };
    let t0 = Instant::now();
    for i in 0..rounds {
        turn.store(2 * i + 1, Ordering::Release);
        pong.thread().unpark();
        while turn.load(Ordering::Acquire) != 2 * i + 2 {
            std::thread::park();
        }
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / (2 * rounds) as f64;
    pong.join().expect("pong thread panicked");
    us
}

fn locks_probes(r: &mut Readings, seed: u64, scale: f64) {
    let iters = scaled(200_000, scale);
    {
        let m = RevocableMonitor::new();
        r.set("locks.enter_exit_ns", ns_per_op(iters, || m.enter(Priority::NORM, |_| {})));
        r.set(
            "locks.enter_exit_nested_ns",
            ns_per_op(iters / 3, || {
                m.enter(Priority::NORM, |_| {
                    m.enter(Priority::NORM, |_| m.enter(Priority::NORM, |_| {}))
                })
            }) / 3.0,
        );
        let cell = TCell::new(0i64);
        m.enter(Priority::NORM, |tx| {
            r.set("locks.logged_write_ns", ns_per_op(iters, || tx.write(&cell, black_box(7))));
        });
        m.enter(Priority::NORM, |tx| {
            r.set(
                "locks.read_ns",
                ns_per_op(iters, || {
                    black_box(tx.read(&cell));
                }),
            );
        });
        m.enter(Priority::NORM, |tx| {
            r.set("locks.checkpoint_ns", ns_per_op(iters, || tx.checkpoint()));
        });
        let arena = MonitorArena::new(1024);
        let mut i = 0usize;
        r.set(
            "locks.arena_enter_exit_ns",
            ns_per_op(iters, || {
                i = (i + 1) % 1024;
                arena.get(i).enter(Priority::NORM, |_| {});
            }),
        );
    }
    {
        let episodes = scaled(200, scale) as usize;
        let ns: Vec<f64> = (0..episodes).map(|_| roundtrip_ns()).collect();
        r.set("locks.roundtrip_us_p50", stats::median(&ns) / 1e3);
        let floors: Vec<f64> =
            (0..SAMPLES).map(|_| park_unpark_floor_us(scaled(2_000, scale))).collect();
        r.set("locks.park_unpark_floor_us", stats::quiet_floor(&floors));
    }
    {
        // The inversion workload under plain blocking against revocation,
        // back to back, a second and a half each.
        let window = Duration::from_secs_f64(1.5 * scale.max(0.2));
        let p50 = |policy| {
            let mut input = Inversion::new(seed, policy);
            let mut ctx = Ctx::new(window, false);
            let x = input.contend(&mut ctx, window, usize::MAX);
            ctx.calib.sample();
            locks_inversion::steady(&x, &ctx.calib).0
        };
        let blocking = p50(InversionPolicy::Blocking);
        let revocation = p50(InversionPolicy::Revocation);
        r.set("locks.blocking_hi_latency_p50_us", blocking);
        r.set("locks.gain_vs_blocking", ratio(blocking, revocation));
    }
}

fn explore_probes(r: &mut Readings) {
    let items = explore_bounded::items();
    let runner_of = |name: &str| -> &Runner {
        &items.iter().find(|i| i.name == name).expect("a pass item").runner
    };
    let small = runner_of("inversion_pair_1core");
    r.set(
        "explore.run_us_per_schedule.small",
        ns_per_op(2_000, || drop(black_box(small.run(&[])))) / 1e3,
    );
    let corpus = runner_of("priority_inversion_rvm");
    r.set(
        "explore.run_us_per_schedule.corpus",
        ns_per_op(5, || drop(black_box(corpus.run(&[])))) / 1e3,
    );

    let faulty = runner_of("faulty_inversion_pair");
    let report = explore(faulty, Bounds { max_preemptions: 8, ..Bounds::default() });
    let failure = report.failures.first().expect("the injected fault is found");
    let invariant = failure.outcome.violations[0].invariant.to_string();
    let (ns, min) = ns_once(|| minimize(faulty, &failure.schedule, &invariant, 0));
    r.set("explore.minimize_ms", ns / 1e6);
    let file = ScheduleFile::new(
        "faulty.rvm",
        "src",
        faulty.entry_name(),
        faulty.config(),
        min.schedule,
        Some(invariant),
    );
    r.set(
        "explore.schedule_json_roundtrip_us",
        ns_per_op(2_000, || {
            black_box(ScheduleFile::parse(&file.to_json()).expect("own output parses"));
        }) / 1e3,
    );
}

fn obs_probes(r: &mut Readings, scale: f64) {
    let ev = Event { ts: 1, thread: 1, monitor: 1, core: 0, kind: EventKind::Acquire };
    // Each sample fits the ring, which is emptied between samples by a
    // fresh sink: the probe times `record`, not overflow handling.
    let n = scaled(50_000, scale);
    let record = |enabled: bool| {
        let samples: Vec<f64> = (0..=SAMPLES)
            .map(|_| {
                let sink = EventSink::with_capacity(TsUnit::WallNanos, 1 << 16);
                sink.set_enabled(enabled);
                let t0 = Instant::now();
                for i in 0..n {
                    sink.record(Event { ts: i, ..ev });
                }
                let ns = t0.elapsed().as_nanos() as f64 / n as f64;
                assert_eq!(sink.dropped(), 0, "the record probe must not overflow its ring");
                ns
            })
            .skip(1) // warm-up
            .collect();
        stats::quiet_floor(&samples)
    };
    r.set("obs.record_ns_enabled", record(true));
    r.set("obs.record_ns_disabled", record(false));
    let h = Histogram::new();
    let mut v = 1u64;
    r.set(
        "obs.hist_record_ns",
        ns_per_op(scaled(200_000, scale), || {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            h.record(v >> 40);
        }),
    );
}
