//! The virtual machine: configuration, thread spawning, and the
//! green-thread dispatch loop with its virtual clock.
//!
//! Scheduling reproduces the paper's environment (§4): Jikes RVM 2.2.1
//! schedules threads *round-robin without priorities* on a uniprocessor;
//! priorities act only at monitor entry queues (prioritized queues) and
//! through the revocation mechanism itself. The scheduling *decision* is
//! pluggable (see [`crate::sched`]): round-robin is the default, a
//! priority-preemptive policy serves the ablation experiments, and a
//! scripted policy replays explicit decision sequences for the
//! `revmon-explore` model checker.

use crate::bytecode::{MethodId, Program};
use crate::error::VmError;
use crate::heap::Heap;
use crate::monitor::MonitorTable;
use crate::rewrite::rewrite_program;
use crate::sched::{Candidate, SchedContext, SchedulePolicy};
use crate::thread::{ThreadState, VmThread};
use crate::value::{ObjRef, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use revmon_core::{
    CostModel, DelegateConfig, DetectionStrategy, Governor, GovernorConfig, InversionPolicy,
    Metrics, Priority, QueueDiscipline, ThreadId, WaitsForGraph,
};
use revmon_obs::{Event, EventKind};
use std::collections::VecDeque;
use std::sync::Arc;

pub use crate::sched::SchedulerKind;

/// VM configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Priority-inversion strategy.
    pub policy: InversionPolicy,
    /// How inversion is detected.
    pub detection: DetectionStrategy,
    /// Monitor entry-queue discipline.
    pub queue_discipline: QueueDiscipline,
    /// Scheduler flavour.
    pub scheduler: SchedulerKind,
    /// Virtual-clock cost model.
    pub cost: CostModel,
    /// Whether write barriers are compiled in (the "modified VM"). The
    /// unmodified VM compiles the benchmark without any barriers.
    pub barriers: bool,
    /// Whether the JMM-consistency read guard is active (requires
    /// `barriers`; the unmodified VM has neither).
    pub jmm_guard: bool,
    /// Whether to run the bytecode rewriting pass (rollback scopes +
    /// synchronized-method wrappers). Without it nothing can be revoked.
    pub rewrite: bool,
    /// Run the write-barrier elision analysis (§1.1's compiler
    /// optimization): stores proven never to execute inside a
    /// synchronized section skip even the fast-path test.
    pub elide_barriers: bool,
    /// RNG seed (for `RandInt`), making runs fully deterministic.
    pub seed: u64,
    /// Safety net: abort after this many instructions (0 = unlimited).
    pub max_steps: u64,
    /// Heap-object budget: allocations beyond this throw the built-in
    /// `OutOfMemoryError` (0 = unlimited). There is no GC — the heap is
    /// an arena.
    pub max_heap_objects: usize,
    /// Livelock guard: after this many consecutive revocations of the
    /// same section execution, further requests are denied until it
    /// commits (0 = unlimited; the paper's mechanism is unlimited).
    pub max_consecutive_revocations: u32,
    /// Adaptive revocation governor: bounded retry budget with
    /// exponential backoff and per-monitor fallback to blocking
    /// (disabled by default — the paper's mechanism is ungoverned).
    pub governor: GovernorConfig,
    /// Combiner handoff rules for delegated critical sections
    /// (`Insn::Delegate` and the `Delegation` policy): most importantly
    /// the bounded drain budget.
    pub delegate: DelegateConfig,
    /// Strict mode: once any execution of a monitor is marked
    /// non-revocable, all future executions are too (sticky header bit).
    pub sticky_nonrevocable: bool,
    /// Keep every emitted [`revmon_obs::Event`] in memory for
    /// [`Vm::take_trace`] (tests, examples, `revmon run --trace`).
    pub trace: bool,
    /// **Test-only fault injection**: skip restoring the newest N undo
    /// entries during each rollback (0 = correct behaviour). Exists so
    /// the `revmon-explore` invariant checker can prove it catches a
    /// broken rollback; never set this outside tests.
    pub fault_skip_undo: u32,
    /// **Test-only fault injection**: treat *every* contended acquire as
    /// a priority inversion, regardless of the holder's priority. Forces
    /// pathological repeat-revocation (mutual revocation ping-pong) so
    /// the governor's livelock handling can be exercised under the
    /// explore harness; never set this outside tests.
    pub fault_force_inversion: bool,
    /// Number of simulated cores. Each core runs the round-robin
    /// discipline over its own run queue; cores advance in a fixed
    /// small-step order, so the interleaving stays deterministic for any
    /// value. Threads are pinned at spawn (`tid % cores`). Cross-core
    /// revocation uses an IPI-at-yield-point handshake instead of
    /// directly flagging the victim (see `Vm::request_revocation`).
    /// `1` (the default) reproduces the paper's uniprocessor setting
    /// bit-for-bit.
    pub cores: usize,
}

impl VmConfig {
    /// The paper's **unmodified VM**: plain blocking monitors, no
    /// barriers, no rewriting — priority inversion unaddressed (but entry
    /// queues still prioritized, as in the paper's baseline).
    pub fn unmodified() -> Self {
        VmConfig {
            policy: InversionPolicy::Blocking,
            detection: DetectionStrategy::AtAcquisition,
            queue_discipline: QueueDiscipline::Priority,
            scheduler: SchedulerKind::RoundRobin,
            cost: CostModel::default(),
            barriers: false,
            jmm_guard: false,
            rewrite: false,
            elide_barriers: false,
            seed: 0x5eed,
            max_steps: 0,
            max_heap_objects: 0,
            max_consecutive_revocations: 0,
            governor: GovernorConfig::disabled(),
            delegate: DelegateConfig::default(),
            sticky_nonrevocable: false,
            trace: false,
            fault_skip_undo: 0,
            fault_force_inversion: false,
            cores: 1,
        }
    }

    /// The paper's **modified VM**: revocable monitors with write
    /// barriers, the rewrite pass, detection at acquisition and the JMM
    /// guard.
    pub fn modified() -> Self {
        VmConfig {
            policy: InversionPolicy::Revocation,
            barriers: true,
            jmm_guard: true,
            rewrite: true,
            ..Self::unmodified()
        }
    }

    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: enable tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builder-style: enable write-barrier elision.
    pub fn with_elision(mut self) -> Self {
        self.elide_barriers = true;
        self
    }

    /// Builder-style: set the step safety limit.
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Builder-style: set the simulated core count (clamped to ≥ 1).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores.max(1);
        self
    }
}

impl Default for VmConfig {
    fn default() -> Self {
        Self::modified()
    }
}

/// Per-thread results.
#[derive(Clone, Debug)]
pub struct ThreadReport {
    /// Thread identity.
    pub id: ThreadId,
    /// Thread name.
    pub name: String,
    /// Base priority.
    pub priority: Priority,
    /// Virtual time of first dispatch (the paper's "first time-stamp at
    /// the beginning of the run() method").
    pub start_time: u64,
    /// Virtual time of termination.
    pub end_time: u64,
    /// Counters.
    pub metrics: Metrics,
    /// Class tag of an uncaught exception, if one killed the thread.
    pub uncaught: Option<u32>,
}

impl ThreadReport {
    /// Elapsed virtual time of this thread's `run()`.
    pub fn elapsed(&self) -> u64 {
        self.end_time.saturating_sub(self.start_time)
    }
}

/// Per-monitor results.
#[derive(Clone, Copy, Debug)]
pub struct MonitorReport {
    /// The monitor object.
    pub object: crate::value::ObjRef,
    /// Total acquisitions.
    pub acquires: u64,
    /// Blocking episodes.
    pub contended: u64,
    /// Largest entry-queue length observed.
    pub peak_queue: usize,
}

/// Whole-run results.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Final virtual-clock value.
    pub clock: u64,
    /// Per-thread reports.
    pub threads: Vec<ThreadReport>,
    /// Aggregated counters (sum of per-thread + VM-global events).
    pub global: Metrics,
    /// Values emitted by `Native(Emit/Print)`.
    pub output: Vec<Value>,
    /// Per-monitor contention profile (every object ever synchronized
    /// on), sorted by contention.
    pub monitors: Vec<MonitorReport>,
    /// Number of simulated cores the run used.
    pub cores: usize,
    /// Cross-core revocation IPIs: `(posted, acked, stale)`. All zero on
    /// a single core, where revocation flags the victim directly.
    pub ipis: (u64, u64, u64),
}

impl RunReport {
    /// The paper's headline metric: elapsed time from the earliest start
    /// to the latest end across threads with base priority ≥ `cut`
    /// (§4.1's total elapsed time of high-priority threads).
    pub fn elapsed_for(&self, cut: Priority) -> u64 {
        let sel: Vec<&ThreadReport> = self.threads.iter().filter(|t| t.priority >= cut).collect();
        let start = sel.iter().map(|t| t.start_time).min().unwrap_or(0);
        let end = sel.iter().map(|t| t.end_time).max().unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Overall elapsed time (all threads).
    pub fn overall_elapsed(&self) -> u64 {
        self.elapsed_for(Priority::MIN)
    }

    /// A multi-line human-readable summary of the run (used by the CLI's
    /// `--stats` and handy in examples).
    pub fn summary(&self) -> String {
        let g = &self.global;
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(out, "virtual clock      : {}", self.clock);
        let _ = writeln!(out, "threads            : {}", self.threads.len());
        let _ = writeln!(out, "instructions       : {}", g.instructions);
        let _ = writeln!(
            out,
            "monitor acquires   : {} ({} contended)",
            g.monitor_acquires, g.contended_acquires
        );
        let _ = writeln!(out, "context switches   : {}", g.context_switches);
        let _ = writeln!(out, "log entries        : {}", g.log_entries);
        let _ = writeln!(out, "revocations req.   : {}", g.revocations_requested);
        let _ = writeln!(
            out,
            "rollbacks          : {} ({} entries restored)",
            g.rollbacks, g.entries_rolled_back
        );
        let _ = writeln!(
            out,
            "inversions         : {} detected, {} unresolved",
            g.inversions_detected, g.inversions_unresolved
        );
        let _ = writeln!(out, "non-revocable marks: {}", g.monitors_marked_nonrevocable);
        if self.cores > 1 {
            let _ = writeln!(out, "cores              : {}", self.cores);
            let _ = writeln!(
                out,
                "revocation IPIs    : {} posted, {} acked ({} stale)",
                self.ipis.0, self.ipis.1, self.ipis.2
            );
        }
        if g.governor_throttles != 0 || g.policy_fallbacks != 0 {
            let _ = writeln!(
                out,
                "governor           : {} throttled, {} fallback windows",
                g.governor_throttles, g.policy_fallbacks
            );
        }
        if g.delegations_submitted != 0 || g.delegations_completed != 0 {
            let _ = writeln!(
                out,
                "delegations        : {} submitted, {} completed",
                g.delegations_submitted, g.delegations_completed
            );
        }
        let _ = writeln!(
            out,
            "deadlocks          : {} detected, {} broken",
            g.deadlocks_detected, g.deadlocks_broken
        );
        let _ = writeln!(
            out,
            "barriers           : {} fast paths, {} slow paths, {} elided",
            g.barrier_fast_paths, g.barrier_slow_paths, g.barriers_elided
        );
        out
    }
}

/// A cross-core revocation request in flight: the inter-processor
/// interrupt of the multi-core model. Posted by the requester to the
/// victim's core mailbox; delivered (and acked) when that core next
/// reaches the head of the small-step order, which is exactly a yield
/// point for every thread pinned there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ipi {
    /// The requesting (higher-priority) thread.
    pub(crate) by: ThreadId,
    /// The lock holder to be rolled back.
    pub(crate) victim: ThreadId,
    /// Acquisition id of the section to revoke, resolved to a section
    /// *index* at delivery (acq ids are path-dependent; see
    /// `fingerprint`).
    pub(crate) acq: u64,
    /// The contended monitor.
    pub(crate) monitor: crate::value::ObjRef,
}

/// One simulated core: a private run queue plus the IPI mailbox other
/// cores post cross-core revocation requests into.
#[derive(Debug, Default)]
pub(crate) struct CoreState {
    /// Ready threads pinned to this core, in arrival order.
    pub(crate) run_queue: VecDeque<ThreadId>,
    /// The thread that held this core's previous time slice (per-core
    /// context-switch accounting).
    pub(crate) last_dispatched: Option<ThreadId>,
    /// Pending cross-core revocation requests, delivered FIFO at this
    /// core's next scheduling step.
    pub(crate) ipis: VecDeque<Ipi>,
}

/// A program ready to execute under one configuration: rewritten if the
/// configuration asks for revocation support, and accepted by the
/// [bytecode verifier](crate::verify). Prepare once, then start any
/// number of VMs from it with [`Vm::from_prepared`] — what a model
/// checker re-executing one program under thousands of schedules needs.
#[derive(Clone, Debug)]
pub struct PreparedProgram {
    program: Arc<Program>,
    rewritten: bool,
}

impl PreparedProgram {
    /// Rewrite (if `config.rewrite`) and verify `program`, returning the
    /// verifier's findings on failure.
    pub fn new(
        program: Program,
        config: &VmConfig,
    ) -> Result<Self, Vec<crate::verify::VerifyError>> {
        let program = if config.rewrite { rewrite_program(&program) } else { program };
        crate::verify::verify_program(&program)?;
        Ok(PreparedProgram { program: Arc::new(program), rewritten: config.rewrite })
    }
}

/// The virtual machine.
pub struct Vm {
    /// The (possibly rewritten) program.
    pub(crate) program: Arc<Program>,
    pub(crate) heap: Heap,
    pub(crate) monitors: MonitorTable,
    pub(crate) threads: Vec<VmThread>,
    /// The simulated cores (always at least one). Single-core configs
    /// behave exactly like the historical global run queue.
    pub(crate) cores: Vec<CoreState>,
    /// Round-robin cursor over cores: the core whose turn the next
    /// scheduling round starts at.
    pub(crate) current_core: usize,
    /// The core whose slice (or delivery scan) is currently executing —
    /// stamped onto every emitted obs event.
    pub(crate) active_core: u32,
    /// Cross-core revocation IPIs posted / acknowledged / found stale at
    /// delivery.
    pub(crate) ipis_posted: u64,
    pub(crate) ipis_acked: u64,
    pub(crate) ipis_stale: u64,
    pub(crate) clock: u64,
    pub(crate) quantum_left: u64,
    pub(crate) rng: SmallRng,
    pub(crate) graph: WaitsForGraph,
    pub(crate) config: VmConfig,
    /// VM-global counters (per-thread counters live on the threads).
    pub(crate) global: Metrics,
    pub(crate) next_acq_id: u64,
    pub(crate) output: Vec<Value>,
    pub(crate) last_dispatched: Option<ThreadId>,
    pub(crate) steps: u64,
    pub(crate) next_background_scan: u64,
    pub(crate) trace: Vec<Event>,
    /// Optional observability sink; every event is also recorded into
    /// it, independently of `config.trace`.
    pub(crate) sink: Option<std::sync::Arc<revmon_obs::EventSink>>,
    /// Static write-barrier elision table (when `elide_barriers`).
    pub(crate) elision: Option<crate::analysis::ElisionTable>,
    /// Threads blocked in `Join`, keyed by the thread they wait for.
    /// Ordered map: wake-up processing must be deterministic.
    pub(crate) join_waiters: std::collections::BTreeMap<ThreadId, Vec<ThreadId>>,
    /// The scheduling decision procedure (from `config.scheduler` unless
    /// overridden via [`Vm::set_schedule_policy`]).
    pub(crate) policy: Box<dyn SchedulePolicy>,
    /// Optional execution probe (see [`crate::probe`]).
    pub(crate) probe: Option<Box<dyn crate::probe::Probe>>,
    /// Number of `RandInt` draws so far; together with `config.seed` this
    /// pins the RNG state (used by state fingerprinting).
    pub(crate) rng_draws: u64,
    /// Adaptive revocation governor state (see `config.governor`).
    pub(crate) governor: Governor,
    /// Next delegation completion token (tokens are process-unique per
    /// run, allocated in submission order).
    pub(crate) next_token: u32,
    /// Completed-but-unclaimed delegated results, keyed by token.
    /// Ordered map so invariant checks and fingerprints iterate
    /// deterministically.
    pub(crate) delegation_results: std::collections::BTreeMap<u32, Value>,
    /// Test-only: make [`Vm::run_local`] run nothing, so every
    /// instruction goes through `step` — the reference the batched loop
    /// is compared against.
    #[cfg(test)]
    pub(crate) step_only: bool,
}

impl Vm {
    /// Build a VM for `program` under `config` (running the rewrite pass
    /// if configured).
    ///
    /// The final program — after rewriting — is passed through the
    /// [bytecode verifier](crate::verify); a malformed program is a host
    /// bug and panics here. Use [`Vm::try_new`] to inspect the failures
    /// instead.
    pub fn new(program: Program, config: VmConfig) -> Self {
        match Self::try_new(program, config) {
            Ok(vm) => vm,
            Err(errors) => {
                let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
                panic!("program failed verification:\n  {}", msgs.join("\n  "));
            }
        }
    }

    /// Like [`Vm::new`] but returns the verifier's findings instead of
    /// panicking.
    pub fn try_new(
        program: Program,
        config: VmConfig,
    ) -> Result<Self, Vec<crate::verify::VerifyError>> {
        Ok(Self::from_prepared(&PreparedProgram::new(program, &config)?, config))
    }

    /// Build a VM for an already rewritten and verified program.
    ///
    /// # Panics
    /// If `config.rewrite` differs from the setting `prepared` was built
    /// under: the program would lack (or carry unasked-for) rollback
    /// scopes.
    pub fn from_prepared(prepared: &PreparedProgram, config: VmConfig) -> Self {
        assert_eq!(
            prepared.rewritten, config.rewrite,
            "program was prepared under a different `rewrite` setting"
        );
        Self::new_unverified(prepared.program.clone(), config)
    }

    /// Construct without verification (the program must already have been
    /// rewritten if the config asks for revocation support).
    pub(crate) fn new_unverified(program: Arc<Program>, config: VmConfig) -> Self {
        let mut heap = Heap::new(program.n_statics as usize);
        for &s in &program.volatile_statics {
            heap.declare_static_volatile(s).expect("volatile static in range");
        }
        let bg = match config.detection {
            DetectionStrategy::Background { period } => period,
            DetectionStrategy::AtAcquisition => u64::MAX,
        };
        let elision = config.elide_barriers.then(|| crate::analysis::analyze(&program));
        let n_cores = config.cores.max(1);
        Vm {
            program,
            heap,
            monitors: MonitorTable::new(config.queue_discipline),
            threads: Vec::new(),
            cores: (0..n_cores).map(|_| CoreState::default()).collect(),
            current_core: 0,
            active_core: 0,
            ipis_posted: 0,
            ipis_acked: 0,
            ipis_stale: 0,
            clock: 0,
            quantum_left: 0,
            rng: SmallRng::seed_from_u64(config.seed),
            graph: WaitsForGraph::new(),
            config,
            global: Metrics::new(),
            next_acq_id: 0,
            output: Vec::new(),
            last_dispatched: None,
            steps: 0,
            next_background_scan: bg,
            trace: Vec::new(),
            sink: None,
            elision,
            join_waiters: std::collections::BTreeMap::new(),
            policy: config.scheduler.policy(),
            probe: None,
            rng_draws: 0,
            governor: Governor::new(),
            next_token: 0,
            delegation_results: std::collections::BTreeMap::new(),
            #[cfg(test)]
            step_only: false,
        }
    }

    /// Replace the scheduling policy (e.g. with a
    /// [`Scripted`](crate::sched::Scripted) replay policy). The built-in
    /// policies come from `config.scheduler`.
    pub fn set_schedule_policy(&mut self, policy: Box<dyn SchedulePolicy>) {
        self.policy = policy;
    }

    /// The barrier-elision table, if the analysis ran (diagnostics).
    pub fn elision_table(&self) -> Option<&crate::analysis::ElisionTable> {
        self.elision.as_ref()
    }

    /// The rewritten program actually executing (for tests inspecting
    /// injected scopes).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Direct heap access (setting up benchmark data structures from the
    /// host before the run, and inspecting results after).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// Read-only heap access.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Monitor id → human name, for analysis reports.
    ///
    /// Monitor ids in the event stream are heap `ObjRef`s; names come
    /// from the program's class-name table (the assembler's
    /// `.class <tag> <name>` directive or `ProgramBuilder::class_name`).
    /// A lone instance of a named class gets the bare class name;
    /// multiple instances are numbered in allocation order (`name#0`,
    /// `name#1`, …), which is deterministic under the deterministic
    /// scheduler. Objects of unnamed classes are omitted.
    pub fn monitor_names(&self) -> std::collections::BTreeMap<u64, String> {
        let mut totals: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        let tag_of =
            |i: usize| self.heap.object(crate::value::ObjRef(i as u32)).ok().map(|o| o.class_tag);
        for i in 0..self.heap.object_count() {
            if let Some(tag) = tag_of(i) {
                if self.program.class_names.contains_key(&tag) {
                    *totals.entry(tag).or_insert(0) += 1;
                }
            }
        }
        let mut seen: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        let mut names = std::collections::BTreeMap::new();
        for i in 0..self.heap.object_count() {
            let Some(tag) = tag_of(i) else { continue };
            let Some(base) = self.program.class_names.get(&tag) else { continue };
            let ordinal = seen.entry(tag).or_insert(0);
            let name = if totals[&tag] == 1 { base.clone() } else { format!("{base}#{ordinal}") };
            *ordinal += 1;
            names.insert(i as u64, name);
        }
        names
    }

    /// Spawn a thread executing `method(args…)` at `priority`.
    pub fn spawn(
        &mut self,
        name: &str,
        method: MethodId,
        args: Vec<Value>,
        priority: Priority,
    ) -> ThreadId {
        let m = self.program.method(method);
        assert_eq!(args.len(), m.params as usize, "wrong argument count for {}", m.name);
        let locals = m.locals;
        let id = ThreadId(self.threads.len() as u32);
        let mut t = VmThread::new(id, name.to_string(), priority, method, locals, args);
        let core = id.index() % self.cores.len();
        t.core = core;
        self.threads.push(t);
        self.cores[core].run_queue.push_back(id);
        id
    }

    /// Record one monitor event, stamped with the virtual clock and the
    /// active core, into the in-memory trace and the attached sink.
    /// `thread` is the event's primary actor (the flagged holder for
    /// revoke requests), matching the locks runtime's attribution.
    #[inline]
    pub(crate) fn emit(&mut self, thread: ThreadId, monitor: ObjRef, kind: EventKind) {
        self.emit_raw(thread.0 as u64, monitor.0 as u64, kind);
    }

    /// [`Vm::emit`] for events whose thread or monitor is a sentinel
    /// ([`Event::NO_THREAD`], [`Event::NO_MONITOR`]). With neither
    /// `config.trace` nor a sink this is two untaken branches.
    pub(crate) fn emit_raw(&mut self, thread: u64, monitor: u64, kind: EventKind) {
        let ev = Event { ts: self.clock, thread, monitor, core: self.active_core, kind };
        if self.config.trace {
            self.trace.push(ev);
        }
        if let Some(sink) = &self.sink {
            sink.record(ev);
        }
    }

    /// Attach an observability sink. Every monitor event the VM produces
    /// is forwarded to it as a [`revmon_obs::Event`] stamped with the
    /// virtual clock — use [`revmon_obs::TsUnit::VirtualTicks`] when
    /// constructing the sink. Works independently of `config.trace`.
    pub fn attach_sink(&mut self, sink: std::sync::Arc<revmon_obs::EventSink>) {
        self.sink = Some(sink);
    }

    /// Consume the events recorded under `config.trace`.
    pub fn take_trace(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.trace)
    }

    /// Charge `ticks` to the virtual clock and the current quantum. The
    /// clock saturates: a hostile `work`/`sleep` operand pegs it at
    /// `u64::MAX` instead of wrapping (release) or panicking (debug).
    #[inline]
    pub(crate) fn charge(&mut self, ticks: u64) {
        self.clock = self.clock.saturating_add(ticks);
        self.quantum_left = self.quantum_left.saturating_sub(ticks);
    }

    pub(crate) fn thread(&self, tid: ThreadId) -> &VmThread {
        &self.threads[tid.index()]
    }

    pub(crate) fn thread_mut(&mut self, tid: ThreadId) -> &mut VmThread {
        &mut self.threads[tid.index()]
    }

    /// Make a thread runnable (push to its core's run queue and set
    /// `Ready`). Idempotent: a thread already queued keeps its position,
    /// so each run queue holds at most one entry per thread.
    pub(crate) fn make_ready(&mut self, tid: ThreadId) {
        let core = self.thread(tid).core;
        self.thread_mut(tid).state = ThreadState::Ready;
        if !self.cores[core].run_queue.contains(&tid) {
            self.cores[core].run_queue.push_back(tid);
        }
    }

    /// Run until every thread terminates. Returns the report, or an error
    /// if the machine faults or stalls.
    pub fn run(&mut self) -> Result<RunReport, VmError> {
        while self.run_round()? != RoundOutcome::Done {}
        Ok(self.report())
    }

    /// Execute one scheduling round: pick a runnable thread and dispatch
    /// it for one time slice (or advance the clock to the earliest
    /// sleeper when nothing is runnable). This is [`Vm::run`]'s loop body,
    /// exposed so external drivers — the `revmon-explore` model checker —
    /// can interpose state checks between slices.
    pub fn run_round(&mut self) -> Result<RoundOutcome, VmError> {
        self.background_scan_if_due()?;
        self.wake_sleepers();
        // Scan cores in the fixed small-step order starting at the
        // rotation cursor: deliver the core's pending IPIs, then pick
        // from its run queue. Delivery can make a thread Ready on a core
        // the scan already passed (e.g. a rollback releases a monitor and
        // the grant wakes a waiter pinned earlier in the order), so after
        // a pick-less full scan we rescan once — the mailboxes are empty
        // by then, so the second pass is pure picking. On one core the
        // second pass can never find anything the first didn't.
        for _pass in 0..2 {
            let n = self.cores.len();
            for step in 0..n {
                let c = (self.current_core + step) % n;
                self.active_core = c as u32;
                self.deliver_ipis(c)?;
                if let Some(tid) = self.pick_next_on(c) {
                    self.current_core = (c + 1) % n;
                    self.dispatch(tid)?;
                    return Ok(RoundOutcome::Ran(tid));
                }
            }
            if !self.threads.iter().any(|t| t.state == ThreadState::Ready) {
                break;
            }
        }
        // No runnable threads: advance to the earliest sleeper, finish,
        // or report a stall.
        if let Some(wake) = self
            .threads
            .iter()
            .filter_map(|t| match t.state {
                ThreadState::Sleeping(until) => Some(until),
                _ => None,
            })
            .min()
        {
            self.clock = self.clock.max(wake);
            self.wake_sleepers();
            return Ok(RoundOutcome::AdvancedClock);
        }
        if self.threads.iter().all(|t| t.is_terminated()) {
            return Ok(RoundOutcome::Done);
        }
        let blocked: Vec<ThreadId> =
            self.threads.iter().filter(|t| !t.is_terminated()).map(|t| t.id).collect();
        Err(VmError::Stalled(blocked))
    }

    /// Produce the report for the current machine state.
    pub fn report(&self) -> RunReport {
        let mut global = self.global;
        let threads: Vec<ThreadReport> = self
            .threads
            .iter()
            .map(|t| {
                global.merge(&t.metrics);
                ThreadReport {
                    id: t.id,
                    name: t.name.clone(),
                    priority: t.base_priority,
                    start_time: t.start_time.unwrap_or(0),
                    end_time: t.end_time.unwrap_or(self.clock),
                    metrics: t.metrics,
                    uncaught: t.uncaught,
                }
            })
            .collect();
        let mut monitors: Vec<MonitorReport> = self
            .monitors
            .iter()
            .map(|(&object, m)| MonitorReport {
                object,
                acquires: m.acquires,
                contended: m.contended,
                peak_queue: m.peak_queue,
            })
            .collect();
        // Sorted by contention, with the object reference as a total-order
        // tie-break so report order is deterministic.
        monitors.sort_by_key(|m| (std::cmp::Reverse((m.contended, m.acquires)), m.object));
        RunReport {
            clock: self.clock,
            threads,
            global,
            output: self.output.clone(),
            monitors,
            cores: self.cores.len(),
            ipis: (self.ipis_posted, self.ipis_acked, self.ipis_stale),
        }
    }

    /// Pick the next thread to dispatch on `core`: prune stale queue
    /// entries (threads re-queued then blocked again), present the Ready
    /// threads to the [`SchedulePolicy`] in queue order, and dequeue its
    /// choice.
    fn pick_next_on(&mut self, core: usize) -> Option<ThreadId> {
        let threads = &self.threads;
        let queue = &mut self.cores[core].run_queue;
        queue.retain(|tid| threads[tid.index()].state == ThreadState::Ready);
        if queue.is_empty() {
            return None;
        }
        let candidates: Vec<Candidate> = queue
            .iter()
            .map(|&tid| Candidate {
                tid,
                effective_priority: threads[tid.index()].effective_priority,
                base_priority: threads[tid.index()].base_priority,
            })
            .collect();
        let ctx =
            SchedContext { last_dispatched: self.cores[core].last_dispatched, clock: self.clock };
        let idx = self.policy.choose(&candidates, &ctx).min(candidates.len() - 1);
        self.cores[core].run_queue.remove(idx)
    }

    fn wake_sleepers(&mut self) {
        let now = self.clock;
        let due: Vec<ThreadId> = self
            .threads
            .iter()
            .filter(|t| matches!(t.state, ThreadState::Sleeping(u) if u <= now))
            .map(|t| t.id)
            .collect();
        for tid in due {
            self.make_ready(tid);
        }
    }

    /// Run `tid` until it blocks, sleeps, terminates, or exhausts its
    /// quantum at a yield point.
    fn dispatch(&mut self, tid: ThreadId) -> Result<(), VmError> {
        let core = self.thread(tid).core;
        if self.cores[core].last_dispatched != Some(tid) {
            self.charge(self.config.cost.context_switch);
            self.thread_mut(tid).metrics.context_switches += 1;
        }
        self.cores[core].last_dispatched = Some(tid);
        self.last_dispatched = Some(tid);
        self.quantum_left = self.config.cost.quantum;
        {
            let clock = self.clock;
            let t = self.thread_mut(tid);
            t.state = ThreadState::Running;
            if t.start_time.is_none() {
                t.start_time = Some(clock);
            }
        }
        // Dispatch start is a yield point: act on pending revocations.
        let mut at_yield_point = true;
        loop {
            if at_yield_point && self.thread(tid).pending_revoke.is_some() {
                self.perform_revocation(tid)?;
                if self.thread(tid).state != ThreadState::Running {
                    return Ok(()); // rollback left it re-acquiring
                }
            }
            if at_yield_point && self.quantum_left == 0 {
                // Time slice over: rotate.
                self.make_ready(tid);
                return Ok(());
            }
            // Frame-local stretch first; `step` takes whatever stopped it.
            if self.run_local(tid).1 {
                at_yield_point = true;
                continue;
            }
            self.steps += 1;
            if self.config.max_steps != 0 && self.steps > self.config.max_steps {
                return Err(VmError::StepLimit(self.config.max_steps));
            }
            match self.step(tid)? {
                StepOutcome::Continue { yield_point } => at_yield_point = yield_point,
                StepOutcome::Descheduled => return Ok(()),
                StepOutcome::Terminated => {
                    self.thread_mut(tid).end_time = Some(self.clock);
                    // Wake any joiners.
                    if let Some(waiters) = self.join_waiters.remove(&tid) {
                        for w in waiters {
                            self.make_ready(w);
                        }
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Background inversion detection (§1.1's "periodically in the
    /// background" option): scan all contended monitors for a waiter with
    /// priority above the deposited holder priority.
    fn background_scan_if_due(&mut self) -> Result<(), VmError> {
        let DetectionStrategy::Background { period } = self.config.detection else {
            return Ok(());
        };
        if self.clock < self.next_background_scan {
            return Ok(());
        }
        self.next_background_scan = self.clock.saturating_add(period);
        let contended: Vec<(crate::value::ObjRef, ThreadId, Priority)> = self
            .monitors
            .iter()
            .filter_map(|(&obj, m)| {
                let owner = m.owner?;
                let top = m.queue.max_waiting_priority()?;
                (top > m.holder_priority).then_some((obj, owner, top))
            })
            .collect();
        for (obj, owner, _top) in contended {
            // Re-use the acquisition-time request path; requester identity
            // is synthesized from the queue's best waiter.
            let by = self
                .monitors
                .get(obj)
                .and_then(|m| m.queue.iter().next().copied())
                .unwrap_or(owner);
            self.request_revocation(by, owner, obj)?;
        }
        Ok(())
    }
}

impl Vm {
    // --- read-only introspection (exploration / invariant checking) ----

    /// Current virtual-clock value.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// All green threads, indexed by [`ThreadId`].
    pub fn vm_threads(&self) -> &[VmThread] {
        &self.threads
    }

    /// The monitor table (every object ever synchronized on).
    pub fn monitor_table(&self) -> &MonitorTable {
        &self.monitors
    }

    /// Number of threads currently queued to run, summed over cores. A
    /// scheduling round can only present a choice when this is at least
    /// 2, which lets callers skip per-round work (e.g. state
    /// fingerprinting) on the long single-runnable stretches of a
    /// program.
    pub fn run_queue_len(&self) -> usize {
        self.cores.iter().map(|c| c.run_queue.len()).sum()
    }

    /// The thread holding / last holding a time slice on any core.
    pub fn last_dispatched(&self) -> Option<ThreadId> {
        self.last_dispatched
    }

    /// Cross-core revocation IPIs posted so far.
    pub fn ipis_posted(&self) -> u64 {
        self.ipis_posted
    }

    /// Cross-core revocation IPIs delivered and acknowledged so far.
    pub fn ipis_acked(&self) -> u64 {
        self.ipis_acked
    }

    /// Acked IPIs that were stale on delivery (the holder had already
    /// released, committed, or terminated — no revocation was armed).
    pub fn ipis_stale(&self) -> u64 {
        self.ipis_stale
    }

    /// IPIs posted but not yet delivered (sum of core mailbox lengths).
    /// `ipis_posted == ipis_acked + ipis_pending` at every quiescent
    /// point, and zero here at termination: no IPI is ever lost.
    pub fn ipis_pending(&self) -> usize {
        self.cores.iter().map(|c| c.ipis.len()).sum()
    }

    /// Hash of the heap alone (objects + statics). Scheduling must not
    /// change terminal program results: for data-race-free corpus
    /// programs this is identical across core counts, which the
    /// cross-core differential tests assert.
    pub fn heap_fingerprint(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.heap.hash_state(&mut h);
        h.finish()
    }

    /// Values emitted so far via `Native(Emit/Print)`.
    pub fn output(&self) -> &[Value] {
        &self.output
    }

    /// Number of `RandInt` draws performed so far.
    pub fn rng_draws(&self) -> u64 {
        self.rng_draws
    }

    /// The configuration this VM was built with.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// The revocation governor's state (introspection for the explore
    /// bounded-revocation invariant and the CLI stats report).
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// Delegation tokens allocated so far (== delegated submissions).
    pub fn delegation_tokens(&self) -> u32 {
        self.next_token
    }

    /// Completed-but-unclaimed delegated results, in token order
    /// (invariant checking and state fingerprinting).
    pub fn delegation_results(&self) -> impl Iterator<Item = (u32, Value)> + '_ {
        self.delegation_results.iter().map(|(&t, &v)| (t, v))
    }

    /// Number of delegated submissions still queued across all monitors
    /// (must be zero at termination — every submission executes).
    pub fn delegations_pending(&self) -> usize {
        self.monitors.iter().map(|(_, m)| m.submissions.len()).sum()
    }

    /// A deterministic snapshot of the live wait-for graph: every
    /// thread→monitor→holder blocking edge, annotated with effective
    /// priorities and the governor's revocation streak for the
    /// `(monitor, holder)` pair. Render with
    /// [`GraphSnapshot::to_dot`](revmon_obs::GraphSnapshot::to_dot) /
    /// [`to_json`](revmon_obs::GraphSnapshot::to_json), using
    /// [`Vm::monitor_names`] for labels.
    pub fn wait_graph_snapshot(&self) -> revmon_obs::GraphSnapshot {
        let prio = |tid: revmon_core::ThreadId| {
            self.threads.get(tid.index()).map(|t| t.effective_priority.0).unwrap_or(0)
        };
        let edges = self
            .graph
            .edges()
            .map(|e| revmon_obs::GraphEdge {
                waiter: e.waiter.0 as u64,
                waiter_priority: prio(e.waiter),
                monitor: e.monitor.0 as u64,
                holder: e.owner.0 as u64,
                holder_priority: prio(e.owner),
                governor_streak: self.governor.streak(e.monitor.0 as u64, e.owner.0 as u64),
            })
            .collect();
        revmon_obs::GraphSnapshot::new(edges)
    }
}

/// What one scheduling round did (see [`Vm::run_round`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundOutcome {
    /// A thread was dispatched for one time slice.
    Ran(ThreadId),
    /// Nothing was runnable: the clock jumped to the earliest sleeper's
    /// deadline.
    AdvancedClock,
    /// Every thread has terminated.
    Done,
}

/// What one interpreter step produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Keep running this thread; `yield_point` marks quantum/revocation
    /// check sites.
    Continue {
        /// Whether the executed instruction was a yield point.
        yield_point: bool,
    },
    /// The thread blocked, slept, or was otherwise descheduled (state
    /// already updated).
    Descheduled,
    /// The thread finished its root method.
    Terminated,
}
