//! The revocable monitor for real OS threads.
//!
//! Semantics mirror the paper's revocable monitors on the VM side:
//!
//! * **prioritized entry queues** — on release, ownership transfers to
//!   the highest-priority waiter (FIFO within a class);
//! * **inversion detection at acquisition** — a contender whose priority
//!   exceeds the priority deposited by the holder flags the holder's
//!   outermost section on this monitor for revocation;
//! * **revocation at yield points** — the holder polls the flag at every
//!   `Tx` access (and `checkpoint()`), unwinds via the rollback signal,
//!   restores every logged update *before* releasing the monitor, and
//!   retries the closure after the high-priority thread has run;
//! * **policy baselines** — plain blocking, queue-level priority
//!   inheritance, and priority ceiling are available for comparison.
//!
//! # Thin, fat, and *compact* locks
//!
//! Like the Jikes RVM locking the paper builds on, the monitor is **thin
//! by default**: a single `AtomicU64` lock word packs the owner's dense
//! thread id, the recursion count, and the deposited priority, so an
//! uncontended `enter` and `exit` are one CAS each — no OS mutex, no
//! queue, no allocation. On contention, `wait`/`notify`, or revocation
//! the word *inflates* — but the fat `MState` is not embedded in the
//! monitor: it is **leased from a global pooled side table**
//! (`sidetable.rs`) and the word packs the record index
//! plus a generation stamp. Deflation returns the record to the pool, so
//! an idle or deflated monitor is exactly one `AtomicU64` and a process
//! with millions of monitors pays fat-state memory proportional to
//! *currently contended* monitors only. [`MonitorArena`] exploits this
//! to hand out monitors at 8 bytes each. See `docs/INTERNALS.md` for
//! the encodings and the inflation protocol.
//!
//! The holder is recorded once: in the word while thin, as the fat
//! record's `owner` (its thread slot) once inflated. Its sections are on
//! that slot's section stack, where contenders and the deadlock breaker
//! look them up; the record keeps no copy. The registry's waits-for
//! edges for a monitor change under its record lock, so the order is
//! record ≺ registry graph ≺ slot table ≺ section stack.
//!
//! A blocked thread's handoff state is kept on its thread slot, not per
//! wait: the entry queue and the wait set hold the waiters' slots, and
//! each slot has one `wake` flag and the level it queued at
//! (`blocked_at`, for the registry). One flag per thread is enough
//! because a thread blocks on one monitor at a time and keeps one rule:
//! it lowers `wake` under the record lock in the same critical section
//! that puts it in the entry queue or the wait set, and only
//! `grant_next` or `notify` raise it, under that record's lock and
//! before the unpark. A raise needs the thread in the record's queue or
//! wait set, and the thread leaves either only in the raise's critical
//! section or in one of its own that follows it, so no raise from an
//! earlier episode can end a later one.
//!
//! Closures passed to [`RevocableMonitor::enter`] may run multiple times;
//! like any optimistic-execution API, side effects outside the `Tx` must
//! be idempotent or deferred (use [`Tx::irrevocable`] for native-call-like
//! effects, which pins the section non-revocable first).

use crate::obs;
use crate::registry;
use crate::sidetable::SideTable;
use crate::signal::{as_rollback, RollbackSignal};
use crate::stats::{MonitorStats, StatsSnapshot};
use crate::tx::{self, SectionCtx, Tx};
use parking_lot::{Mutex, MutexGuard};
use revmon_core::{
    revocation_verdict, Governor, GovernorConfig, GovernorVerdict, InversionPolicy,
    PrioritizedQueue, Priority, RevocationVerdict,
};
use revmon_obs::prof::{timers, Phase};
use revmon_obs::EventKind;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

static NEXT_MONITOR_ID: AtomicU64 = AtomicU64::new(1);

// ------------------------------------------------------------ lock word
//
// Bit layout of a monitor's lock word:
//
// Thin (bit 63 clear):
//   bits  0..32   owner dense thread id (0 = unowned)
//   bits 32..48   recursion count (thin states hold >= 1)
//   bits 48..56   deposited holder priority (the "monitor header"
//                 priority of §4, readable by contenders without a lock)
//
// Inflated (bit 63 set):
//   bits  0..24   side-table record index of the leased `MState`
//   bits 24..63   generation stamp of the lease (masked; see
//                 `sidetable::GEN_BITS`)
//
// Invariant: the word is either 0 (free, thin-acquirable), a thin
// ownership record, or an inflated packed lease. Transitions out of
// 0/thin are single CASes; an inflated word is only written by the
// inflater *after* locking the leased record, and only cleared
// (deflation) under the record lock by a full release that leaves no
// queue, grant, or wait-set entries — at which point the record's
// generation is bumped and it returns to the pool.

/// Word bit marking the monitor as inflated (fat).
const INFLATED: u64 = 1 << 63;
/// One recursion-count increment.
const REC_ONE: u64 = 1 << 32;
/// Maximum thin recursion depth; deeper nesting inflates.
const REC_MAX: u64 = 0xFFFF;
/// Bits of an inflated word holding the side-table record index.
const IDX_BITS: u32 = 24;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;

#[inline]
fn pack_thin(dense: u32, rec: u64, prio: u8) -> u64 {
    dense as u64 | (rec << 32) | ((prio as u64) << 48)
}
#[inline]
fn thin_owner(w: u64) -> u32 {
    w as u32
}
#[inline]
fn thin_rec(w: u64) -> u64 {
    (w >> 32) & REC_MAX
}
#[inline]
fn thin_prio(w: u64) -> u8 {
    (w >> 48) as u8
}
#[inline]
fn pack_fat(idx: u32, gen: u64) -> u64 {
    INFLATED | ((gen & crate::sidetable::GEN_MASK) << IDX_BITS) | idx as u64
}
#[inline]
fn fat_idx(w: u64) -> u32 {
    (w & IDX_MASK) as u32
}
#[inline]
fn fat_gen(w: u64) -> u64 {
    (w >> IDX_BITS) & crate::sidetable::GEN_MASK
}

/// Bounded spin before parking on a handoff flag. The M0a profiling runs
/// showed the slow path is handoff-bound: the park/unpark round trip
/// costs a few microseconds while the wake signal itself usually lands
/// well under one, so polling the flag first saves the syscall pair
/// whenever the handoff is fast. Falls through to `thread::park()`; all
/// call sites re-check state in a loop, so both a spurious park return
/// and a leftover unpark token (flag landed mid-spin) are benign.
const HANDOFF_SPINS: u32 = 128;

#[inline]
fn spin_then_park(flag: &AtomicBool) {
    for _ in 0..HANDOFF_SPINS {
        if flag.load(Ordering::Acquire) {
            return;
        }
        std::hint::spin_loop();
    }
    thread::park();
}

/// Fat-monitor state; leased from the side table and authoritative only
/// while some monitor's word packs the lease.
///
/// The owner's sections on the monitor are not copied here: they are on
/// its slot's section stack ([`tx::ThreadSlot::outermost_on`]).
#[derive(Default)]
struct MState {
    /// Runtime slot of the owner: park handle, dense id, observability
    /// id, section stack, and the cached revocation flag contenders
    /// raise alongside the section's.
    owner: Option<Arc<tx::ThreadSlot>>,
    /// Priority deposited in the "monitor header" at acquisition (§4).
    holder_priority: Priority,
    recursion: u32,
    /// Entry queue of the waiting threads' slots: O(1) class-bitmap
    /// prioritized queue (§4's prioritized monitor queues; FIFO within a
    /// class).
    queue: PrioritizedQueue<Arc<tx::ThreadSlot>>,
    /// Handoff token: the dense id of the thread ownership was
    /// transferred to.
    grant: Option<u32>,
    /// Slots of the threads in `wait`, oldest first.
    wait_set: Vec<Arc<tx::ThreadSlot>>,
}

impl MState {
    /// Whether the thread with dense id `me` owns the monitor.
    fn owned_by(&self, me: u32) -> bool {
        self.owner.as_ref().is_some_and(|o| o.dense == me)
    }

    /// Free and not reserved for anyone, or reserved for `me` by
    /// `grant_next`: the states in which `me` may become the owner.
    fn available_to(&self, me: u32) -> bool {
        self.grant == Some(me) || (self.owner.is_none() && self.grant.is_none())
    }
}

impl std::fmt::Debug for MState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MState")
            .field("owner", &self.owner.as_ref().map(|o| o.dense))
            .field("recursion", &self.recursion)
            .field("queue_len", &self.queue.len())
            .field("wait_set_len", &self.wait_set.len())
            .field("grant", &self.grant)
            .finish()
    }
}

/// The global fat-state pool. One process-wide table: fat records are
/// interchangeable, and pooling across monitors is exactly what keeps
/// idle monitors at one word.
static MSTATES: SideTable<MState> = SideTable::new();

/// Diagnostics: high-water count of *concurrently* inflated monitors
/// this process has seen — the number of fat records ever allocated
/// (each `Mutex<MState>` plus queues). Total inflation count does not
/// grow this; only simultaneous fat monitors do.
pub fn fat_record_high_water() -> u32 {
    MSTATES.allocated()
}

/// Diagnostics: fat records currently pooled (allocated but not leased
/// by any inflated monitor).
pub fn fat_records_pooled() -> usize {
    MSTATES.pooled()
}

/// A locked lease on a monitor's fat state: the side-table record's
/// guard plus the `(index, generation)` that validated it. Dropping the
/// guard unlocks the record but keeps the lease (the word still packs
/// it); [`MonRef::maybe_deflate`] consumes the guard to end the lease.
struct FatGuard {
    idx: u32,
    gen: u64,
    s: MutexGuard<'static, MState>,
}

impl Deref for FatGuard {
    type Target = MState;
    fn deref(&self) -> &MState {
        &self.s
    }
}
impl DerefMut for FatGuard {
    fn deref_mut(&mut self) -> &mut MState {
        &mut self.s
    }
}

/// Identity-independent monitor state shared by [`RevocableMonitor`]
/// (one per monitor) and [`MonitorArena`] (one per *arena*): stats,
/// governor. Everything per-monitor and hot lives in the lock word;
/// everything here is either cold or meaningfully shareable across an
/// arena's monitors (the governor keys its history by monitor id, so one
/// instance serves many monitors).
#[derive(Debug)]
pub(crate) struct MonitorShared {
    pub(crate) stats: Arc<MonitorStats>,
    /// Whether the revocation governor is enabled — a relaxed load keeps
    /// the commit/rollback hot paths free of the governor mutex when
    /// ungoverned (the default).
    governed: AtomicBool,
    /// Adaptive revocation governor: config + per-(monitor, holder)
    /// history. Leaf lock, acquired (rarely) with or without a fat
    /// guard held.
    governor: Mutex<(GovernorConfig, Governor)>,
}

impl MonitorShared {
    fn new() -> Self {
        let stats = Arc::new(MonitorStats::default());
        registry::register_stats(&stats);
        MonitorShared {
            stats,
            governed: AtomicBool::new(false),
            governor: Mutex::new((GovernorConfig::disabled(), Governor::new())),
        }
    }

    fn set_governor(&self, cfg: GovernorConfig) {
        let mut g = self.governor.lock();
        g.0 = cfg;
        self.governed.store(cfg.enabled(), Ordering::Relaxed);
    }

    fn governor_max_streak(&self) -> u32 {
        self.governor.lock().1.max_streak()
    }
}

/// A borrowed, `Copy` view of one monitor: its identity, policy, lock
/// word, and shared cold state. The entire protocol is implemented on
/// this view, so a monitor *is* whatever can produce one — a standalone
/// [`RevocableMonitor`] or an 8-byte [`MonitorArena`] slot.
#[derive(Clone, Copy)]
pub(crate) struct MonRef<'a> {
    pub(crate) id: u64,
    pub(crate) policy: InversionPolicy,
    pub(crate) word: &'a AtomicU64,
    pub(crate) shared: &'a MonitorShared,
}

/// A monitor whose synchronized sections can be revoked to resolve
/// priority inversion (and break deadlocks).
///
/// ```
/// use revmon_locks::{RevocableMonitor, TCell};
/// use revmon_core::Priority;
///
/// let m = RevocableMonitor::new();
/// let balance = TCell::new(100i64);
/// let got = m.enter(Priority::HIGH, |tx| {
///     let b = tx.read(&balance);
///     tx.write(&balance, b - 30);
///     b - 30
/// });
/// assert_eq!(got, 70);
/// assert_eq!(balance.read_unsynchronized(), 70);
/// ```
#[derive(Debug)]
pub struct RevocableMonitor {
    id: u64,
    policy: InversionPolicy,
    /// Lock word (see the module docs for the encoding).
    word: AtomicU64,
    shared: MonitorShared,
}

impl Default for RevocableMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl RevocableMonitor {
    /// A revocation-policy monitor (the paper's mechanism).
    pub fn new() -> Self {
        Self::with_policy(InversionPolicy::Revocation)
    }

    /// A monitor under an explicit policy (blocking / inheritance /
    /// ceiling baselines).
    pub fn with_policy(policy: InversionPolicy) -> Self {
        RevocableMonitor {
            id: NEXT_MONITOR_ID.fetch_add(1, Ordering::Relaxed),
            policy,
            word: AtomicU64::new(0),
            shared: MonitorShared::new(),
        }
    }

    #[inline]
    pub(crate) fn as_ref(&self) -> MonRef<'_> {
        MonRef { id: self.id, policy: self.policy, word: &self.word, shared: &self.shared }
    }

    /// A named revocation-policy monitor — shorthand for
    /// [`new`](Self::new) + [`set_name`](Self::set_name).
    pub fn named(name: &str) -> Self {
        let m = Self::new();
        m.set_name(name);
        m
    }

    /// Give this monitor a human name; analysis reports over traces
    /// from this process then say `monitor "queue"` instead of its
    /// numeric id. Off the hot path; renaming overwrites.
    pub fn set_name(&self, name: &str) {
        obs::name_monitor(self.id, name);
    }

    /// The id this monitor carries in [`revmon_obs::Event::monitor`] —
    /// the key for `obs::monitor_names()` and trace name tables.
    pub fn obs_id(&self) -> u64 {
        self.id
    }

    /// This monitor's policy.
    pub fn policy(&self) -> InversionPolicy {
        self.policy
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.reconciled_snapshot()
    }

    /// Configure the adaptive revocation governor for this monitor
    /// (`GovernorConfig::disabled()` turns it back off). `backoff` and
    /// `decay` are in nanoseconds on this runtime (the observability
    /// clock). Takes effect for subsequent contention; accumulated
    /// per-holder history is kept.
    pub fn set_governor(&self, cfg: GovernorConfig) {
        self.shared.set_governor(cfg);
    }

    /// High-water mark: the longest consecutive-revocation streak the
    /// governor has seen on this monitor, commits notwithstanding (0
    /// when ungoverned). Under a budget of `k` it never exceeds `k` —
    /// the bounded-revocation guarantee, checkable after the run.
    pub fn governor_max_streak(&self) -> u32 {
        self.shared.governor_max_streak()
    }

    /// Execute `f` inside the monitor at `priority`.
    ///
    /// Under the revocation policy the closure may execute several times:
    /// a higher-priority contender can preempt it mid-flight, in which
    /// case all `Tx` writes are rolled back and `f` re-runs after the
    /// contender has gone through. A panic from `f` itself (not a
    /// revocation) keeps the updates, releases the monitor, and
    /// propagates — Java exception semantics.
    pub fn enter<R>(&self, priority: Priority, f: impl FnMut(&mut Tx<'_>) -> R) -> R {
        self.as_ref().enter(priority, f)
    }

    /// Like [`enter`](Self::enter) at [`Priority::NORM`].
    pub fn enter_norm<R>(&self, f: impl FnMut(&mut Tx<'_>) -> R) -> R {
        self.enter(Priority::NORM, f)
    }

    /// Non-blocking [`enter`](Self::enter): run `f` only if the monitor
    /// is immediately available (or already held by this thread).
    ///
    /// Returns `None` without running `f` when the monitor is busy — and
    /// also when the section was *revoked* mid-flight and the monitor was
    /// no longer free on retry (the closure's effects are rolled back, so
    /// `None` always means "nothing happened").
    pub fn try_enter<R>(&self, priority: Priority, f: impl FnMut(&mut Tx<'_>) -> R) -> Option<R> {
        self.as_ref().try_enter(priority, f)
    }
}

impl MonRef<'_> {
    /// Act on an inversion against `holder`'s section `target`: the
    /// verdict of [`revocation_verdict`] — the section's revocability,
    /// then the governor — mapped to the counters and events the VM maps
    /// it to. `by` is the contender's observability id.
    fn request_revocation(self, holder: &tx::ThreadSlot, target: &SectionCtx, by: u64) {
        let verdict = revocation_verdict(target.revocable(), || {
            if !self.shared.governed.load(Ordering::Relaxed) {
                return GovernorVerdict::Allow;
            }
            let mut g = self.shared.governor.lock();
            let (cfg, gov) = &mut *g;
            gov.consult(*cfg, self.id, holder.obs, obs::now_ns())
        });
        let stats = &self.shared.stats;
        match verdict {
            RevocationVerdict::Unresolvable => {
                stats.inversions_unresolved.fetch_add(1, Ordering::Relaxed);
                obs::emit_for(holder.obs, self.id, EventKind::InversionUnresolved { by });
            }
            RevocationVerdict::Throttled { fresh } => {
                stats.governor_throttles.fetch_add(1, Ordering::Relaxed);
                obs::emit_for(holder.obs, self.id, EventKind::GovernorThrottle { by });
                if fresh {
                    stats.policy_fallbacks.fetch_add(1, Ordering::Relaxed);
                    obs::emit_for(holder.obs, self.id, EventKind::PolicyFallback);
                }
            }
            RevocationVerdict::Request => {
                if holder.signal_revoke(target) {
                    stats.revocations_requested.fetch_add(1, Ordering::Relaxed);
                    obs::emit_for(holder.obs, self.id, EventKind::RevokeRequest { by });
                }
            }
        }
    }

    /// See [`RevocableMonitor::enter`].
    fn enter<R>(self, priority: Priority, f: impl FnMut(&mut Tx<'_>) -> R) -> R {
        self.run_section(|| Some(self.acquire(priority)), f)
            .expect("a blocking acquire always returns a section")
    }

    /// See [`RevocableMonitor::try_enter`].
    fn try_enter<R>(self, priority: Priority, f: impl FnMut(&mut Tx<'_>) -> R) -> Option<R> {
        self.run_section(|| self.try_acquire(priority), f)
    }

    /// The section loop under `enter` and `try_enter`: acquire, run one
    /// attempt of `f`, commit — or, when the attempt was revoked, roll
    /// back, release and go round again. `None` as soon as `acquire`
    /// declines (only `try_enter`'s does), on a retry included.
    #[inline]
    fn run_section<R>(
        self,
        mut acquire: impl FnMut() -> Option<Arc<SectionCtx>>,
        mut f: impl FnMut(&mut Tx<'_>) -> R,
    ) -> Option<R> {
        loop {
            let ctx = acquire()?;
            match self.attempt(&ctx, &mut f) {
                Ok(r) => {
                    self.commit_and_release(&ctx);
                    return Some(r);
                }
                Err(payload) => {
                    if let Some(sig) = as_rollback(&*payload) {
                        let retry = sig.target == ctx.id;
                        self.rollback_and_release(&ctx);
                        if retry {
                            // This frame is the revocation target: retry.
                            // (Ownership was handed to the queue head —
                            // the high-priority thread — so a blocking
                            // re-entry queues behind it, as in
                            // Fig. 1(d–e).)
                            continue;
                        }
                        // An enclosing section is the target: keep
                        // unwinding, like the injected handlers re-throw.
                        resume_unwind(payload);
                    }
                    // Genuine user panic: Java semantics — the updates
                    // stand, the monitor is released, the panic continues.
                    self.commit_and_release(&ctx);
                    resume_unwind(payload);
                }
            }
        }
    }

    /// One attempt of a section body, under the section's `Tx`
    /// ([`tx::with_tx`]): catches whatever unwinds out of `body` — a
    /// rollback signal or a user panic — and flushes the attempt's
    /// locally counted log entries (first writes) into the shared
    /// counter, once, off the write hot path. Every body the monitor
    /// runs goes through here.
    #[inline]
    fn attempt<R>(
        self,
        ctx: &Arc<SectionCtx>,
        body: impl FnOnce(&mut Tx<'_>) -> R,
    ) -> thread::Result<R> {
        let (r, logged) = tx::with_tx(ctx, self, |tx| catch_unwind(AssertUnwindSafe(|| body(tx))));
        if logged > 0 {
            self.shared.stats.log_entries.fetch_add(logged, Ordering::Relaxed);
        }
        r
    }

    // ------------------------------------------------------------ fast path

    /// One-CAS acquisition: claim a free word, or bump the recursion of a
    /// word we already own thin. `None` ⇒ take the slow path.
    #[inline]
    fn fast_enter(self, eff: Priority) -> Option<Arc<SectionCtx>> {
        let w = self.word.load(Ordering::Relaxed);
        if w == 0 {
            // Push the section *before* publishing ownership: an
            // inflating contender finds holder sections through our
            // stack, so the stack must already contain this section by
            // the time the CAS makes us visible as the owner.
            let ctx = self.new_section(eff);
            let dense = tx::my_dense();
            if self
                .word
                .compare_exchange(
                    0,
                    pack_thin(dense, 1, eff.level()),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                self.note_thin_acquire();
                return Some(ctx);
            }
            tx::abandon_section(&ctx);
            return None;
        }
        if w & INFLATED == 0 && thin_rec(w) < REC_MAX && thin_owner(w) == tx::my_dense() {
            // Reentrant: same push-before-CAS ordering; the original
            // deposited priority is kept (outermost acquisition rules).
            let ctx = self.new_section(eff);
            if self
                .word
                .compare_exchange(w, w + REC_ONE, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                self.note_thin_acquire();
                return Some(ctx);
            }
            tx::abandon_section(&ctx);
        }
        None
    }

    #[inline]
    fn note_thin_acquire(self) {
        // One RMW: `thin_acquires` alone. Snapshot read points fold it
        // back into the public `acquires` total (`reconciled_snapshot`).
        self.shared.stats.thin_acquires.fetch_add(1, Ordering::Relaxed);
        obs::emit(self.id, EventKind::Acquire);
    }

    /// One-CAS release of a thin-owned word. Falls back to the slow path
    /// when the word was inflated underneath us.
    #[inline]
    fn fast_release(self) {
        let w = self.word.load(Ordering::Relaxed);
        if w & INFLATED == 0 {
            let rec = thin_rec(w);
            let new = if rec > 1 { w - REC_ONE } else { 0 };
            if self.word.compare_exchange(w, new, Ordering::Release, Ordering::Relaxed).is_ok() {
                if rec == 1 {
                    obs::emit(self.id, EventKind::Release);
                }
                return;
            }
        }
        self.release_slow();
    }

    // ------------------------------------------------------------ internals

    /// Push a new section for this monitor. Under policies that never
    /// roll back (`needs_logging() == false` — blocking, inheritance,
    /// ceiling) the section is pinned non-revocable at birth: `Tx`
    /// writes skip the undo barrier under those policies, so nothing (in particular not the deadlock breaker) may ever try to
    /// unwind such a section — there would be no log to restore from.
    #[inline]
    fn new_section(self, eff: Priority) -> Arc<SectionCtx> {
        let ctx = tx::begin_section(self.id, eff);
        if !self.policy.needs_logging() {
            ctx.non_revocable.store(true, Ordering::Release);
        }
        ctx
    }

    fn effective(self, priority: Priority) -> Priority {
        match self.policy {
            InversionPolicy::PriorityCeiling(c) => priority.max_of(c),
            _ => priority,
        }
    }

    /// Acquire the monitor (blocking), push the new section, and return
    /// its context. Unwinds with a rollback signal if this thread is
    /// revoked while parked (deadlock victim / enclosing-section
    /// revocation).
    fn acquire(self, priority: Priority) -> Arc<SectionCtx> {
        let eff = self.effective(priority);
        if eff > priority {
            self.shared.stats.priority_boosts.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(ctx) = self.fast_enter(eff) {
            return ctx;
        }
        self.acquire_slow(eff)
    }

    /// Lock this monitor's fat state, if it is inflated.
    ///
    /// Validated against the side table: lock the record the word names,
    /// then check the word's generation against the record's. The
    /// generation is bumped only at pool return (under the record lock),
    /// so a match proves the lease that packed our word is still active
    /// — the record was never returned, hence never re-leased to another
    /// monitor. A mismatch means the monitor deflated and the record was
    /// recycled between our word read and our record lock: re-read the
    /// word (`None` once it is no longer inflated).
    fn fat_guard(self) -> Option<FatGuard> {
        loop {
            let w = self.word.load(Ordering::Acquire);
            if w & INFLATED == 0 {
                return None;
            }
            let (idx, gen) = (fat_idx(w), fat_gen(w));
            if let Some(s) = MSTATES.lock_validated(idx, gen) {
                return Some(FatGuard { idx, gen, s });
            }
        }
    }

    /// Inflate the monitor (idempotent) and return the fat guard.
    ///
    /// Every slow-path entry to fat state goes through here (or
    /// [`fat_guard`](Self::fat_guard) where inflation is known to hold).
    /// The thin→fat transition leases a pooled record, locks it, and
    /// only then publishes the packed word — so by the time any other
    /// thread can name the record, its state is being migrated under the
    /// lock we hold.
    fn inflate(self) -> FatGuard {
        loop {
            if let Some(g) = self.fat_guard() {
                return g;
            }
            let w = self.word.load(Ordering::Acquire);
            if w & INFLATED != 0 {
                continue; // inflated under us: validate via fat_guard
            }
            // An actual thin→fat transition: span it. (The
            // already-inflated path above stays timer-free.)
            let prof = timers();
            let t_inflate = prof.start(Phase::Inflate);
            let (idx, gen, s) = MSTATES.lease();
            assert!(idx >> IDX_BITS == 0, "too many concurrently inflated monitors");
            let mut g = FatGuard { idx, gen, s };
            if self
                .word
                .compare_exchange(w, pack_fat(idx, gen), Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                // Lost to a thin CAS or a rival inflater: return the
                // unpublished lease and retry.
                MSTATES.retire(idx, g.s);
                continue;
            }
            self.shared.stats.inflations.fetch_add(1, Ordering::Relaxed);
            if w == 0 {
                debug_assert!(g.owner.is_none(), "pooled record with stale owner");
                prof.finish(Phase::Inflate, t_inflate);
                return g;
            }
            // Thin, held: migrate the holder out of the word. Its
            // sections stay on its slot's stack, where contenders find
            // them.
            g.owner = tx::slot_by_dense(thin_owner(w));
            g.recursion = thin_rec(w) as u32;
            g.holder_priority = Priority::new(thin_prio(w));
            prof.finish(Phase::Inflate, t_inflate);
            return g;
        }
    }

    /// Blocking acquisition through the inflated representation: the
    /// seed prioritized-queue protocol, unchanged in semantics.
    #[cold]
    fn acquire_slow(self, eff: Priority) -> Arc<SectionCtx> {
        let slot = tx::my_slot();
        let me = slot.dense;
        let mut queued = false;
        let mut s = self.inflate();
        loop {
            // Reentrant path (inflated while we hold it).
            if s.owned_by(me) {
                return self.reenter_fat(s, eff);
            }
            if s.available_to(me) {
                let ctx = self.new_section(eff);
                // Detection at acquisition, holder side: a higher-priority
                // waiter may have queued while this grant was in flight —
                // it must not sit out our whole section. Self-flag so the
                // first yield point rolls us (cheaply, log still empty)
                // back behind it. `peek` names exactly the waiter `pop`
                // would grant (class bitmap + FIFO-within-class); our own
                // entry, if still queued, is at `eff` and so never it.
                if matches!(self.policy, InversionPolicy::Revocation) {
                    if let Some((top, top_prio)) = s.queue.peek() {
                        if top_prio > eff {
                            self.request_revocation(&slot, &ctx, top.obs);
                        }
                    }
                }
                self.shared.stats.acquires.fetch_add(1, Ordering::Relaxed);
                self.take_fat(s, &slot, queued, eff, 1);
                return ctx;
            }
            // Contended: counted and reported once, on the way into
            // the queue.
            if !queued {
                self.shared.stats.contended.fetch_add(1, Ordering::Relaxed);
                obs::emit(self.id, EventKind::Block);
            }
            match self.policy {
                InversionPolicy::Revocation => {
                    if eff > s.holder_priority {
                        let t_signal = timers().start(Phase::SignalVictim);
                        // Asked every time round: each wake-up re-raises
                        // the holder's cached flag. The target is the
                        // owner's outermost live section here (lock
                        // order: record ≺ section stack).
                        if let Some(holder) = &s.owner {
                            if let Some(target) = holder.outermost_on(self.id) {
                                self.request_revocation(holder, &target, slot.obs);
                            }
                        }
                        timers().finish(Phase::SignalVictim, t_signal);
                    }
                }
                InversionPolicy::PriorityInheritance => {
                    if eff > s.holder_priority {
                        // Queue-level inheritance: raise the deposited
                        // priority so the holder wins queues it waits in
                        // and is not preempted by mid-priority contenders.
                        s.holder_priority = eff;
                        self.shared.stats.priority_boosts.fetch_add(1, Ordering::Relaxed);
                    }
                }
                InversionPolicy::Blocking | InversionPolicy::PriorityCeiling(_) => {}
            }
            s = self.queue_and_park(s, &slot, &mut queued, eff);
            // Woken: revoked while parked? (deadlock victim, or an
            // enclosing section flagged by another monitor's contender)
            if let Some(target) = tx::outermost_flagged() {
                s.queue.remove_where(|w| w.dense == me);
                registry::on_unblock(&slot);
                if s.grant == Some(me) {
                    // We were simultaneously granted: pass it on.
                    s.grant = None;
                    self.grant_next(&mut s);
                }
                self.maybe_deflate(s);
                resume_unwind(Box::new(RollbackSignal { target }));
            }
        }
    }

    /// Take the monitor only if free (or reentrant). No queueing, no
    /// inflation when a stranger holds it thin.
    fn try_acquire(self, priority: Priority) -> Option<Arc<SectionCtx>> {
        let eff = self.effective(priority);
        if let Some(ctx) = self.fast_enter(eff) {
            return Some(ctx);
        }
        let slot = tx::my_slot();
        let w = self.word.load(Ordering::Acquire);
        if w != 0 && w & INFLATED == 0 && thin_owner(w) != slot.dense {
            return None; // thin, held by another thread: busy
        }
        let s = self.inflate();
        if s.owned_by(slot.dense) {
            return Some(self.reenter_fat(s, eff));
        }
        if !s.available_to(slot.dense) {
            // Busy: leave the fat state to its holder's release path
            // (which deflates once the queues drain).
            return None;
        }
        let ctx = self.new_section(eff);
        self.shared.stats.acquires.fetch_add(1, Ordering::Relaxed);
        self.take_fat(s, &slot, false, eff, 1);
        Some(ctx)
    }

    /// One more recursion level for the thread that owns the fat record:
    /// a new section on top of its others.
    fn reenter_fat(self, mut s: FatGuard, eff: Priority) -> Arc<SectionCtx> {
        s.recursion += 1;
        drop(s);
        let ctx = self.new_section(eff);
        self.shared.stats.acquires.fetch_add(1, Ordering::Relaxed);
        obs::emit(self.id, EventKind::Acquire);
        ctx
    }

    /// Make the calling thread the owner of a record that is
    /// [`available_to`](MState::available_to) it — `recursion` levels
    /// deep, `priority` deposited — and leave the entry queue if it had
    /// `queued` there. The queue's other edges already point here: the
    /// grant re-pointed them.
    fn take_fat(
        self,
        mut s: FatGuard,
        slot: &Arc<tx::ThreadSlot>,
        queued: bool,
        priority: Priority,
        recursion: u32,
    ) {
        s.grant = None;
        s.owner = Some(Arc::clone(slot));
        s.recursion = recursion;
        s.holder_priority = priority;
        if queued {
            s.queue.remove_where(|w| w.dense == slot.dense);
            registry::on_unblock(slot);
        }
        drop(s);
        obs::emit(self.id, EventKind::Acquire);
    }

    /// One wait on the entry queue: join it at `priority` the first time
    /// round (`queued` is false until then), lowering the thread's
    /// `wake` in the same critical section; park until `grant_next`
    /// raises it or something else unparks the thread, and return the
    /// record re-validated — being queued or granted pins the word
    /// inflated, so `inflate()` degenerates to the validated record lock.
    fn queue_and_park(
        self,
        mut s: FatGuard,
        slot: &Arc<tx::ThreadSlot>,
        queued: &mut bool,
        priority: Priority,
    ) -> FatGuard {
        if !*queued {
            *queued = true;
            // Behind the owner, or the grantee between a release and its
            // wake-up.
            let holder = s.owner.as_ref().map(|o| o.dense).or(s.grant);
            let holder = holder.expect("a thread queues only behind an owner or grantee");
            slot.wake.store(false, Ordering::Relaxed);
            s.queue.push(Arc::clone(slot), priority);
            registry::on_block(self.id, slot, priority, holder);
        }
        drop(s);
        spin_then_park(&slot.wake);
        self.inflate()
    }

    /// Commit the section (retiring the undo log's entries if outermost
    /// — no cell is visited) and release one recursion level.
    fn commit_and_release(self, ctx: &Arc<SectionCtx>) {
        // No commit counter here: `commits` is derived at snapshot time
        // (acquires − rollbacks), keeping the uncontended exit at zero
        // shared-counter RMWs.
        let outermost = tx::commit_top_section(ctx);
        if outermost {
            // Mirror the VM's trace semantics: one Commit per retired
            // undo log, i.e. per outermost section exit.
            obs::emit(self.id, EventKind::Commit);
            if self.shared.governed.load(Ordering::Relaxed) {
                let obs_id = tx::my_slot().obs;
                self.shared.governor.lock().1.record_commit(self.id, obs_id, obs::now_ns());
            }
        }
        self.fast_release();
    }

    /// Restore shared state *before* releasing (§3.1.2), then release
    /// one recursion level.
    fn rollback_and_release(self, ctx: &Arc<SectionCtx>) {
        let t0 = obs::enabled().then(obs::now_ns);
        let n = tx::rollback_section(ctx);
        self.shared.stats.rollbacks.fetch_add(1, Ordering::Relaxed);
        self.shared.stats.entries_rolled_back.fetch_add(n as u64, Ordering::Relaxed);
        if let Some(t0) = t0 {
            let duration = obs::now_ns().saturating_sub(t0);
            obs::emit(self.id, EventKind::Rollback { entries: n as u64, duration });
        }
        if self.shared.governed.load(Ordering::Relaxed) {
            let obs_id = tx::my_slot().obs;
            let mut g = self.shared.governor.lock();
            let (cfg, gov) = &mut *g;
            gov.record_revocation(*cfg, self.id, obs_id, obs::now_ns());
        }
        tx::exit_section(ctx);
        self.fast_release();
    }

    /// Release one recursion level through the fat state; on full
    /// release hand off to the highest-priority waiter and deflate once
    /// nothing is queued, granted, or waiting.
    #[cold]
    fn release_slow(self) {
        let mut s = self.inflate();
        s.recursion = s.recursion.saturating_sub(1);
        if s.recursion > 0 {
            return;
        }
        s.owner = None;
        // Emit before handing off so the stream orders this Release ahead
        // of the grantee's Acquire (matches the VM: Release only on full
        // release).
        obs::emit(self.id, EventKind::Release);
        self.grant_next(&mut s);
        self.maybe_deflate(s);
    }

    /// Deflate back to a thin word when the fat state holds nothing a
    /// thin word cannot express, returning the leased record to the
    /// pool. Consumes the guard either way.
    ///
    /// The word CAS cannot race: while the lease is active the only
    /// transition out of the packed word is this deflation, and it runs
    /// under the record lock we hold. The CAS (rather than a blind
    /// store) is defense in depth against protocol bugs.
    fn maybe_deflate(self, g: FatGuard) {
        let t_deflate = timers().start(Phase::Deflate);
        if g.owner.is_none()
            && g.grant.is_none()
            && g.queue.is_empty()
            && g.wait_set.is_empty()
            && self
                .word
                .compare_exchange(pack_fat(g.idx, g.gen), 0, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            self.shared.stats.deflations.fetch_add(1, Ordering::Relaxed);
            let FatGuard { idx, s, .. } = g;
            MSTATES.retire(idx, s);
            // Only actual fat→thin transitions are recorded; the common
            // still-busy call drops the span.
            timers().finish(Phase::Deflate, t_deflate);
        }
    }

    /// Transfer ownership to the best waiter: highest priority, FIFO
    /// within a class (§4's prioritized monitor queues), and re-point the
    /// other waiters' waits-for edges at it. The queue pop is O(1) — one
    /// class-bitmap probe and a front pop.
    fn grant_next(self, s: &mut MState) {
        let t_requeue = timers().start(Phase::Requeue);
        let Some(w) = s.queue.pop() else {
            return;
        };
        s.grant = Some(w.dense);
        registry::on_grant(self.id, w.dense);
        // Flag before unpark: a waiter mid-spin sees the flag and skips
        // the park/unpark syscall pair entirely (the leftover unpark
        // token then makes its next park return immediately — benign,
        // every park site re-checks in a loop).
        w.wake.store(true, Ordering::Release);
        w.handle.unpark();
        timers().finish(Phase::Requeue, t_requeue);
    }

    /// §2.2: pin every section the calling thread is inside
    /// non-revocable (a volatile write, a native-call-like effect, a
    /// wait), counting and reporting the ones that flipped.
    pub(crate) fn pin_nonrevocable(self) {
        let flipped = tx::mark_all_nonrevocable();
        self.shared.stats.nonrevocable_marks.fetch_add(flipped, Ordering::Relaxed);
        if flipped > 0 {
            obs::emit(self.id, EventKind::NonRevocable);
        }
    }

    /// `Object.wait` for the current holder (called via [`Tx::wait`]).
    pub(crate) fn wait_current(self) {
        // Conservative §2.2 treatment: waiting pins every enclosing
        // section non-revocable.
        self.pin_nonrevocable();
        let slot = tx::my_slot();
        let me = slot.dense;
        let (rec, prio) = {
            // Waiting needs the wait set, which only the fat state has.
            let mut s = self.inflate();
            assert!(s.owned_by(me), "wait on an unowned monitor");
            let rec = s.recursion;
            let prio = s.holder_priority;
            s.recursion = 0;
            s.owner = None;
            slot.wake.store(false, Ordering::Relaxed);
            s.wait_set.push(Arc::clone(&slot));
            obs::emit(self.id, EventKind::Release);
            self.grant_next(&mut s);
            (rec, prio)
        };
        // Same spin-then-park handoff as the entry queue: a notify that
        // lands fast (the common signal pattern) is caught mid-spin and
        // the park/unpark syscall pair is skipped.
        while !slot.wake.load(Ordering::Acquire) {
            spin_then_park(&slot.wake);
        }
        // Re-acquire to the saved depth through the prioritized queue.
        // `inflate()`, not `fat_guard()`: the notifier may have deflated
        // the monitor after emptying the wait set.
        let mut queued = false;
        let mut s = self.inflate();
        while !s.available_to(me) {
            if !queued {
                obs::emit(self.id, EventKind::Block);
            }
            s = self.queue_and_park(s, &slot, &mut queued, prio);
        }
        self.take_fat(s, &slot, queued, prio, rec);
    }

    /// Wake one or all waiters (they re-contend for the monitor).
    pub(crate) fn notify(self, all: bool) {
        let w = self.word.load(Ordering::Acquire);
        if w & INFLATED == 0 {
            // Thin ⇒ the wait set is empty (waiting inflates, and the
            // monitor stays inflated while the wait set is non-empty):
            // nothing to wake. Still enforce the ownership contract.
            assert_eq!(thin_owner(w), tx::my_dense(), "notify on an unowned monitor");
            return;
        }
        // The caller holds the monitor, so the word stays inflated.
        let mut s = self.fat_guard().expect("holder keeps the monitor inflated");
        assert!(s.owned_by(tx::my_dense()), "notify on an unowned monitor");
        let n = if all { s.wait_set.len() } else { s.wait_set.len().min(1) };
        for w in s.wait_set.drain(..n) {
            w.wake.store(true, Ordering::Release);
            w.handle.unpark();
        }
    }
}

// ------------------------------------------------------------------ arena

/// A block of compact monitors: one `AtomicU64` lock word per monitor,
/// all sharing one stats/governor block (`MonitorShared`). This is the
/// millions-of-monitors representation — the
/// per-monitor footprint is 8 bytes plus the amortized arena header,
/// because fat state is pooled in the global side table and leased only
/// while a monitor is actually contended.
///
/// Every monitor in the arena runs the identical protocol to a
/// standalone [`RevocableMonitor`] (same policy, same revocation
/// machinery); stats are aggregated arena-wide and the governor keys
/// its per-monitor history by id.
///
/// ```
/// use revmon_locks::MonitorArena;
/// use revmon_core::Priority;
///
/// let arena = MonitorArena::new(1024);
/// let n = arena.get(17).enter(Priority::NORM, |_tx| 42);
/// assert_eq!(n, 42);
/// ```
#[derive(Debug)]
pub struct MonitorArena {
    base_id: u64,
    policy: InversionPolicy,
    words: Box<[AtomicU64]>,
    shared: MonitorShared,
}

impl MonitorArena {
    /// An arena of `len` revocation-policy monitors.
    pub fn new(len: usize) -> Self {
        Self::with_policy(InversionPolicy::Revocation, len)
    }

    /// An arena of `len` monitors under an explicit policy.
    pub fn with_policy(policy: InversionPolicy, len: usize) -> Self {
        let base_id = NEXT_MONITOR_ID.fetch_add(len as u64, Ordering::Relaxed);
        MonitorArena {
            base_id,
            policy,
            words: (0..len).map(|_| AtomicU64::new(0)).collect(),
            shared: MonitorShared::new(),
        }
    }

    /// Number of monitors in the arena.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the arena holds no monitors.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Monitor `i` (panics when out of bounds). The returned handle is
    /// a borrow — copies are cheap and all name the same monitor.
    pub fn get(&self, i: usize) -> ArenaMonitor<'_> {
        ArenaMonitor(MonRef {
            id: self.base_id + i as u64,
            policy: self.policy,
            word: &self.words[i],
            shared: &self.shared,
        })
    }

    /// The policy every monitor in this arena runs.
    pub fn policy(&self) -> InversionPolicy {
        self.policy
    }

    /// Aggregated counter snapshot across all monitors in the arena.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.reconciled_snapshot()
    }

    /// Configure the revocation governor for the whole arena (history is
    /// still tracked per monitor id).
    pub fn set_governor(&self, cfg: GovernorConfig) {
        self.shared.set_governor(cfg);
    }
}

/// One monitor of a [`MonitorArena`]: a `Copy` handle running the full
/// revocable-monitor protocol against its 8-byte arena slot.
#[derive(Clone, Copy)]
pub struct ArenaMonitor<'a>(MonRef<'a>);

impl ArenaMonitor<'_> {
    /// See [`RevocableMonitor::enter`].
    pub fn enter<R>(&self, priority: Priority, f: impl FnMut(&mut Tx<'_>) -> R) -> R {
        self.0.enter(priority, f)
    }

    /// Like [`enter`](Self::enter) at [`Priority::NORM`].
    pub fn enter_norm<R>(&self, f: impl FnMut(&mut Tx<'_>) -> R) -> R {
        self.enter(Priority::NORM, f)
    }

    /// See [`RevocableMonitor::try_enter`].
    pub fn try_enter<R>(&self, priority: Priority, f: impl FnMut(&mut Tx<'_>) -> R) -> Option<R> {
        self.0.try_enter(priority, f)
    }

    /// The id this monitor carries in trace events.
    pub fn obs_id(&self) -> u64 {
        self.0.id
    }

    /// Name this monitor for trace analysis (see
    /// [`RevocableMonitor::set_name`]).
    pub fn set_name(&self, name: &str) {
        obs::name_monitor(self.0.id, name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::TCell;

    #[test]
    fn uncontended_enter_commits() {
        let m = RevocableMonitor::new();
        let c = TCell::new(0i64);
        let out = m.enter(Priority::NORM, |tx| {
            tx.write(&c, 5);
            tx.read(&c)
        });
        assert_eq!(out, 5);
        assert_eq!(c.read_unsynchronized(), 5);
        let st = m.stats();
        assert_eq!(st.acquires, 1);
        assert_eq!(st.thin_acquires, 1, "uncontended enter must stay thin");
        assert_eq!(st.inflations, 0);
        assert_eq!(st.commits, 1);
        assert_eq!(st.rollbacks, 0);
    }

    #[test]
    fn reentrant_enter_works() {
        let m = RevocableMonitor::new();
        let c = TCell::new(0i64);
        m.enter(Priority::NORM, |tx| {
            tx.write(&c, 1);
            m.enter(Priority::NORM, |tx2| {
                tx2.update(&c, |v| v + 10);
            });
            tx.update(&c, |v| v + 100);
        });
        assert_eq!(c.read_unsynchronized(), 111);
        assert_eq!(m.stats().acquires, 2);
        assert_eq!(m.stats().thin_acquires, 2, "reentrant enter must stay thin");
    }

    #[test]
    fn user_panic_keeps_updates_and_releases() {
        let m = RevocableMonitor::new();
        let c = TCell::new(0i64);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            m.enter(Priority::NORM, |tx| {
                tx.write(&c, 7);
                panic!("user bug");
            })
        }));
        assert!(r.is_err());
        assert_eq!(c.read_unsynchronized(), 7, "Java semantics: updates kept");
        // monitor is free again
        m.enter(Priority::NORM, |tx| tx.write(&c, 8));
        assert_eq!(c.read_unsynchronized(), 8);
    }

    #[test]
    fn word_packing_round_trips() {
        let w = pack_thin(7, 3, Priority::HIGH.level());
        assert_eq!(thin_owner(w), 7);
        assert_eq!(thin_rec(w), 3);
        assert_eq!(thin_prio(w), Priority::HIGH.level());
        assert_eq!(w & INFLATED, 0);
    }

    #[test]
    fn fat_word_packing_round_trips() {
        let w = pack_fat(0xABCDEF, 0x12_3456_7890);
        assert_ne!(w & INFLATED, 0);
        assert_eq!(fat_idx(w), 0xABCDEF);
        assert_eq!(fat_gen(w), 0x12_3456_7890 & crate::sidetable::GEN_MASK);
    }

    #[test]
    fn arena_monitors_are_independent() {
        let arena = MonitorArena::new(64);
        let a = TCell::new(0i64);
        let b = TCell::new(0i64);
        arena.get(3).enter(Priority::NORM, |tx| tx.write(&a, 1));
        arena.get(60).enter(Priority::HIGH, |tx| {
            // Nested entry of a *different* arena monitor.
            arena.get(3).enter(Priority::NORM, |tx2| tx2.write(&a, 2));
            tx.write(&b, 9);
        });
        assert_eq!(a.read_unsynchronized(), 2);
        assert_eq!(b.read_unsynchronized(), 9);
        let st = arena.stats();
        assert_eq!(st.acquires, 3, "arena-wide aggregation");
        assert_eq!(st.inflations, 0, "uncontended arena entries stay thin");
    }
}
