//! The PreemptDB worker (paper Figure 5/6).
//!
//! A worker owns one context per priority level:
//!
//! * **level 0** — the *regular scheduling path*: a loop that drains the
//!   worker's queues in policy order and runs each transaction to
//!   completion;
//! * **levels ≥ 1** — *preemptive contexts*: each runs a drain loop over
//!   its priority's queue and switches back to the context it preempted.
//!
//! Both loops are a few lines over one step (`WorkerCtx::step_at`): pick
//! the next request, run it under the panic firewall, book the outcome
//! once, and return why control came back ([`Step`]). Each context keeps
//! what it is running in a slot of its own ([`Running`]), so a nested
//! request that ends leaves the priority of the transaction it preempted
//! in place.
//!
//! A passive switch into a preemptive context is triggered by the
//! user-interrupt handler (`WorkerCtx::on_uintr`, the paper's
//! Algorithm 1 + `uintr_handler_helper`); the same switch is reached
//! voluntarily under cooperative policies at yield checks. Both use the
//! identical `switch_to` machinery, and both respect starvation
//! prevention and the "do not interrupt an equal-or-higher-priority
//! transaction" rule.
//!
//! The worker integrates with whichever runtime hosts it through the
//! preemption-point hook: the simulator's per-core hook (which accounts
//! virtual time first), or on a real thread the worker itself; either
//! polls the worker's user-interrupt receiver and performs cooperative
//! yield accounting. A preemptive worker on a real thread takes a
//! one-load fast path instead (`WorkerCtx::on_thread_point`).

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use preempt_context::nonpreempt::NonPreemptGuard;
use preempt_context::runtime::{self, PreemptHook};
use preempt_context::switch::{switch_to, Context};
use preempt_context::tcb::{self, Tcb};
use preempt_metrics::Counter;
use preempt_uintr::{UintrReceiver, Upid};

use crate::clock::{charge, now_cycles};
use crate::policy::Policy;
use crate::request::{Request, RequestQueue, WorkOutcome};
use crate::starvation::StarvationState;

/// Cycles charged for dequeuing a request and setting it up.
const DISPATCH_POP_COST: u64 = 150;
/// Virtual cost of one userspace context switch (save/restore registers,
/// CLS swap; the paper measures the mechanism at sub-microsecond scale).
const SWITCH_COST: u64 = 800;
/// Virtual cost of one cooperative yield check (queue-length peek).
const COOP_CHECK_COST: u64 = 40;
/// Virtual cost of the per-operation user-interrupt poll (one relaxed
/// load + branch) — the distributed overhead Figure 8 quantifies, and
/// what each poll books to `handler` on either runtime. `run_all
/// uintr_latency` prints it beside a pool worker's measured poll.
pub const UINTR_POLL_COST: u64 = 3;
/// Yield-check cadence while the scheduler has degraded this worker from
/// preemptive to cooperative notification (delivery failures): frequent
/// enough to bound high-priority latency, rare enough to stay cheap.
pub const DEGRADED_YIELD_INTERVAL: u64 = 64;
/// Base of the exponential backoff between worker-level re-executions of
/// an uncommitted request, in cycles (≈ 1 µs at the nominal 2.4 GHz).
const RETRY_BACKOFF_BASE: u64 = 2_400;
/// Cap on the backoff shift (base << 6 ≈ 64 µs).
const RETRY_BACKOFF_MAX_SHIFT: u32 = 6;

/// How the scheduler wakes an idle worker.
#[derive(Clone, Debug)]
pub enum WakeTarget {
    /// A simulated core.
    Sim(preempt_sim::CoreId),
    /// A real OS thread (unparked).
    Thread(std::thread::Thread),
}

impl WakeTarget {
    pub fn wake(&self) {
        match self {
            WakeTarget::Sim(id) => preempt_sim::api::wake(*id),
            WakeTarget::Thread(t) => t.unpark(),
        }
    }
}

/// Best-effort text of a caught panic payload.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Why a worker step returned control to its loop (Hadron's
/// `UserspaceReturn`, SNIPPETS.md #1).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    Committed,
    /// The retry budget ran out without a commit.
    Exhausted,
    /// The deadline passed, before the first attempt or between two.
    TimedOut,
    /// The firewall contained a panic.
    Panicked,
    /// Every queue the step may take from is empty.
    Idle,
    Stopped,
    /// The low transaction this context preempted is starving: hand it
    /// back before the queue is drained (paper §5, decision site 2).
    StarvationBreak,
}

/// What one context is running: its transaction's priority (`None`
/// between transactions) and whether that transaction is attributed.
#[derive(Clone, Copy, Default)]
struct Running {
    priority: Option<u8>,
    attributed: bool,
}

/// Zero-sized and 64-byte aligned: in a `#[repr(C)]` struct, the field
/// declared after one starts a new cache line.
#[repr(align(64))]
struct LineBreak;

/// The scheduler-visible half of a worker.
///
/// Laid out by *writer*, one group of cache lines each: what a submitter
/// reads per request (`queues`, the flags) is not invalidated by what the
/// worker writes per request (ack, starvation state). What a sender
/// writes per interrupt, the delivery epoch included, is on the UPID's
/// post line. Everything the worker *counts* lives in its metrics shard,
/// an allocation of its own.
#[repr(C)]
pub struct WorkerShared {
    // ---- read-mostly: set at start-up or shutdown ----
    pub id: usize,
    /// `queues[level]`: level 0 = low priority; the paper's default has
    /// `queues[0]` (capacity 1) and `queues[1]` (capacity 4).
    pub queues: Vec<Arc<RequestQueue>>,
    /// Published by the worker at start-up; the plane's UITT entry
    /// target.
    pub upid: OnceLock<Arc<Upid>>,
    /// Trace ring for this worker, registered by the runner when the
    /// driver config carries a [`preempt_trace::TraceSession`].
    pub trace: OnceLock<Arc<preempt_trace::TraceRing>>,
    /// Set by the runner (sim) or by the worker itself (threads).
    pub wake_target: OnceLock<WakeTarget>,
    /// Where this worker counts: commits, aborts, latencies, level
    /// switches, steals, busy cycles — the only copy. `sched::run`
    /// attaches it to the run's registry; an embedded pool reads it
    /// directly (`MetricsSnapshot::of_shards`).
    pub metrics_shard: Arc<preempt_metrics::Shard>,
    /// This worker's SLO-violation flight recorder, set by the runner
    /// when the driver config carries a [`preempt_prov::ProvConfig`].
    /// Unset means exemplar capture is off.
    pub flight: OnceLock<Arc<preempt_prov::FlightRecorder>>,
    /// Same-shard siblings this worker may steal level-0 work from,
    /// pre-rotated to start just after this worker's id (fixed scan
    /// order keeps sharded runs deterministic under the simulator). Set
    /// by the runner **only** when `shards > 1`; unset means stealing is
    /// off, which keeps single-shard trajectories byte-identical to the
    /// pre-sharding plane. `Weak` breaks the sibling `Arc` cycle.
    pub steal_peers: OnceLock<Vec<std::sync::Weak<WorkerShared>>>,
    pub stopped: AtomicBool,
    /// Set by the scheduler when interrupt delivery to this worker is
    /// failing: the worker adds cooperative yield checks at level 0 so
    /// high-priority work still gets in promptly.
    pub degraded: AtomicBool,

    // ---- worker-written, per request ----
    _worker_lines: LineBreak,
    /// Last epoch whose interrupt reached this worker's handler: the
    /// handler copies the UPID's delivery epoch here on every delivery
    /// (even declined ones). `ack <` [`delivery_epoch`] past the delivery
    /// latency means the interrupt was lost and the watchdog should
    /// re-send.
    ///
    /// [`delivery_epoch`]: WorkerShared::delivery_epoch
    pub uintr_ack: AtomicU64,
    pub starvation: StarvationState,
    /// Messages of transaction panics contained by the firewall (their
    /// count is `Counter::WorkerPanics`).
    pub panics: Mutex<Vec<String>>,
}

impl WorkerShared {
    /// Creates the shared half with per-level queue capacities
    /// (`caps[0]` = low-priority queue, `caps[1..]` = higher levels).
    pub fn new(id: usize, caps: &[usize]) -> Arc<WorkerShared> {
        assert!(caps.len() >= 2, "need at least two priority levels");
        Arc::new(WorkerShared {
            id,
            queues: caps
                .iter()
                .map(|&c| Arc::new(RequestQueue::new(c)))
                .collect(),
            upid: OnceLock::new(),
            trace: OnceLock::new(),
            wake_target: OnceLock::new(),
            metrics_shard: preempt_metrics::Shard::single_writer("worker", id as u32),
            flight: OnceLock::new(),
            steal_peers: OnceLock::new(),
            stopped: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            _worker_lines: LineBreak,
            uintr_ack: AtomicU64::new(0),
            starvation: StarvationState::new(),
            panics: Mutex::new(Vec::new()),
        })
    }

    pub fn levels(&self) -> u8 {
        self.queues.len() as u8
    }

    /// The worker's UPID, once it has started.
    pub fn upid(&self) -> Option<Arc<Upid>> {
        self.upid.get().cloned()
    }

    /// Publishes the worker's UPID; a worker publishes one, once.
    pub fn set_upid(&self, upid: Arc<Upid>) {
        assert!(self.upid.set(upid).is_ok(), "a worker publishes one descriptor");
    }

    /// The delivery epoch: how many interrupts the scheduler has sent
    /// this worker, counted on its UPID (0 before it has one).
    pub fn delivery_epoch(&self) -> u64 {
        self.upid.get().map_or(0, |upid| upid.epoch())
    }

    pub fn wake_target(&self) -> Option<WakeTarget> {
        self.wake_target.get().cloned()
    }

    /// Registers how to wake the worker; a worker has one.
    pub fn set_wake_target(&self, target: WakeTarget) {
        assert!(self.wake_target.set(target).is_ok(), "a worker has one wake target");
    }

    /// Wakes the worker if a wake target is registered.
    pub fn wake(&self) {
        if let Some(w) = self.wake_target.get() {
            w.wake();
        }
    }

    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        self.wake();
    }

    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }
}

/// Worker-thread-local state. Lives in a `Box` on the worker's stack
/// frame; preemptive contexts and the uintr handler reach it through a
/// stable raw pointer (everything stays on this worker's thread).
struct WorkerCtx {
    shared: Arc<WorkerShared>,
    policy: Policy,
    receiver: UintrReceiver,
    /// Sub-contexts for levels 1.. (index `level - 1`).
    contexts: Vec<Context>,
    /// TCBs per level; `[0]` is the worker's main context.
    level_tcbs: Vec<Cell<*const Tcb>>,
    current_level: Cell<u8>,
    /// What each level's context is running, by level.
    slots: Vec<Cell<Running>>,
    /// Stack of levels to return to after a preemption/yield.
    return_levels: Cell<[u8; 16]>,
    return_depth: Cell<usize>,
    /// Cooperative yield accounting.
    ops_since_check: Cell<u64>,
    hints_since_check: Cell<u64>,
    /// Highest level whose interrupt the handler declined while a
    /// transaction of equal or higher priority ran on the regular path
    /// (0: none). The regular path takes from that level first until
    /// its queue is empty.
    declined: Cell<u8>,
    /// Worker-local transaction sequence number for trace records.
    txn_seq: Cell<u64>,
    /// `handler` cycles (polls, handler decisions) the running context
    /// owes its accumulator: a plain cell, so neither touches
    /// context-local storage. See `flush_handler_owed`.
    handler_owed: Cell<u64>,
}

/// The worker whose transaction is executing on the current *context*
/// (context-local, not thread-local: simulated cores share one OS
/// thread). Used by workload-level yield hints.
static CURRENT_WORKER: preempt_context::cls::ClsCell<usize> =
    preempt_context::cls::ClsCell::new(|| 0);

/// Workload-annotated yield point (the paper's "Cooperative
/// (Handcrafted)" variant inserts these outside Q2's nested query block).
/// A no-op except under [`Policy::CooperativeHandcrafted`].
pub fn yield_hint() {
    let wc = CURRENT_WORKER.get();
    if wc != 0 {
        // SAFETY: set for the lifetime of worker_main on this context.
        unsafe { (*(wc as *const WorkerCtx)).on_yield_hint() };
    }
}

impl WorkerCtx {
    // ---- switching machinery ----

    fn push_return(&self, level: u8) {
        let mut arr = self.return_levels.get();
        let d = self.return_depth.get();
        // preempt-lint: allow(handler-panic) — overflowing the fixed
        // return-level stack means more nested preemptions than levels
        // exist, a scheduler invariant violation; aborting beats
        // silently dropping a return level and resuming the wrong txn.
        assert!(d < arr.len(), "preemption nesting too deep");
        arr[d] = level;
        self.return_levels.set(arr);
        self.return_depth.set(d + 1);
    }

    fn pop_return(&self) -> u8 {
        let d = self.return_depth.get();
        assert!(d > 0, "return-level stack underflow");
        self.return_depth.set(d - 1);
        self.return_levels.get()[d - 1]
    }

    /// What the current context is running.
    #[inline]
    fn running(&self) -> Running {
        self.slots[self.current_level.get() as usize].get()
    }

    /// Switches from the current level into `level`'s context (passive
    /// preemption or cooperative yield — the paper's Figure 6 flow).
    fn enter_level(&self, level: u8) {
        let from = self.current_level.get();
        debug_assert!(level > from);
        // This context's debt waits out the switch, off the hand-off's path.
        let owed = self.handler_owed.replace(0);
        self.push_return(from);
        self.current_level.set(level);
        preempt_trace::emit(preempt_trace::TraceEvent::StackSwitch { from, to: level });
        self.shared.metrics_shard.bump(Counter::SchedEnterLevel);
        // Provenance: everything from here until the switch back — the
        // switch cost itself plus whatever the higher level ran — is
        // time this context's transaction spent preempted-out.
        let away_start = self.slots[from as usize].get().attributed.then(now_cycles);
        charge(SWITCH_COST);
        // SAFETY: level TCBs point at contexts owned by this WorkerCtx
        // (or the worker's main context), alive for the worker's run.
        switch_to(unsafe { &*self.level_tcbs[level as usize].get() });
        // Resumed: the drain loop restored current_level on its way back.
        self.handler_owed.set(self.handler_owed.get() + owed);
        if let Some(away_start) = away_start {
            preempt_prov::charge(
                preempt_prov::Phase::Preempted,
                now_cycles().saturating_sub(away_start),
            );
        }
    }

    /// Switches from a drain loop back to the preempted context.
    fn leave_level(&self) {
        // Between requests: the drain context's next request starts its
        // window afresh, so what it owes now is nobody's.
        self.handler_owed.set(0);
        let from = self.current_level.get();
        let back = self.pop_return();
        self.current_level.set(back);
        preempt_trace::emit(preempt_trace::TraceEvent::StackSwitch { from, to: back });
        self.shared.metrics_shard.bump(Counter::SchedLeaveLevel);
        charge(SWITCH_COST);
        // SAFETY: as in enter_level.
        switch_to(unsafe { &*self.level_tcbs[back as usize].get() });
        // Resumed: someone preempted back into this level; enter_level
        // already set current_level for us.
    }

    /// The user-interrupt handler body (Algorithm 1's helper): decide
    /// whether to take the preemption, then perform the passive switch.
    fn on_uintr(&self, vector: u8) {
        // Provenance: the decision overhead lands on the interrupted
        // transaction as handler time (zero under the simulator, which
        // charges no virtual cycles here; real on threads), owed like a
        // poll's. The switch and the preempted-away window are charged by
        // `enter_level`.
        let timed = self.running().attributed;
        let handler_start = if timed { now_cycles() } else { 0 };
        let take = self.uintr_decide(vector);
        if timed {
            let spent = now_cycles().saturating_sub(handler_start);
            self.handler_owed.set(self.handler_owed.get() + spent);
        }
        if let Some(level) = take {
            self.shared.metrics_shard.bump(Counter::Preemptions);
            self.enter_level(level);
        }
    }

    /// The handler's decision half: acknowledge, then decide whether the
    /// interrupt results in a passive switch (and to which level).
    fn uintr_decide(&self, vector: u8) -> Option<u8> {
        // Acknowledge delivery before any decline path: the watchdog only
        // re-sends when the interrupt never *reached* the handler, not
        // when the handler chose not to preempt. The epoch's Acquire load
        // pairs with the scheduler's bump before posting the UPID bit, and
        // reads the post line the poll's swap has just fetched.
        let epoch = self.receiver.epoch();
        self.shared.uintr_ack.store(epoch, Ordering::Release);
        let level = vector;
        if level as usize >= self.level_tcbs.len() {
            return None; // unknown (spurious) vector: acknowledged, ignored
        }
        if self.shared.is_stopped() {
            return None;
        }
        // Do not interrupt an equal-or-higher-priority transaction
        // (paper §4.1: in-progress high-priority transactions are not
        // further interrupted in the default two-level configuration).
        let cur = self.running().priority.unwrap_or(0);
        if level <= cur.max(self.current_level.get()) {
            if self.current_level.get() == 0 {
                self.declined.set(self.declined.get().max(level));
            }
            return None;
        }
        // Taken, even when the queue turns out empty (Figure 8's overhead
        // experiment: switch to the preemptive context and straight back
        // is exactly what the paper measures as pure overhead). The drain
        // loop's `pop` is a context switch away: start its misses now.
        self.shared.queues[level as usize].prefetch_pop();
        Some(level)
    }

    // ---- preemption points ----

    /// Called at every preemption point through the simulator's core hook,
    /// and on real threads under the policies that send no interrupts.
    fn on_point(&self) {
        // Fault injection: a stalled worker (page fault, scheduling blip,
        // SMI) modeled as extra cycles at a preemption point.
        if let Some(stall) = preempt_faults::on_preempt_point() {
            charge(stall);
        }
        // Deliver pending user interrupts (no-op fast path). Only the
        // preemptive policy arms the machinery; the baselines run without
        // it, exactly like the paper's Figure 8 "without uintr" side.
        if self.policy.sends_uintr() {
            charge(UINTR_POLL_COST);
            preempt_prov::charge(preempt_prov::Phase::Handler, UINTR_POLL_COST);
            self.deliver_uintr();
        } else if let Policy::Cooperative { yield_interval } = self.policy {
            self.yield_check(&self.ops_since_check, yield_interval);
        }
    }

    /// [`on_point`](Self::on_point) on a real thread under a preemptive
    /// policy, where the simulator, fault plans and cooperative yields are
    /// absent: unless something is pending or degraded, one look at the
    /// pending word and the degraded flag, with the poll's charge owed.
    #[inline]
    fn on_thread_point(&self) {
        debug_assert!(
            !preempt_faults::enabled() && !preempt_sim::api::active(),
            "fault plans and virtual time exist only under the simulator"
        );
        self.handler_owed.set(self.handler_owed.get() + UINTR_POLL_COST);
        if self.receiver.has_pending() || self.shared.degraded.load(Ordering::Acquire) {
            self.on_rare_point();
        }
    }

    /// The rest of [`on_point`](Self::on_point) that can apply on a real
    /// thread; out of line, so the fast path saves no registers.
    #[cold]
    #[inline(never)]
    fn on_rare_point(&self) {
        self.deliver_uintr();
    }

    /// Polls the receiver (which may run the handler and switch away),
    /// then, while the scheduler has degraded this worker to plain wakes
    /// (interrupt delivery failing), makes a cooperative yield check.
    /// Acquire pairs with the scheduler's Release store when it flips
    /// degraded mode, so the worker also observes the queue state that
    /// justified the transition.
    fn deliver_uintr(&self) {
        self.receiver.poll();
        if self.shared.degraded.load(Ordering::Acquire) {
            self.yield_check(&self.ops_since_check, DEGRADED_YIELD_INTERVAL);
        }
    }

    /// Called at workload-annotated yield hints.
    fn on_yield_hint(&self) {
        if let Policy::CooperativeHandcrafted { block_interval } = self.policy {
            self.yield_check(&self.hints_since_check, block_interval);
        }
    }

    /// The one cooperative yield check (Cooperative, Handcrafted, and a
    /// degraded preemptive worker): only a low transaction on the regular
    /// path yields. It counts on `count`; every `interval`-th call pays
    /// for a queue peek — at interval 1 the per-record overhead the paper
    /// shows hurting Q2 (Figure 11, left of the sweep) — and switches to
    /// the highest level with queued work.
    fn yield_check(&self, count: &Cell<u64>, interval: u64) {
        if self.current_level.get() != 0 || self.running().priority != Some(0) {
            return;
        }
        let n = count.get() + 1;
        if n < interval {
            count.set(n);
            return;
        }
        count.set(0);
        charge(COOP_CHECK_COST);
        preempt_prov::charge(preempt_prov::Phase::Handler, COOP_CHECK_COST);
        let levels = self.level_tcbs.len() as u8;
        let queued = |l: &u8| !self.shared.queues[*l as usize].is_empty();
        if let Some(level) = (1..levels).rev().find(queued) {
            self.shared.metrics_shard.bump(Counter::CoopYields);
            self.enter_level(level);
        }
    }

    /// Whether anything can read a transaction's attribution: a live
    /// metrics registry (the phase histograms), a trace session (the
    /// phase events) or this worker's flight recorder. `sched::run`
    /// always has a registry; a pool has one only if it is given one.
    fn attribution_observed(&self) -> bool {
        preempt_metrics::metrics_active()
            || preempt_trace::tracing_active()
            || self.shared.flight.get().is_some()
    }

    /// Books what the running context owes onto its accumulator, before
    /// `preempt_prov::take`.
    fn flush_handler_owed(&self) {
        let owed = self.handler_owed.replace(0);
        if owed != 0 {
            preempt_prov::charge(preempt_prov::Phase::Handler, owed);
        }
    }

    // ---- the step ----

    /// One step of `level`'s context: take the next request, run it, and
    /// say why control came back.
    ///
    /// Level 0 is the regular scheduling path (paper Figure 5 ①/②). Queue
    /// preference is policy-dependent (§4.1: "the worker thread may also
    /// be configured to prefer taking transactions from the high-priority
    /// queue based on the scheduling policy"):
    /// * Wait/Cooperative exhaust the high-priority queue first (§6.1);
    /// * PreemptDB serves the low-priority stream here — high-priority
    ///   transactions arrive through preemption, and gating them behind
    ///   the preemptive path is what lets starvation prevention actually
    ///   bound their CPU share (Figure 12's Lmax=0 restores full Q2
    ///   throughput). With an empty low queue the high queue still runs
    ///   here (path ②), and a level whose interrupt a transaction here
    ///   declined comes first until its queue is empty.
    ///
    /// With every local queue empty, level 0 steals. A preemptive context
    /// (③) takes only from its own level's queue, and under a preemptive
    /// policy stops early when the transaction it preempted is starving.
    fn step_at(&self, level: u8) -> Step {
        if self.shared.is_stopped() {
            return Step::Stopped;
        }
        let queues = &self.shared.queues;
        let next = if level > 0 {
            queues[level as usize].pop().map(|req| (req, level))
        } else {
            let pop = |l: u8| Some((queues[l as usize].pop()?, l));
            let levels = self.level_tcbs.len() as u8;
            let own = if self.policy.is_preemptive() {
                // A declined delivery is spent: nothing else calls that
                // level's queue in before the next low transaction ends.
                let declined = self.declined.get();
                let first = (declined > 0).then(|| pop(declined)).flatten();
                first.or_else(|| {
                    self.declined.set(0);
                    (0..levels).find_map(pop)
                })
            } else {
                (0..levels).rev().find_map(pop)
            };
            own.or_else(|| Some((self.try_steal()?, 0)))
        };
        let Some((req, from)) = next else {
            return Step::Idle;
        };
        runtime::preempt_point(DISPATCH_POP_COST);
        if from > level {
            self.shared.metrics_shard.bump(Counter::HighOnRegular);
        }
        let step = self.run(req, level);
        if level > 0
            && self.policy.is_preemptive()
            && self.shared.starvation.starving_live(now_cycles())
        {
            preempt_trace::emit(preempt_trace::TraceEvent::StarvationBoost { site: 2 });
            self.shared.metrics_shard.bump(Counter::StarvationBreaks);
            return Step::StarvationBreak;
        }
        step
    }

    /// Runs one request at `level` and books its outcome, once.
    ///
    /// Robustness semantics:
    /// * a request whose deadline already passed is abandoned without
    ///   executing (deadline abort — it would be wasted work);
    /// * an uncommitted outcome is re-executed up to `max_retries` times
    ///   with exponential backoff, re-checking the deadline between
    ///   attempts;
    /// * exhausting the budget records a failure, not a completion;
    /// * a panicking transaction is contained by the firewall: its unwind
    ///   releases latches and MVCC state via drop guards, the panic
    ///   message is captured, and the worker keeps serving requests.
    fn run(&self, mut req: Request, level: u8) -> Step {
        let started = now_cycles();
        let (kind, priority, created) = (req.kind, req.priority, req.created_at);
        let txn = self.txn_seq.get();
        self.txn_seq.set(txn.wrapping_add(1));
        self.handler_owed.set(0);
        // Wire-assigned id, or synthesized (worker+1 in the high bits so
        // id 0 stays "unassigned") — simulator workloads attribute too.
        let req_id = if req.req_id != 0 {
            req.req_id
        } else {
            ((self.shared.id as u64 + 1) << 40) | txn
        };
        preempt_trace::emit(preempt_trace::TraceEvent::TxnBegin { txn, priority });
        // No preemption point runs between TxnBegin and ReqId, so the
        // reconstructor can bind the id to the just-opened span.
        preempt_trace::emit(preempt_trace::TraceEvent::ReqId { id: req_id });
        let shard = &self.shared.metrics_shard;
        if req.deadline.is_some_and(|dl| started >= dl) {
            preempt_trace::emit(preempt_trace::TraceEvent::TxnAbort { txn });
            shard.txn_deadline_abort(kind);
            return Step::TimedOut;
        }
        // Provenance window opens, if anything will read it: drop any
        // stale between-transaction charges (idle-path polls, owed or
        // booked) so the accumulator holds exactly this transaction's
        // phases. Decided once, so the transaction is attributed whole or
        // not at all.
        let attributed = self.attribution_observed();
        if attributed {
            preempt_prov::reset();
        }
        let low_on_regular = level == 0 && priority == 0;
        if low_on_regular {
            self.shared.starvation.low_priority_started(started);
        }
        let slot = &self.slots[level as usize];
        slot.set(Running {
            priority: Some(priority),
            attributed,
        });
        // Panic firewall (failure containment): the whole execute/retry
        // loop runs under `catch_unwind`, so a panicking transaction
        // unwinds back to here — releasing its latches and MVCC slot
        // through the usual drop guards on the way — and the worker keeps
        // serving.
        let mut attempts = 0;
        let end = catch_unwind(AssertUnwindSafe(|| execute(&mut req, &mut attempts)));
        debug_assert_eq!(
            NonPreemptGuard::depth(),
            0,
            "a {kind} transaction left a non-preemptible region open"
        );
        slot.set(Running::default());
        let finished = now_cycles();
        if low_on_regular {
            self.shared.starvation.low_priority_finished();
        }
        let step = match end {
            Ok(Ok(outcome)) => {
                if attributed {
                    self.attribute(txn, req_id, &req, started, finished);
                }
                preempt_trace::emit(preempt_trace::TraceEvent::TxnCommit { txn });
                let retries = outcome.retries + u64::from(attempts);
                let latency = finished.saturating_sub(created);
                let sched_latency = started.saturating_sub(created);
                shard.txn_completed(kind, priority, latency, sched_latency, retries);
                Step::Committed
            }
            Ok(Err(step)) => {
                preempt_trace::emit(preempt_trace::TraceEvent::TxnAbort { txn });
                if step == Step::TimedOut {
                    shard.txn_deadline_abort(kind);
                } else {
                    shard.txn_failed(kind, u64::from(attempts));
                }
                step
            }
            Err(payload) => {
                preempt_trace::emit(preempt_trace::TraceEvent::TxnPanic { txn });
                shard.bump(Counter::WorkerPanics);
                let msg = payload_message(&*payload);
                self.shared.panics.lock().push(format!("{kind}: {msg}"));
                Step::Panicked
            }
        };
        let dur = finished.saturating_sub(started);
        shard.bump_by(Counter::BusyCycles, dur);
        if level > 0 {
            self.shared.starvation.add_high_cycles(dur);
        }
        step
    }

    /// An attributed commit's full phase vector (explicit charges from the
    /// accumulator, admission/queue from timestamps, run as the residual —
    /// so it sums to the measured latency exactly): its events, emitted
    /// before `TxnCommit` so the reconstructor folds them into the span
    /// the commit closes, its histograms and, on an end-to-end SLO breach,
    /// a flight-recorder exemplar.
    fn attribute(&self, txn: u64, req_id: u64, req: &Request, started: u64, finished: u64) {
        let admission = if req.ingress == 0 { 0 } else { req.created_at.saturating_sub(req.ingress) };
        let queued = started.saturating_sub(req.created_at);
        let window = finished.saturating_sub(started);
        self.flush_handler_owed();
        let phases = preempt_prov::phase_vector(admission, queued, window, &preempt_prov::take());
        preempt_prov::emit_phases(&phases);
        preempt_prov::record_phase_hists(&phases, req.priority > 0);
        let Some(fr) = self.shared.flight.get() else {
            return;
        };
        let class = usize::from(req.priority > 0);
        let (slo, e2e) = (fr.slo(class), phases.iter().sum::<u64>());
        if e2e > slo {
            fr.capture(preempt_prov::Exemplar {
                req_id,
                txn,
                worker: self.shared.id as u16,
                class: class as u8,
                latency: e2e,
                slo,
                started,
                finished,
                phases,
            });
        }
    }

    /// Work stealing (sharded plane only): with every local queue empty,
    /// scan same-shard siblings in their pre-rotated fixed order and
    /// take the newest entry from the first non-empty level-0 queue tail
    /// — the victim keeps its oldest, most latency-critical work. The
    /// deque itself holds a
    /// [`NonPreemptGuard`](preempt_context::nonpreempt::NonPreemptGuard)
    /// across every claim-to-handoff window — steal here, but equally
    /// the owner's `pop` and the plane's dispatch `push` — because a
    /// user interrupt landing between the word-CAS claim and the slot
    /// handoff would strand the claimed slot until this context resumed,
    /// stalling every peer spinning on that slot for the whole
    /// high-priority burst. The scan across victims stays preemptible:
    /// only the per-queue claim window needs the guard.
    fn try_steal(&self) -> Option<Request> {
        let (req, victim) = self.shared.steal_peers.get()?.iter().find_map(|peer| {
            let victim = peer.upgrade().filter(|v| !v.is_stopped())?;
            Some((victim.queues[0].steal()?, victim.id as u16))
        })?;
        preempt_trace::emit(preempt_trace::TraceEvent::Steal {
            victim,
            thief: self.shared.id as u16,
            level: 0,
        });
        self.shared.metrics_shard.bump(Counter::Steals);
        Some(req)
    }

    /// The regular scheduling path, on the worker's main context.
    fn regular_loop(&self) {
        loop {
            match self.step_at(0) {
                Step::Stopped => return,
                Step::Idle => idle_wait(&self.shared),
                _ => {}
            }
        }
    }

    /// The preemptive context's program for `level` (paper Figure 5 ③:
    /// drain the level's queue, then ④ resume the preempted context).
    fn drain_loop(&self, level: u8) -> ! {
        loop {
            if let Step::Idle | Step::Stopped | Step::StarvationBreak = self.step_at(level) {
                self.leave_level();
            }
        }
    }
}

/// The execute/retry loop of one request: `Ok` with the committing
/// attempt's outcome, or why it ended without one.
fn execute(req: &mut Request, attempts: &mut u32) -> Result<WorkOutcome, Step> {
    if preempt_faults::on_txn_start() {
        panic!("injected: transaction panic");
    }
    loop {
        let o = req.run();
        if o.committed {
            return Ok(o);
        }
        if *attempts >= req.max_retries {
            return Err(Step::Exhausted);
        }
        *attempts += 1;
        // Backoff between attempts runs at a preemption point, so a
        // retrying low-priority transaction stays preemptible.
        let backoff = RETRY_BACKOFF_BASE << (*attempts - 1).min(RETRY_BACKOFF_MAX_SHIFT);
        runtime::preempt_point(backoff);
        // Provenance: the backoff's nominal cost is redo time. Exact in
        // the simulator (preempt_point advances just that); a preemption
        // landing inside the backoff is charged separately as
        // preempted-out, keeping the phase identity intact.
        preempt_prov::charge(preempt_prov::Phase::Retry, backoff);
        if req.deadline.is_some_and(|dl| now_cycles() >= dl) {
            return Err(Step::TimedOut);
        }
    }
}

/// Parks the worker until the scheduler wakes it (or a timeout passes on
/// real threads, to self-heal missed wake-ups).
fn idle_wait(shared: &WorkerShared) {
    if shared.is_stopped() {
        return;
    }
    if preempt_sim::api::active() {
        // No preemption point between the check above and block():
        // within the simulator's grant model this makes check+block
        // atomic with respect to the scheduler core.
        preempt_sim::api::block();
    } else {
        std::thread::park_timeout(std::time::Duration::from_micros(100));
    }
}

/// The worker's preemption-point hook on a real thread.
impl PreemptHook for WorkerCtx {
    #[inline]
    fn preempt_point(&self, _cost_cycles: u64) {
        if self.policy.sends_uintr() {
            self.on_thread_point();
        } else {
            self.on_point();
        }
    }
}

/// Stack size for preemptive contexts.
pub const PREEMPTIVE_CTX_STACK: usize = 256 * 1024;

/// Runs a worker until [`WorkerShared::stop`]. Call on the worker's
/// dedicated thread or simulated core.
pub fn worker_main(shared: Arc<WorkerShared>, policy: Policy) {
    let levels = shared.levels();
    // Arm the live threshold cell so the decision sites see the policy's
    // threshold even when this worker runs without the full scheduler
    // (unit tests, examples). The scheduler re-arms it at run start and
    // — under the adaptive policy — per evaluation window.
    if let Some(l0) = policy.starvation_threshold() {
        shared.starvation.set_threshold(l0);
    }
    if !preempt_sim::api::active() {
        // Real-thread mode: register our own thread handle before the
        // UPID is published — whoever sees the descriptor also sees the
        // thread. (In sim mode the runner registers the core id before
        // the worker runs.)
        shared.set_wake_target(WakeTarget::Thread(std::thread::current()));
    }

    let mut wc = Box::new(WorkerCtx {
        shared: shared.clone(),
        policy,
        receiver: UintrReceiver::new(),
        contexts: Vec::new(),
        level_tcbs: Vec::new(),
        current_level: Cell::new(0),
        slots: (0..levels).map(|_| Cell::default()).collect(),
        return_levels: Cell::new([0; 16]),
        return_depth: Cell::new(0),
        ops_since_check: Cell::new(0),
        hints_since_check: Cell::new(0),
        declined: Cell::new(0),
        txn_seq: Cell::new(0),
        handler_owed: Cell::new(0),
    });
    let wc_ptr = &*wc as *const WorkerCtx as usize;
    // The runner registers a ring before starting the worker (or never);
    // every context this worker runs records into the same ring.
    let trace_ring = shared.trace.get().cloned();

    // Register the user-interrupt handler (Algorithm 1's entry into the
    // helper) and publish the UPID for the scheduler's UITT.
    // SAFETY: `wc_ptr` stays valid for every handler invocation: the
    // receiver (and with it the handler closure) is dropped before `wc`
    // at the end of this worker's run.
    wc.receiver
        .register_handler(move |vector| unsafe { (*(wc_ptr as *const WorkerCtx)).on_uintr(vector) });
    let upid = wc.receiver.upid();
    upid.set_owner(shared.id as u16);
    shared.set_upid(upid);

    // Level 0 runs on this (main) context.
    wc.level_tcbs.push(Cell::new(tcb::current_ptr()));
    // Preemptive contexts for levels 1..
    for level in 1..levels {
        let ctx = Context::new(PREEMPTIVE_CTX_STACK, "preemptive", move || {
            // SAFETY: wc outlives all its contexts (dropped after them).
            // The closure owns nothing: a context is dropped suspended,
            // and what its stack holds is never dropped, so an `Arc`
            // captured here would leak the worker's shared state.
            let wc = unsafe { &*(wc_ptr as *const WorkerCtx) };
            let shared = &*wc.shared;
            CURRENT_WORKER.set(wc_ptr);
            preempt_mvcc::init_context();
            if let Some(r) = shared.trace.get() {
                preempt_trace::install_current(r);
            }
            // `wc.shared` keeps the shard alive past every emit here.
            preempt_metrics::install_current(&shared.metrics_shard);
            // Pre-touch the provenance accumulator and the UIF so that
            // neither handler-path charges nor a nested delivery allocate
            // a CLS slot inside an interrupt.
            preempt_prov::init_context();
            preempt_uintr::testui();
            if wc.current_level.get() != level {
                // Entered by the start-up warm-up, not by `enter_level`:
                // hand straight back; the first preemption resumes here.
                // SAFETY: the main context's TCB lives as long as `wc`.
                switch_to(unsafe { &*wc.level_tcbs[0].get() });
            }
            wc.drain_loop(level)
        })
        .expect("context stack allocation failed");
        wc.level_tcbs.push(Cell::new(ctx.tcb_ptr()));
        wc.contexts.push(ctx);
    }

    if !preempt_sim::api::active() {
        // Warm-up on a real thread: enter each preemptive context once,
        // so its set-up (context-local slots, above) is done before the
        // first request rather than inside the first preemption, which
        // then allocates nothing. (A simulated core skips it: entering a
        // context there is a scheduling event.)
        for tcb in &wc.level_tcbs[1..] {
            // SAFETY: as in `enter_level`.
            switch_to(unsafe { &*tcb.get() });
        }
    }
    CURRENT_WORKER.set(wc_ptr);
    preempt_mvcc::init_context();
    if let Some(r) = &trace_ring {
        preempt_trace::install_current(r);
    }
    preempt_metrics::install_current(&shared.metrics_shard);
    preempt_uintr::testui();
    // The kind slots exist before the first request, which then counts
    // without allocating.
    shared.metrics_shard.reserve_kinds();
    preempt_prov::init_context();
    if preempt_sim::api::active() {
        // Simulator: per-core hook (a thread-local hook would fire for
        // whichever core happens to be running on this shared OS thread).
        preempt_sim::api::set_core_hook(std::rc::Rc::new(move |_cost| {
            // SAFETY: the hook is cleared before wc drops, below.
            unsafe { (*(wc_ptr as *const WorkerCtx)).on_point() }
        }));
        wc.regular_loop();
        preempt_sim::api::clear_core_hook();
    } else {
        // A worker thread is spawned for the worker alone
        // (`spawn_worker_thread`): no hook is installed around it.
        debug_assert!(runtime::current_hook_raw().is_none());
        runtime::with_hook(&*wc, || wc.regular_loop());
    }
    CURRENT_WORKER.set(0);
    preempt_trace::clear_current();
    preempt_metrics::clear_current();
}

/// Dropped as the last thing a worker thread does, unwinding included:
/// renames the thread to `preemptdb-gone`. `join` returns when the kernel
/// clears the thread's tid word, a moment *before* the task leaves
/// `/proc/self/task`; a worker still named then is counted by whoever
/// lists `preemptdb-worker-*` threads right after a `shutdown` (the
/// benchmark's placement does, and refuses to run with two).
struct RetireThreadName;

impl Drop for RetireThreadName {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        {
            extern "C" {
                fn prctl(option: i32, ...) -> i32;
            }
            const PR_SET_NAME: i32 = 15;
            // SAFETY: PR_SET_NAME reads a NUL-terminated string of at most
            // 16 bytes from its argument; the literal is static, 15 with
            // its NUL.
            unsafe { prctl(PR_SET_NAME, c"preemptdb-gone".as_ptr()) };
        }
    }
}

/// Starts `w` on a thread of its own, named `preemptdb-worker-<id>`
/// while it runs, which registers itself as the worker's wake target.
/// Created from the caller, it shares its CPU mask.
pub fn spawn_worker_thread(w: &Arc<WorkerShared>, policy: Policy) -> std::thread::JoinHandle<()> {
    let ws = w.clone();
    std::thread::Builder::new()
        .name(format!("preemptdb-worker-{}", w.id))
        .spawn(move || {
            let _name = RetireThreadName;
            worker_main(ws, policy)
        })
        .expect("spawn worker thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WorkOutcome;
    use preempt_sim::{SimConfig, Simulation};
    use std::sync::atomic::AtomicU64;

    fn completed_view(shared: &WorkerShared) -> crate::Metrics {
        let snap = preempt_metrics::MetricsSnapshot::of_shards([&*shared.metrics_shard]);
        crate::Metrics::from_snapshot(&snap)
    }

    fn mk_req(kind: &'static str, priority: u8, created: u64, cost: u64) -> Request {
        Request::new(kind, priority, created, move || {
            runtime::preempt_point(cost);
            WorkOutcome::default()
        })
    }

    /// Laid out by writer: nothing a submitter reads per request shares
    /// a cache line with anything the worker writes per request. (What
    /// the scheduler writes per send is on the UPID's post line.)
    #[test]
    fn shared_state_is_grouped_by_writer() {
        use std::mem::{align_of, offset_of};
        assert_eq!(align_of::<WorkerShared>(), 64);
        macro_rules! lines {
            ($($f:ident),*) => { [$((stringify!($f), offset_of!(WorkerShared, $f) / 64)),*] };
        }
        let submitter =
            lines!(id, queues, upid, wake_target, metrics_shard, stopped, degraded);
        let worker = lines!(uintr_ack, starvation);
        let last = |g: &[(&str, usize)]| g.iter().map(|f| f.1).max().unwrap();
        let first = |g: &[(&str, usize)]| g.iter().map(|f| f.1).min().unwrap();
        let (sub, wrk) = (last(&submitter), first(&worker));
        assert!(sub < wrk, "{submitter:?} {worker:?}");
    }

    /// End-to-end smoke test in the simulator: one worker, one scheduler
    /// core pushing a low and a high request, PreemptDB policy.
    #[test]
    fn worker_runs_requests_in_sim() {
        let sim = Simulation::new(SimConfig::default());
        let shared = WorkerShared::new(0, &[1, 4]);

        let ws = shared.clone();
        let core = sim.spawn_core("worker", 256 * 1024, move || {
            worker_main(ws, Policy::preemptdb());
        });
        shared.set_wake_target(WakeTarget::Sim(core));

        let ws = shared.clone();
        sim.spawn_core("sched", 128 * 1024, move || {
            preempt_sim::api::sleep_until(1_000);
            ws.queues[0].push(mk_req("low", 0, 1_000, 50_000)).ok();
            ws.queues[1].push(mk_req("high", 1, 1_000, 2_000)).ok();
            ws.wake();
            preempt_sim::api::sleep_until(200_000);
            ws.stop();
        });

        sim.run();
        let m = completed_view(&shared);
        assert_eq!(m.kind("low").unwrap().completed, 1);
        assert_eq!(m.kind("high").unwrap().completed, 1);
    }

    /// Preemption actually interrupts a long low-priority request: the
    /// high request must complete before the low one finishes.
    #[test]
    fn uintr_preempts_long_low_priority_txn() {
        let sim = Simulation::new(SimConfig::default());
        let shared = WorkerShared::new(0, &[1, 4]);
        let high_done = Arc::new(AtomicU64::new(0));
        let low_done = Arc::new(AtomicU64::new(0));

        let ws = shared.clone();
        let core = sim.spawn_core("worker", 256 * 1024, move || {
            worker_main(ws, Policy::preemptdb());
        });
        shared.set_wake_target(WakeTarget::Sim(core));

        let ws = shared.clone();
        let (hd, ld) = (high_done.clone(), low_done.clone());
        sim.spawn_core("sched", 128 * 1024, move || {
            // Long low txn: 10M cycles (~4ms), in 1k-cycle ops.
            let ld2 = ld.clone();
            ws.queues[0]
                .push(Request::new("q2", 0, 0, move || {
                    for _ in 0..10_000 {
                        runtime::preempt_point(1_000);
                    }
                    ld2.store(crate::clock::now_cycles(), Ordering::Relaxed);
                    WorkOutcome::default()
                }))
                .ok();
            ws.wake();
            // Mid-flight (1M cycles in), dispatch a high txn + uintr.
            preempt_sim::api::sleep_until(1_000_000);
            let hd2 = hd.clone();
            let now = crate::clock::now_cycles();
            ws.queues[1]
                .push(Request::new("neworder", 1, now, move || {
                    runtime::preempt_point(20_000);
                    hd2.store(crate::clock::now_cycles(), Ordering::Relaxed);
                    WorkOutcome::default()
                }))
                .ok();
            let upid = ws.upid().unwrap();
            preempt_sim::SimUipiSender::new(upid, 1, core).send();
            // Give everything time to finish, then stop.
            preempt_sim::api::sleep_until(60_000_000);
            ws.stop();
        });

        sim.run();
        let h = high_done.load(Ordering::Relaxed);
        let l = low_done.load(Ordering::Relaxed);
        assert!(h > 0 && l > 0, "both completed: h={h}, l={l}");
        assert!(
            h < l,
            "high-priority txn finished mid-low-priority txn (h={h}, l={l})"
        );
        // Delivered ~1.5µs (3600 cycles) after the 1M-cycle send; the high
        // txn is 20k cycles; it must finish well before 1.1M.
        assert!(h < 1_100_000, "high finished promptly at {h}");
        assert_eq!(shared.metrics_shard.counter(Counter::Preemptions), 1);
        let m = completed_view(&shared);
        assert_eq!(m.kind("q2").unwrap().completed, 1);
        assert_eq!(m.kind("neworder").unwrap().completed, 1);
    }

    /// Under Wait, the same scenario makes the high txn wait for the low.
    #[test]
    fn wait_policy_does_not_preempt() {
        let sim = Simulation::new(SimConfig::default());
        let shared = WorkerShared::new(0, &[1, 4]);
        let high_done = Arc::new(AtomicU64::new(0));
        let low_done = Arc::new(AtomicU64::new(0));

        let ws = shared.clone();
        let core = sim.spawn_core("worker", 256 * 1024, move || {
            worker_main(ws, Policy::Wait);
        });
        shared.set_wake_target(WakeTarget::Sim(core));

        let ws = shared.clone();
        let (hd, ld) = (high_done.clone(), low_done.clone());
        sim.spawn_core("sched", 128 * 1024, move || {
            let ld2 = ld.clone();
            ws.queues[0]
                .push(Request::new("q2", 0, 0, move || {
                    for _ in 0..10_000 {
                        runtime::preempt_point(1_000);
                    }
                    ld2.store(crate::clock::now_cycles(), Ordering::Relaxed);
                    WorkOutcome::default()
                }))
                .ok();
            ws.wake();
            preempt_sim::api::sleep_until(1_000_000);
            let hd2 = hd.clone();
            let now = crate::clock::now_cycles();
            ws.queues[1]
                .push(Request::new("neworder", 1, now, move || {
                    runtime::preempt_point(20_000);
                    hd2.store(crate::clock::now_cycles(), Ordering::Relaxed);
                    WorkOutcome::default()
                }))
                .ok();
            ws.wake();
            preempt_sim::api::sleep_until(60_000_000);
            ws.stop();
        });

        sim.run();
        let h = high_done.load(Ordering::Relaxed);
        let l = low_done.load(Ordering::Relaxed);
        assert!(h > l, "Wait runs the high txn only after the low finishes");
        assert_eq!(shared.metrics_shard.counter(Counter::Preemptions), 0);
    }

    /// Cooperative yields at the configured interval, again after each
    /// nested request: the low transaction keeps its priority when the
    /// request it yielded to returns.
    #[test]
    fn cooperative_yields_at_interval() {
        let sim = Simulation::new(SimConfig::default());
        let shared = WorkerShared::new(0, &[1, 4]);
        let done: Vec<_> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();

        let ws = shared.clone();
        let policy = Policy::Cooperative {
            yield_interval: 1_000,
        };
        let core = sim.spawn_core("worker", 256 * 1024, move || worker_main(ws, policy));
        shared.set_wake_target(WakeTarget::Sim(core));

        let (ws, d) = (shared.clone(), done.clone());
        sim.spawn_core("sched", 128 * 1024, move || {
            ws.queues[0].push(stamped("q2", 0, 10_000_000, &d[0])).ok();
            ws.wake();
            // No uintr under Cooperative: the worker notices each high
            // request at its next yield check.
            preempt_sim::api::sleep_until(1_000_000);
            ws.queues[1].push(stamped("neworder", 1, 20_000, &d[1])).ok();
            preempt_sim::api::sleep_until(5_000_000);
            ws.queues[1].push(stamped("payment", 1, 20_000, &d[2])).ok();
            preempt_sim::api::sleep_until(60_000_000);
            ws.stop();
        });

        sim.run();
        let [low, first, second] = [0, 1, 2].map(|i| done[i].load(Ordering::Relaxed));
        assert!(first > 0 && second > 0 && low > 0, "all completed");
        assert!(first < low && second < low, "both highs inside the low: {first} {second} {low}");
        assert!(shared.metrics_shard.counter(Counter::CoopYields) >= 2);
        assert_eq!(shared.metrics_shard.counter(Counter::Preemptions), 0);
    }

    /// A request of `cycles` in 1 000-cycle operations that stamps its
    /// completion time into `done`.
    fn stamped(kind: &'static str, priority: u8, cycles: u64, done: &Arc<AtomicU64>) -> Request {
        let done = done.clone();
        Request::new(kind, priority, crate::clock::now_cycles(), move || {
            for _ in 0..cycles / 1_000 {
                runtime::preempt_point(1_000);
            }
            done.store(crate::clock::now_cycles(), Ordering::Relaxed);
            WorkOutcome::default()
        })
    }

    /// A high request whose interrupt was declined, because another high
    /// transaction ran on the regular path, runs on the regular path as
    /// soon as that transaction ends — not after the low transaction the
    /// preemptive order would take next — and preempts nothing.
    #[test]
    fn declined_delivery_is_taken_when_the_declining_step_ends() {
        let sim = Simulation::new(SimConfig::default());
        let shared = WorkerShared::new(0, &[1, 4]);
        let done: Vec<_> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();

        let ws = shared.clone();
        let core = sim.spawn_core("worker", 256 * 1024, move || worker_main(ws, Policy::preemptdb()));
        shared.set_wake_target(WakeTarget::Sim(core));

        let (ws, d) = (shared.clone(), done.clone());
        sim.spawn_core("sched", 128 * 1024, move || {
            // Empty low queue: the first high runs on the regular path.
            ws.queues[1].push(stamped("neworder", 1, 2_000_000, &d[1])).ok();
            ws.wake();
            preempt_sim::api::sleep_until(500_000);
            // A long low queued behind it, and a second high whose
            // interrupt the first one declines.
            ws.queues[0].push(stamped("q2", 0, 10_000_000, &d[0])).ok();
            ws.queues[1].push(stamped("payment", 1, 20_000, &d[2])).ok();
            preempt_sim::SimUipiSender::new(ws.upid().unwrap(), 1, core).send();
            preempt_sim::api::sleep_until(60_000_000);
            ws.stop();
        });

        sim.run();
        let [low, first, second] = [0, 1, 2].map(|i| done[i].load(Ordering::Relaxed));
        assert!(first > 0 && second > 0 && low > 0, "all completed");
        assert!(
            second > first && second < first + 100_000,
            "the declined high runs right after the one that declined it: {first} {second}"
        );
        assert!(second < low, "not after the low transaction: {second} {low}");
        let count = |c| shared.metrics_shard.counter(c);
        assert_eq!(count(Counter::HighOnRegular), 2);
        assert_eq!(count(Counter::Preemptions), 0);
        assert_eq!(count(Counter::SchedEnterLevel), 0);
    }

    /// Every step exit checks that the transaction closed each
    /// non-preemptible region it opened (debug builds).
    #[cfg(debug_assertions)]
    #[test]
    fn a_leaked_non_preemptible_region_trips_the_step_exit_check() {
        let shared = WorkerShared::new(0, &[1, 4]);
        let handle = spawn_worker_thread(&shared, Policy::Wait);
        while shared.upid().is_none() {
            std::thread::yield_now();
        }
        let req = Request::new("leaky", 0, now_cycles(), || {
            std::mem::forget(NonPreemptGuard::enter());
            WorkOutcome::default()
        });
        shared.queues[0].push(req).ok();
        shared.wake();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !handle.is_finished() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        shared.stop();
        let payload = handle.join().expect_err("the step exit check must stop the worker");
        let msg = payload_message(&*payload);
        assert!(msg.contains("left a non-preemptible region open"), "{msg}");
    }

    /// Worker also runs on a plain OS thread (no simulator).
    #[test]
    fn worker_runs_on_real_thread() {
        let shared = WorkerShared::new(0, &[2, 4]);
        let handle = spawn_worker_thread(&shared, Policy::preemptdb());
        // Wait for startup.
        while shared.upid().is_none() {
            std::thread::yield_now();
        }
        let t0 = now_cycles();
        shared.queues[1].push(mk_req("high", 1, t0, 100)).ok();
        shared.queues[0].push(mk_req("low", 0, t0, 100)).ok();
        shared.wake();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if shared.queues[0].is_empty() && shared.queues[1].is_empty() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "worker stuck");
            std::thread::yield_now();
        }
        shared.stop();
        handle.join().unwrap();
        assert_eq!(completed_view(&shared).total_completed(), 2);
    }
}
