//! The PreemptDB worker (paper Figure 5/6).
//!
//! A worker owns one context per priority level:
//!
//! * **level 0** — the *regular scheduling path*: a loop that drains the
//!   worker's queues highest-priority-first and runs each transaction to
//!   completion;
//! * **levels ≥ 1** — *preemptive contexts*: each runs a drain loop over
//!   its priority's queue and switches back to the context it preempted.
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
//! virtual time first), or on a real thread the `WorkerHook`; either
//! polls the worker's user-interrupt receiver and performs cooperative
//! yield accounting. A preemptive worker on a real thread takes a
//! one-load fast path instead (`WorkerCtx::on_thread_point`).

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
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

/// Terminal state of one request's execute/retry loop.
enum TxnEnd {
    /// Committed with the closure's outcome.
    Committed(WorkOutcome),
    /// Retry budget exhausted without a commit.
    Exhausted,
    /// Deadline passed between attempts.
    TimedOut,
    /// The transaction panicked; the firewall contained it.
    Panicked(String),
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
    /// Priority of the transaction currently executing (None = between
    /// transactions).
    current_txn_priority: Cell<Option<u8>>,
    /// Stack of levels to return to after a preemption/yield.
    return_levels: Cell<[u8; 16]>,
    return_depth: Cell<usize>,
    /// Cooperative yield accounting.
    ops_since_check: Cell<u64>,
    hints_since_check: Cell<u64>,
    /// Worker-local transaction sequence number for trace records.
    txn_seq: Cell<u64>,
    /// `handler` cycles (polls, handler decisions) the running context
    /// owes its accumulator: a plain cell, so neither touches
    /// context-local storage. See `flush_handler_owed`.
    handler_owed: Cell<u64>,
    /// Bit `l` set: the transaction running at level `l` is attributed
    /// (`run_request` decides once per request), so the handler and the
    /// switch away from it read the clock on its behalf.
    attributed: Cell<u32>,
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
        let away_start = self.is_attributed(from).then(now_cycles);
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
        let timed = self.is_attributed(self.current_level.get());
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
        let cur = self.current_txn_priority.get().unwrap_or(0);
        if level <= cur.max(self.current_level.get()) {
            return None;
        }
        // Taken, even when the queue turns out empty (Figure 8's overhead
        // experiment: switch to the preemptive context and straight back
        // is exactly what the paper measures as pure overhead). The drain
        // loop's `pop` is a context switch away: start its misses now.
        self.shared.queues[level as usize].prefetch_pop();
        Some(level)
    }

    // ---- cooperative yielding ----

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
        }

        if let Policy::Cooperative { yield_interval } = self.policy {
            if self.current_level.get() == 0 && self.current_txn_priority.get() == Some(0) {
                let n = self.ops_since_check.get() + 1;
                if n >= yield_interval {
                    self.ops_since_check.set(0);
                    // The check itself costs cycles; at yield-interval 1
                    // this is the per-record overhead the paper shows
                    // hurting Q2 (Figure 11, left of the sweep).
                    charge(COOP_CHECK_COST);
                    preempt_prov::charge(preempt_prov::Phase::Handler, COOP_CHECK_COST);
                    self.maybe_coop_switch();
                } else {
                    self.ops_since_check.set(n);
                }
            }
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

    /// Whether the transaction running at `level` is attributed.
    #[inline]
    fn is_attributed(&self, level: u8) -> bool {
        self.attributed.get() & (1 << level) != 0
    }

    fn set_attributed(&self, level: u8, on: bool) {
        let bits = self.attributed.get() & !(1 << level);
        self.attributed.set(bits | (u32::from(on) << level));
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

    /// Polls the receiver (which may run the handler and switch away),
    /// then makes the degraded-mode yield check.
    fn deliver_uintr(&self) {
        self.receiver.poll();

        // Degraded mode: interrupt delivery to this worker is failing,
        // so fall back to cooperative yield checks (the scheduler has
        // stopped sending uintrs and is using plain wakes). Same guard
        // as Cooperative: only level-0 low-priority work yields. Acquire
        // pairs with the scheduler's Release store when it flips
        // degraded mode, so the worker also observes the queue state that
        // justified the transition.
        if self.shared.degraded.load(Ordering::Acquire)
            && self.current_level.get() == 0
            && self.current_txn_priority.get() == Some(0)
        {
            let n = self.ops_since_check.get() + 1;
            if n >= DEGRADED_YIELD_INTERVAL {
                self.ops_since_check.set(0);
                charge(COOP_CHECK_COST);
                preempt_prov::charge(preempt_prov::Phase::Handler, COOP_CHECK_COST);
                self.maybe_coop_switch();
            } else {
                self.ops_since_check.set(n);
            }
        }
    }

    /// Called at workload-annotated yield hints.
    fn on_yield_hint(&self) {
        if let Policy::CooperativeHandcrafted { block_interval } = self.policy {
            if self.current_level.get() == 0 && self.current_txn_priority.get() == Some(0) {
                let n = self.hints_since_check.get() + 1;
                if n >= block_interval {
                    self.hints_since_check.set(0);
                    charge(COOP_CHECK_COST);
                    preempt_prov::charge(preempt_prov::Phase::Handler, COOP_CHECK_COST);
                    self.maybe_coop_switch();
                } else {
                    self.hints_since_check.set(n);
                }
            }
        }
    }

    /// Voluntary switch if any higher-priority queue has work.
    fn maybe_coop_switch(&self) {
        for level in (1..self.level_tcbs.len() as u8).rev() {
            if !self.shared.queues[level as usize].is_empty() {
                self.shared.metrics_shard.bump(Counter::CoopYields);
                self.enter_level(level);
                return;
            }
        }
    }

    // ---- execution ----

    /// Runs one request, recording metrics and starvation bookkeeping.
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
    fn run_request(&self, req: Request, at_level: u8) -> u64 {
        let started = now_cycles();
        let kind = req.kind;
        let created = req.created_at;
        let ingress = req.ingress;
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
        preempt_trace::emit(preempt_trace::TraceEvent::TxnBegin {
            txn,
            priority: req.priority,
        });
        // No preemption point runs between TxnBegin and ReqId, so the
        // reconstructor can bind the id to the just-opened span.
        preempt_trace::emit(preempt_trace::TraceEvent::ReqId { id: req_id });
        if let Some(dl) = req.deadline {
            if started >= dl {
                preempt_trace::emit(preempt_trace::TraceEvent::TxnAbort { txn });
                self.shared.metrics_shard.txn_deadline_abort(kind);
                return 0;
            }
        }
        // Provenance window opens, if anything will read it: drop any
        // stale between-transaction charges (idle-path polls, owed or
        // booked) so the accumulator holds exactly this transaction's
        // phases. Decided once, so the transaction is attributed whole or
        // not at all.
        let attributed = self.attribution_observed();
        self.set_attributed(at_level, attributed);
        if attributed {
            preempt_prov::reset();
        }
        let sched_latency = started.saturating_sub(created);
        let is_low = req.priority == 0;
        if at_level == 0 && is_low {
            self.shared.starvation.low_priority_started(started);
        }
        let priority = req.priority;
        self.current_txn_priority.set(Some(priority));
        let mut req = req;
        let mut attempts: u32 = 0;
        // Panic firewall (failure containment): the whole execute/retry
        // loop runs under `catch_unwind`, so a panicking transaction
        // unwinds back to here — releasing its latches and MVCC slot
        // through the usual drop guards on the way — and the worker keeps
        let end = {
            let attempts = &mut attempts;
            let deadline = req.deadline;
            let max_retries = req.max_retries;
            match catch_unwind(AssertUnwindSafe(|| {
                if preempt_faults::on_txn_start() {
                    panic!("injected: transaction panic");
                }
                loop {
                    let o = req.run();
                    if o.committed {
                        return TxnEnd::Committed(o);
                    }
                    if *attempts >= max_retries {
                        return TxnEnd::Exhausted;
                    }
                    *attempts += 1;
                    // Backoff between attempts runs at a preemption point,
                    // so a retrying low-priority transaction stays
                    // preemptible.
                    let shift = (*attempts - 1).min(RETRY_BACKOFF_MAX_SHIFT);
                    runtime::preempt_point(RETRY_BACKOFF_BASE << shift);
                    // Provenance: the backoff's nominal cost is redo time.
                    // Exact in the simulator (preempt_point advances just
                    // that); a preemption landing inside the backoff is
                    // charged separately as preempted-out, keeping the
                    // phase identity intact.
                    preempt_prov::charge(
                        preempt_prov::Phase::Retry,
                        RETRY_BACKOFF_BASE << shift,
                    );
                    if let Some(dl) = deadline {
                        if now_cycles() >= dl {
                            return TxnEnd::TimedOut;
                        }
                    }
                }
            })) {
                Ok(end) => end,
                Err(p) => TxnEnd::Panicked(payload_message(&*p)),
            }
        };
        self.current_txn_priority.set(None);
        self.set_attributed(at_level, false);
        let finished = now_cycles();
        if at_level == 0 && is_low {
            self.shared.starvation.low_priority_finished();
        }
        // Full phase vector for a committed window: explicit charges from
        // the accumulator, admission/queue from timestamps, run as the
        // residual — so the vector sums to the measured latency exactly.
        let committed_phases = (attributed && matches!(end, TxnEnd::Committed(_))).then(|| {
            let window = finished.saturating_sub(started);
            let admission = if ingress == 0 {
                0
            } else {
                created.saturating_sub(ingress)
            };
            self.flush_handler_owed();
            preempt_prov::phase_vector(admission, sched_latency, window, &preempt_prov::take())
        });
        match &end {
            TxnEnd::Committed(_) => {
                // Phase events precede TxnCommit: the reconstructor folds
                // them into the still-open span the commit then closes.
                if let Some(phases) = &committed_phases {
                    preempt_prov::emit_phases(phases);
                }
                preempt_trace::emit(preempt_trace::TraceEvent::TxnCommit { txn })
            }
            TxnEnd::Panicked(_) => preempt_trace::emit(preempt_trace::TraceEvent::TxnPanic { txn }),
            _ => preempt_trace::emit(preempt_trace::TraceEvent::TxnAbort { txn }),
        }
        let shard = &self.shared.metrics_shard;
        match end {
            TxnEnd::Committed(o) => {
                let latency = finished.saturating_sub(created);
                let retries = o.retries + attempts as u64;
                shard.txn_completed(kind, priority, latency, sched_latency, retries);
                if let Some(phases) = &committed_phases {
                    preempt_prov::record_phase_hists(phases, priority > 0);
                    // Flight recorder: on an end-to-end SLO breach, freeze
                    // the full attribution as an exemplar.
                    if let Some(fr) = self.shared.flight.get() {
                        let class = usize::from(priority > 0);
                        let slo = fr.slo(class);
                        let e2e = phases.iter().sum::<u64>();
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
                                phases: *phases,
                            });
                        }
                    }
                }
            }
            TxnEnd::TimedOut => shard.txn_deadline_abort(kind),
            TxnEnd::Exhausted => shard.txn_failed(kind, attempts as u64),
            TxnEnd::Panicked(msg) => {
                shard.bump(Counter::WorkerPanics);
                self.shared.panics.lock().push(format!("{kind}: {msg}"));
            }
        }
        let dur = finished.saturating_sub(started);
        shard.bump_by(Counter::BusyCycles, dur);
        dur
    }

    /// The preemptive context's program for `level` (paper Figure 5 ③:
    /// drain the level's queue, then ④ resume the preempted context).
    fn drain_loop(&self, level: u8) -> ! {
        loop {
            // We were just switched into (passively or cooperatively).
            loop {
                if self.shared.is_stopped() {
                    break;
                }
                let Some(req) = self.shared.queues[level as usize].pop() else {
                    break;
                };
                runtime::preempt_point(DISPATCH_POP_COST);
                let dur = self.run_request(req, level);
                self.shared.starvation.add_high_cycles(dur);
                // Starvation decision site 2 (paper §5): stop draining
                // early if the paused low-priority transaction is
                // starved. Uses the live threshold cell, so adaptive
                // re-tunes apply mid-drain.
                if self.policy.is_preemptive()
                    && self.shared.starvation.starving_live(now_cycles())
                {
                    preempt_trace::emit(preempt_trace::TraceEvent::StarvationBoost {
                        site: 2,
                    });
                    self.shared.metrics_shard.bump(Counter::StarvationBreaks);
                    break;
                }
            }
            self.leave_level();
        }
    }

    /// The regular scheduling path (paper Figure 5 ①/②), run on the
    /// worker's main context at level 0.
    ///
    /// Queue preference is policy-dependent (§4.1: "the worker thread may
    /// also be configured to prefer taking transactions from the
    /// high-priority queue based on the scheduling policy"):
    /// * Wait/Cooperative exhaust the high-priority queue first (§6.1);
    /// * PreemptDB serves the low-priority stream here — high-priority
    ///   transactions arrive through preemption, and gating them behind
    ///   the preemptive path is what lets starvation prevention actually
    ///   bound their CPU share (Figure 12's Lmax=0 restores full Q2
    ///   throughput). With an empty low queue the high queue still runs
    ///   here (path ②).
    fn regular_loop(&self) {
        let prefer_high = !self.policy.is_preemptive();
        while !self.shared.is_stopped() {
            let levels = self.level_tcbs.len() as u8;
            let pop = |level: u8| {
                let req = self.shared.queues[level as usize].pop()?;
                Some((req, level))
            };
            let found = if prefer_high {
                (0..levels).rev().find_map(pop)
            } else {
                (0..levels).find_map(pop)
            };
            match found {
                Some((req, from_level)) => {
                    runtime::preempt_point(DISPATCH_POP_COST);
                    if from_level > 0 {
                        self.shared.metrics_shard.bump(Counter::HighOnRegular);
                    }
                    self.run_request(req, 0);
                }
                None => match self.try_steal() {
                    Some(req) => {
                        runtime::preempt_point(DISPATCH_POP_COST);
                        self.run_request(req, 0);
                    }
                    None => idle_wait(&self.shared),
                },
            }
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
        let peers = self.shared.steal_peers.get()?;
        let mut stolen = None;
        for peer in peers {
            let Some(victim) = peer.upgrade() else {
                continue;
            };
            if victim.is_stopped() {
                continue;
            }
            if let Some(req) = victim.queues[0].steal() {
                stolen = Some((req, victim.id as u16));
                break;
            }
        }
        let (req, victim) = stolen?;
        preempt_trace::emit(preempt_trace::TraceEvent::Steal {
            victim,
            thief: self.shared.id as u16,
            level: 0,
        });
        self.shared.metrics_shard.bump(Counter::Steals);
        Some(req)
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

/// The worker's preemption-point hook on a real thread: chains to any
/// hook installed around the worker, then runs delivery/yield logic.
struct WorkerHook {
    wc: usize,
    parent: Option<NonNull<dyn PreemptHook>>,
}

impl WorkerHook {
    #[inline]
    fn worker_point(&self) {
        // SAFETY: `wc` outlives the hook's installation (both are scoped
        // to worker_main's frame).
        let wc = unsafe { &*(self.wc as *const WorkerCtx) };
        if wc.policy.sends_uintr() {
            wc.on_thread_point();
        } else {
            wc.on_point();
        }
    }

    /// Out of line, so that the common, unchained hook saves no registers.
    #[cold]
    #[inline(never)]
    fn chained_point(&self, parent: NonNull<dyn PreemptHook>, cost_cycles: u64) {
        // SAFETY: the parent hook outlives the worker's scope (it was
        // installed by the runtime that spawned this worker).
        unsafe { parent.as_ref().preempt_point(cost_cycles) };
        self.worker_point();
    }
}

impl PreemptHook for WorkerHook {
    fn preempt_point(&self, cost_cycles: u64) {
        match self.parent {
            Some(parent) => self.chained_point(parent, cost_cycles),
            None => self.worker_point(),
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
        current_txn_priority: Cell::new(None),
        return_levels: Cell::new([0; 16]),
        return_depth: Cell::new(0),
        ops_since_check: Cell::new(0),
        hints_since_check: Cell::new(0),
        txn_seq: Cell::new(0),
        handler_owed: Cell::new(0),
        attributed: Cell::new(0),
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
        let hook = WorkerHook {
            wc: wc_ptr,
            parent: runtime::current_hook_raw(),
        };
        runtime::with_hook(&hook, || wc.regular_loop());
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
        use std::sync::atomic::AtomicU64;
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
        use std::sync::atomic::AtomicU64;
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

    /// Cooperative yields at the configured interval.
    #[test]
    fn cooperative_yields_at_interval() {
        use std::sync::atomic::AtomicU64;
        let sim = Simulation::new(SimConfig::default());
        let shared = WorkerShared::new(0, &[1, 4]);
        let high_done = Arc::new(AtomicU64::new(0));
        let low_done = Arc::new(AtomicU64::new(0));

        let ws = shared.clone();
        let core = sim.spawn_core("worker", 256 * 1024, move || {
            worker_main(
                ws,
                Policy::Cooperative {
                    yield_interval: 1_000,
                },
            );
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
            // No uintr under Cooperative: the worker notices at its next
            // yield check.
            preempt_sim::api::sleep_until(60_000_000);
            ws.stop();
        });

        sim.run();
        let h = high_done.load(Ordering::Relaxed);
        let l = low_done.load(Ordering::Relaxed);
        assert!(h < l, "cooperative lets the high txn in mid-low txn");
        assert!(shared.metrics_shard.counter(Counter::CoopYields) >= 1);
        assert_eq!(shared.metrics_shard.counter(Counter::Preemptions), 0);
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
