//! The scheduling thread (paper §4.1, and the §6.1 benchmark driver).
//!
//! PreemptDB decouples workload generation from execution: a dedicated
//! scheduling thread generates transaction requests at fixed **arrival
//! intervals**, refills each worker's low-priority queue, pushes a batch
//! of same-timestamp high-priority transactions into the workers'
//! lock-free queues round-robin, and — under the preemptive policy —
//! sends one user interrupt per worker per batch (*batched on-demand
//! preemption*, §5). Undelivered remainder of a batch is abandoned when
//! the next arrival interval passes (§6.1).
//!
//! Starvation decision site 1 (§5) also lives here: a worker whose
//! starvation level exceeds the threshold receives no additional
//! high-priority transactions and no user interrupt this round.

use std::collections::VecDeque;
use std::sync::Arc;

use preempt_metrics::{Counter, Gauge, MetricsRegistry, MetricsSnapshot, Shard};
use preempt_uintr::UipiSender;

use crate::clock::now_cycles;
use crate::controller::ControllerReport;
use crate::policy::Policy;
use crate::request::Request;
use crate::worker::{WakeTarget, WorkerShared};

/// Cycles the scheduler spends pushing one request (modeling §4.1's
/// dispatch work in virtual time).
const DISPATCH_PUSH_COST: u64 = 250;
/// Per-tick bookkeeping cost.
const TICK_BASE_COST: u64 = 400;
/// Retry pause while all target queues are full (10 µs at 2.4 GHz).
const FULL_RETRY_PAUSE: u64 = 24_000;

/// Source of benchmark transactions, driven by the scheduling thread.
///
/// `now` is the generation timestamp (cycles) stamped into the request.
pub trait WorkloadFactory: Send {
    /// Next low-priority transaction, or `None` if this workload has no
    /// low-priority stream (then low queues stay empty).
    fn make_low(&mut self, now: u64) -> Option<Request>;
    /// Next high-priority transaction, or `None` if none (e.g. the
    /// overhead experiment of Figure 8 sends empty interrupts only).
    fn make_high(&mut self, now: u64) -> Option<Request>;

    /// Splits this factory into `shards` independent per-shard factories
    /// (consuming `self`'s state by draining it through `&mut`). Return
    /// `None` (the default) when the workload has no natural partition;
    /// the runner then falls back to a mutex-shared wrapper (see
    /// [`split_factory`]), which is still deterministic under the
    /// simulator because shards run interleaved on one OS thread.
    fn try_split(&mut self, shards: usize) -> Option<Vec<Box<dyn WorkloadFactory>>> {
        let _ = shards;
        None
    }
}

impl WorkloadFactory for Box<dyn WorkloadFactory> {
    fn make_low(&mut self, now: u64) -> Option<Request> {
        (**self).make_low(now)
    }
    fn make_high(&mut self, now: u64) -> Option<Request> {
        (**self).make_high(now)
    }
    fn try_split(&mut self, shards: usize) -> Option<Vec<Box<dyn WorkloadFactory>>> {
        (**self).try_split(shards)
    }
}

/// A [`WorkloadFactory`] handle shared between scheduler shards via a
/// mutex — the fallback when a workload cannot be partitioned. Each
/// `make_*` call locks for exactly one request, so shards interleave at
/// request granularity.
pub struct SharedFactory {
    inner: Arc<parking_lot::Mutex<Box<dyn WorkloadFactory>>>,
}

impl WorkloadFactory for SharedFactory {
    fn make_low(&mut self, now: u64) -> Option<Request> {
        self.inner.lock().make_low(now)
    }
    fn make_high(&mut self, now: u64) -> Option<Request> {
        self.inner.lock().make_high(now)
    }
}

/// Splits `factory` into one factory per scheduler shard: the factory's
/// own [`WorkloadFactory::try_split`] when it has one, else
/// [`SharedFactory`] clones of a single mutex-guarded instance.
pub fn split_factory(
    factory: Box<dyn WorkloadFactory>,
    shards: usize,
) -> Vec<Box<dyn WorkloadFactory>> {
    let mut factory = factory;
    if shards <= 1 {
        return vec![factory];
    }
    if let Some(parts) = factory.try_split(shards) {
        assert_eq!(parts.len(), shards, "try_split must return one factory per shard");
        return parts;
    }
    let shared = Arc::new(parking_lot::Mutex::new(factory));
    (0..shards)
        .map(|_| {
            Box::new(SharedFactory {
                inner: shared.clone(),
            }) as Box<dyn WorkloadFactory>
        })
        .collect()
}

/// Robustness knobs: delivery watchdog, per-request deadlines/retries,
/// and graceful degradation when interrupt delivery is failing.
///
/// User interrupts are fire-and-forget: a send can be lost (masked
/// receiver, dead thread, injected fault) and nothing tells the sender.
/// The scheduler therefore tracks a per-worker delivery **epoch** it
/// bumps before each send; the worker's handler acknowledges by copying
/// the epoch. An unacknowledged epoch with high-priority work still
/// queued means a lost wakeup, and the watchdog re-sends with
/// exponential backoff. Sustained failures downgrade notification to
/// plain wakes + worker-side cooperative checks; a quiet period upgrades
/// back.
#[derive(Clone, Copy, Debug)]
pub struct RobustnessConfig {
    /// Re-send unacknowledged interrupts while work is queued.
    pub watchdog: bool,
    /// Initial watchdog re-send backoff, cycles (≈ 50 µs at 2.4 GHz).
    pub watchdog_backoff_min: u64,
    /// Backoff cap, cycles (≈ 4 ms at 2.4 GHz).
    pub watchdog_backoff_max: u64,
    /// Relative deadline stamped on dispatched high-priority requests
    /// (cycles after the batch timestamp); `None` = no deadline.
    pub high_deadline: Option<u64>,
    /// Worker-level re-execution budget stamped on dispatched requests
    /// whose factory did not set one.
    pub max_retries: u32,
    /// Failure rate (ppm of recent sends that failed or needed a
    /// watchdog re-send) at which preemptive notification degrades to
    /// plain wakes.
    pub degrade_threshold_ppm: u32,
    /// Minimum sends in a window before its failure rate is trusted;
    /// under-sampled windows decay instead of evaluating (see
    /// [`DegradeWindow`]).
    pub degrade_window: u64,
    /// Length of one rolling degradation-evaluation window, cycles
    /// (≈ 2 ms at 2.4 GHz). Counters reset (or decay) every window, so
    /// an early failure burst cannot dominate the rate forever.
    pub degrade_eval_interval: u64,
    /// Failure-free cycles after which a degraded scheduler re-arms
    /// user interrupts (≈ 10 ms at 2.4 GHz).
    pub upgrade_quiet: u64,
    /// Max no-progress dispatch retry rounds per tick before the batch
    /// remainder is abandoned (bounds the full-queue busy-retry loop).
    pub max_full_retries: u32,
    /// Worker supervision (liveness leases + declare-dead escalation).
    /// Only meaningful under interrupt-sending policies: the lease is
    /// renewed by epoch acknowledgements.
    pub supervise: bool,
    /// Cycles a worker may stay unresponsive (unacknowledged delivery
    /// epoch with top-priority work queued) before the supervisor
    /// declares it dead. Sized well past `watchdog_backoff_max` so the
    /// resend → degrade rungs of the ladder run first (≈ 20 ms).
    pub dead_after: u64,
    /// Bound on waiting for a terminated worker to leave `worker_main`
    /// before giving up and quarantining it without an orphan sweep
    /// (≈ 10 ms).
    pub exit_wait: u64,
    /// Respawn budget per worker slot; exceeding it quarantines the
    /// worker instead of replacing it again.
    pub max_respawns: u32,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            watchdog: true,
            watchdog_backoff_min: 120_000,
            watchdog_backoff_max: 9_600_000,
            high_deadline: None,
            max_retries: 4,
            degrade_threshold_ppm: 400_000,
            degrade_window: 32,
            degrade_eval_interval: 4_800_000,
            upgrade_quiet: 24_000_000,
            max_full_retries: 8,
            supervise: true,
            dead_after: 48_000_000,
            exit_wait: 24_000_000,
            max_respawns: 3,
        }
    }
}

/// Rolling send/failure window for graceful-degradation decisions.
///
/// The failure rate is evaluated once per `eval_interval` cycles and the
/// counters are then **reset**, so the rate always describes the most
/// recent window rather than the whole run. A window with fewer than
/// `min_sends` sends is too small to trust (one unlucky re-send would
/// read as a huge rate); its counters are *halved* instead of evaluated,
/// so a stale sub-threshold burst fades away rather than lingering until
/// enough sends eventually arrive to be judged against.
#[derive(Clone, Copy, Debug)]
struct DegradeWindow {
    sends: u64,
    failures: u64,
    window_start: u64,
    eval_interval: u64,
    min_sends: u64,
}

impl DegradeWindow {
    fn new(now: u64, eval_interval: u64, min_sends: u64) -> DegradeWindow {
        DegradeWindow {
            sends: 0,
            failures: 0,
            window_start: now,
            eval_interval: eval_interval.max(1),
            min_sends: min_sends.max(1),
        }
    }

    fn send_ok(&mut self) {
        self.sends += 1;
    }

    fn send_failed(&mut self) {
        self.sends += 1;
        self.failures += 1;
    }

    /// Closes the window if `eval_interval` has elapsed: returns
    /// `Some(failure_rate_ppm)` and resets the counters when the window
    /// had enough sends, `None` (after decaying) otherwise.
    fn evaluate(&mut self, now: u64) -> Option<u64> {
        if now.saturating_sub(self.window_start) < self.eval_interval {
            return None;
        }
        self.window_start = now;
        if self.sends >= self.min_sends {
            let rate = self.failures.saturating_mul(1_000_000) / self.sends;
            self.sends = 0;
            self.failures = 0;
            Some(rate)
        } else {
            self.sends /= 2;
            self.failures /= 2;
            None
        }
    }

    /// Forgets all history (used when re-arming after an upgrade: the
    /// degraded stretch's counters say nothing about the new regime).
    fn reset(&mut self, now: u64) {
        self.sends = 0;
        self.failures = 0;
        self.window_start = now;
    }
}

/// Sweep hook: force-releases everything an owner (= worker id) still
/// holds in the storage engine, returning what was reclaimed.
pub type SweepFn = dyn Fn(u64) -> preempt_mvcc::OrphanSweep + Send + Sync;

/// Spawner hook: starts a fresh incarnation of a worker slot.
pub type SpawnFn = dyn Fn(&Arc<WorkerShared>) + Send + Sync;

/// Supervisor recovery hooks: how to sweep a dead worker's engine-side
/// orphans and how to spawn a replacement incarnation. Wired by the
/// runner (spawner) and by engine-backed workloads (sweep).
#[derive(Clone, Default)]
pub struct RecoveryHooks {
    /// Force-releases everything `owner` (= worker id) still holds in
    /// the storage engine: write latches, active-transaction slots,
    /// pending version intents. Run only after the dead incarnation's
    /// exit was observed. `None` = nothing engine-side to sweep.
    pub sweep: Option<Arc<SweepFn>>,
    /// Spawns a fresh incarnation of the worker (a new simulated core or
    /// OS thread running `worker_main`) and registers its wake target.
    /// `None` = dead workers are quarantined instead of respawned.
    pub spawner: Option<Arc<SpawnFn>>,
}

impl std::fmt::Debug for RecoveryHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryHooks")
            .field("sweep", &self.sweep.is_some())
            .field("spawner", &self.spawner.is_some())
            .finish()
    }
}

/// Driver configuration (§6.1 defaults in [`DriverConfig::paper_default`]).
#[derive(Clone, Debug)]
pub struct DriverConfig {
    pub policy: Policy,
    pub n_workers: usize,
    /// Scheduler-plane shards. `1` (the default) is the paper's single
    /// scheduling thread and reproduces its trajectories exactly. With
    /// `S > 1` the runner partitions workers contiguously into `S`
    /// groups, each owned by its own scheduler shard with local
    /// admission, dispatch, watchdog, supervision and controller;
    /// same-shard workers steal from each other's queue tails, and a
    /// shard whose queues are wedged moves starved high-priority work
    /// cross-shard with a uintr kick (shootdown). `batch_size` and the
    /// workload factory are split per shard (see
    /// [`split_factory`]).
    pub shards: usize,
    /// Queue capacity per priority level: `[low, high, ...]`.
    pub queue_caps: Vec<usize>,
    /// High-priority batch size per arrival; the paper uses
    /// `workers × high-queue-capacity`.
    pub batch_size: usize,
    /// Arrival interval in cycles.
    pub arrival_interval: u64,
    /// Run duration in cycles.
    pub duration: u64,
    /// Send a user interrupt to every worker at every tick even without
    /// high-priority work — the pure-overhead mode of Figure 8.
    pub always_interrupt: bool,
    /// Fault-tolerance knobs (watchdog, deadlines, degradation,
    /// supervision).
    pub robustness: RobustnessConfig,
    /// Supervisor recovery hooks (orphan sweep + worker respawn).
    pub recovery: RecoveryHooks,
    /// Event-trace session: when set, the runner registers one ring per
    /// worker (plus the scheduler's own), and the run report carries the
    /// merged trace and preemption-latency breakdown. `None` (the
    /// default) records nothing and costs one relaxed load per site.
    pub trace: Option<preempt_trace::TraceSession>,
    /// The registry the caller wants to export or serve: the run attaches
    /// its shards to it, threaded runs sample it (and answer
    /// `GET /metrics` when its config says so), and the caller can
    /// snapshot it mid-run. `None` (the default) changes nothing about
    /// what is counted — the run then counts into a registry of its own,
    /// and the report carries the same final snapshot either way.
    pub metrics: Option<MetricsRegistry>,
    /// Latency-provenance configuration: when set, the runner installs
    /// one SLO-violation flight recorder per worker (exemplar capture on
    /// breach) and — with `trace` also set — the run report carries a
    /// per-class phase attribution reconstructed from the merged trace.
    /// `None` (the default) disables exemplar capture; phase *charging*
    /// is always on and costs one context-local add per site.
    pub prov: Option<preempt_prov::ProvConfig>,
}

impl DriverConfig {
    /// §6.1 defaults: 16 workers, low queue 1, high queue 4, batch 64,
    /// 1 ms arrivals at 2.4 GHz.
    pub fn paper_default(policy: Policy) -> DriverConfig {
        let n_workers = 16;
        let high_cap = 4;
        DriverConfig {
            policy,
            n_workers,
            shards: 1,
            queue_caps: vec![1, high_cap],
            batch_size: n_workers * high_cap,
            arrival_interval: 2_400_000, // 1 ms at 2.4 GHz
            duration: 2_400_000_000,     // 1 s at 2.4 GHz
            always_interrupt: false,
            robustness: RobustnessConfig::default(),
            recovery: RecoveryHooks::default(),
            trace: None,
            metrics: None,
            prov: None,
        }
    }

    pub fn levels(&self) -> u8 {
        self.queue_caps.len() as u8
    }
}

/// Counters reported by the scheduling thread(s): a view of the run's
/// final registry snapshot ([`SchedulerStats::from_snapshot`]), summed
/// over scheduler shards like every other series.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedulerStats {
    pub ticks: u64,
    pub dispatched_low: u64,
    pub dispatched_high: u64,
    /// Batch remainder abandoned at interval boundaries.
    pub dropped_high: u64,
    /// Workers skipped by starvation decision site 1.
    pub skipped_starving: u64,
    pub interrupts_sent: u64,
    /// Watchdog re-sends of unacknowledged interrupts.
    pub watchdog_resends: u64,
    /// Ticks whose batch remainder was abandoned (full queues or the
    /// no-progress retry cap).
    pub abandoned_batches: u64,
    /// Requests left stranded when the no-progress retry cap
    /// (`max_full_retries`) gave up on a tick's batch — the remainder
    /// that is then dropped at the next interval. CI asserts this stays
    /// zero for the adaptive bench configurations.
    pub retry_abandoned_high: u64,
    /// Adaptive-controller evaluation windows closed during the run.
    pub controller_evals: u64,
    /// Dispatch enqueues rejected by fault injection.
    pub dispatch_faults: u64,
    /// Interrupt sends that failed outright (no UPID / send error).
    pub delivery_errors: u64,
    /// Preemptive → cooperative notification downgrades.
    pub policy_downgrades: u64,
    /// Degraded → preemptive re-upgrades after a quiet period.
    pub policy_upgrades: u64,
    /// Workers declared dead by the supervisor (liveness lease expired).
    pub workers_dead: u64,
    /// Dead workers replaced with a fresh incarnation.
    pub workers_respawned: u64,
    /// Workers quarantined (respawn budget spent, no spawner, or the
    /// terminated incarnation never exited).
    pub workers_quarantined: u64,
    /// Orphaned transactions aborted centrally by the orphan sweep
    /// (active-transaction slots force-released).
    pub orphans_aborted: u64,
    /// Write latches force-released by the orphan sweep.
    pub orphan_latches_released: u64,
    /// Queued requests rejected when their worker was quarantined.
    pub rejected_orphaned: u64,
    /// Starved high-priority requests moved to a foreign shard's worker
    /// with a uintr kick after this shard's dispatch gave up (the
    /// cross-shard shootdown path; always 0 when `shards == 1`).
    pub shootdowns: u64,
}

impl SchedulerStats {
    pub fn from_snapshot(snap: &MetricsSnapshot) -> SchedulerStats {
        let c = |c| snap.counter(c);
        SchedulerStats {
            ticks: c(Counter::SchedTicks),
            dispatched_low: c(Counter::TxnAdmittedLow),
            dispatched_high: c(Counter::TxnAdmittedHigh),
            dropped_high: c(Counter::DroppedHigh),
            skipped_starving: c(Counter::StarvationSkips),
            interrupts_sent: c(Counter::UintrSent),
            watchdog_resends: c(Counter::WatchdogResends),
            abandoned_batches: c(Counter::AbandonedBatches),
            retry_abandoned_high: c(Counter::RetryAbandonedHigh),
            controller_evals: c(Counter::ControllerEvals),
            dispatch_faults: c(Counter::DispatchFaults),
            delivery_errors: c(Counter::DeliveryErrors),
            policy_downgrades: c(Counter::Degrades),
            policy_upgrades: c(Counter::Upgrades),
            workers_dead: c(Counter::WorkersDead),
            workers_respawned: c(Counter::WorkersRespawned),
            workers_quarantined: c(Counter::WorkersQuarantined),
            orphans_aborted: c(Counter::OrphansAborted),
            orphan_latches_released: c(Counter::OrphanLatchesReleased),
            rejected_orphaned: c(Counter::RejectedOrphaned),
            shootdowns: c(Counter::Shootdowns),
        }
    }
}

fn sleep_until_cycles(t: u64) {
    if preempt_sim::api::active() {
        preempt_sim::api::sleep_until(t);
    } else {
        loop {
            let now = now_cycles();
            if now >= t {
                return;
            }
            let remaining_ns =
                (t - now) as u128 * 1_000_000_000 / crate::clock::freq_hz() as u128;
            if remaining_ns > 200_000 {
                std::thread::sleep(std::time::Duration::from_nanos(
                    (remaining_ns / 2) as u64,
                ));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

fn charge(cycles: u64) {
    if preempt_sim::api::active() {
        preempt_sim::api::advance(cycles);
    }
}

/// Sends a user interrupt to `w` targeting priority `level`.
fn send_uintr(w: &WorkerShared, level: u8) -> bool {
    let Some(upid) = w.upid() else {
        return false;
    };
    // Bump the delivery epoch before posting: the handler acknowledges by
    // copying it, so ack ≥ this value proves this (or a later) interrupt
    // reached the worker. Release pairs with the handler's Acquire.
    w.uintr_epoch.fetch_add(1, std::sync::atomic::Ordering::Release);
    match w.wake_target() {
        Some(WakeTarget::Sim(core)) if preempt_sim::api::active() => {
            preempt_sim::SimUipiSender::new(upid, level, core).send();
            true
        }
        _ => {
            let ok = UipiSender::new(upid, level).send();
            w.wake();
            ok
        }
    }
}

/// Terminal step of the containment ladder: declare `w` dead, terminate
/// it and await its exit, sweep its engine-side orphans, and respawn a
/// fresh incarnation or quarantine the slot. Returns `true` when the
/// worker ended up quarantined (the caller must stop dispatching to it).
fn recover_worker(
    w: &Arc<WorkerShared>,
    rb: &RobustnessConfig,
    recovery: &RecoveryHooks,
    shard: &Shard,
) -> bool {
    preempt_trace::emit(preempt_trace::TraceEvent::WorkerDead {
        worker: w.id as u16,
    });
    shard.bump(Counter::WorkersDead);
    // Order the incarnation out and wait (bounded) for it to leave
    // worker_main. The orphan sweep is only sound once the dead worker
    // can never run again — its abandoned guards must never drop.
    w.terminate();
    let wait_deadline = now_cycles().saturating_add(rb.exit_wait);
    while !w.has_exited() && now_cycles() < wait_deadline {
        if preempt_sim::api::active() {
            preempt_sim::api::sleep(50_000);
        } else {
            std::thread::yield_now();
        }
    }
    if !w.has_exited() {
        // Beyond recovery: the incarnation ignored termination (stuck in
        // a loop with no preemption points). Quarantine without sweeping
        // — force-releasing under a possibly-still-running owner would
        // hand its latches to new holders it could stomp on.
        quarantine(w, shard);
        return true;
    }
    // Exit observed: force-release whatever the dead incarnation still
    // held in the storage engine.
    if let Some(sweep) = &recovery.sweep {
        let result = sweep(w.id as u64);
        preempt_trace::emit(preempt_trace::TraceEvent::OrphanSweep {
            worker: w.id as u16,
            latches: result.latches_released.min(u16::MAX as usize) as u16,
            slots: result.slots_released.min(u16::MAX as usize) as u16,
        });
        shard.bump_by(Counter::OrphanLatchesReleased, result.latches_released as u64);
        shard.bump_by(Counter::OrphansAborted, result.slots_released as u64);
    }
    // Respawn a fresh incarnation — its queued requests are implicitly
    // requeued, since the queues live in `WorkerShared` and the
    // replacement drains them — or quarantine when the budget is spent
    // or no spawner is wired.
    let budget_spent =
        w.incarnation.load(std::sync::atomic::Ordering::Acquire) >= rb.max_respawns as u64;
    match (&recovery.spawner, budget_spent) {
        (Some(spawner), false) => {
            let inc = w.reset_for_respawn();
            preempt_trace::emit(preempt_trace::TraceEvent::WorkerRespawn {
                worker: w.id as u16,
                incarnation: inc.min(u8::MAX as u64) as u8,
            });
            shard.bump(Counter::WorkersRespawned);
            spawner(w);
            false
        }
        _ => {
            quarantine(w, shard);
            true
        }
    }
}

/// Quarantines a worker slot: the caller stops dispatching to it, and
/// its queued requests are rejected (counted as orphaned) rather than
/// left stranded forever.
fn quarantine(w: &Arc<WorkerShared>, shard: &Shard) {
    shard.bump(Counter::WorkersQuarantined);
    for q in &w.queues {
        while q.pop().is_some() {
            shard.bump(Counter::RejectedOrphaned);
        }
    }
}

/// Cross-shard shootdown: moves as much of a wedged shard's high-priority
/// remainder as possible onto foreign workers' top queues, kicking each
/// target with a user interrupt so the starved work runs ahead of the
/// target's low-priority stream. The epoch bump inside [`send_uintr`] is
/// benign for the foreign shard's watchdog: the interrupt is an
/// idempotent "drain your top queue" nudge, and the target acks the
/// fresher epoch exactly as it would for its own scheduler's sends.
fn shootdown_remainder(
    cfg: &DriverConfig,
    shard_idx: usize,
    local: &[Arc<WorkerShared>],
    all_workers: &[Arc<WorkerShared>],
    pending: &mut VecDeque<Request>,
    shard: &Shard,
) {
    let level = cfg.levels() as usize - 1;
    let is_local = |id: usize| local.iter().any(|w| w.id == id);
    let now = now_cycles();
    'requests: while let Some(r) = pending.pop_front() {
        let mut r = Some(r);
        for w in all_workers {
            if is_local(w.id) || w.is_stopped() {
                continue;
            }
            // Starvation decision site 1 applies to foreign targets too:
            // a starving worker receives no additional high work.
            if cfg.policy.is_preemptive() && w.starvation.starving_live(now) {
                continue;
            }
            let req = r.take().expect("request is present until pushed");
            match w.queues[level].push(req) {
                Ok(()) => {
                    charge(DISPATCH_PUSH_COST);
                    shard.bump(Counter::Shootdowns);
                    shard.bump(Counter::TxnAdmittedHigh);
                    preempt_trace::emit(preempt_trace::TraceEvent::Shootdown {
                        from_shard: shard_idx as u16,
                        worker: w.id as u16,
                    });
                    if cfg.policy.sends_uintr() {
                        if send_uintr(w, level as u8) {
                            shard.bump(Counter::UintrSent);
                        } else {
                            // Don't strand the moved request behind a
                            // failed interrupt.
                            w.wake();
                        }
                    } else {
                        w.wake();
                    }
                    continue 'requests;
                }
                Err(back) => r = Some(back),
            }
        }
        // No foreign worker could take it: put it back and stop — the
        // rest of the remainder would hit the same full queues.
        if let Some(back) = r {
            pending.push_front(back);
        }
        return;
    }
}

/// Runs the scheduling thread until `cfg.duration` elapses, then stops
/// all workers. Call on the dedicated scheduler thread or simulated core.
///
/// This is shard 0 of a 1-shard plane — see [`scheduler_shard_main`] for
/// the sharded form. The two are trajectory-identical when
/// `cfg.shards == 1`.
pub fn scheduler_main(
    cfg: &DriverConfig,
    registry: &MetricsRegistry,
    workers: &[Arc<WorkerShared>],
    factory: &mut dyn WorkloadFactory,
) -> Option<ControllerReport> {
    scheduler_shard_main(cfg, registry, 0, workers, workers, factory)
}

/// Runs one shard of the scheduler plane until `cfg.duration` elapses,
/// then stops its **own** workers.
///
/// `workers` is this shard's contiguous slice of the worker set;
/// `all_workers` is the full set (used only by the cross-shard shootdown
/// path, which moves starved high-priority work to a foreign worker when
/// every local queue is wedged). Each shard runs its own admission,
/// dispatch, watchdog, supervision, degradation and controller loop over
/// its local slice, so fault containment and adaptation are shard-local.
/// With `shard_idx == 0` and `workers == all_workers` this is exactly
/// the single scheduling thread of the paper.
///
/// Everything it counts goes to its own shard of `registry` (the run's
/// one registry, which the workers' shards are attached to as well — the
/// adaptive controller's sensors are windowed reads of it); the return
/// value is the controller's threshold trajectory, `None` under static
/// policies.
pub fn scheduler_shard_main(
    cfg: &DriverConfig,
    registry: &MetricsRegistry,
    shard_idx: usize,
    workers: &[Arc<WorkerShared>],
    all_workers: &[Arc<WorkerShared>],
    factory: &mut dyn WorkloadFactory,
) -> Option<ControllerReport> {
    // Each shard records into its own ring (worker id u16::MAX - shard:
    // shard 0 keeps the historical scheduler id, so single-shard traces
    // stay byte-identical). The ring pointer is context-local and this
    // function can run on a long-lived root context (real-thread mode),
    // so it is uninstalled before returning.
    let sched_ring = cfg
        .trace
        .as_ref()
        .map(|s| s.register("scheduler", u16::MAX - shard_idx as u16));
    if let Some(r) = &sched_ring {
        preempt_trace::install_current(r);
    }
    // Real-thread mode: wait until all workers have published their UPIDs.
    if !preempt_sim::api::active() {
        for w in workers {
            while w.upid().is_none() {
                std::thread::yield_now();
            }
        }
    }

    // Context-local install so fault hooks firing on the scheduling
    // thread attribute to the scheduler's shard; uninstalled before
    // returning, like the trace ring above.
    let shard = registry.register_shard("scheduler", u32::MAX - shard_idx as u32);
    preempt_metrics::install_current(&shard);

    let start = now_cycles();
    let deadline = start + cfg.duration;
    // Arm every worker's live threshold cell from the policy; under the
    // adaptive policy the controller re-writes it per window. (The
    // worker also sets its own cell at startup; both write the same
    // value, so the order is immaterial.)
    if let Some(l0) = cfg.policy.starvation_threshold() {
        for w in workers {
            w.starvation.set_threshold(l0);
        }
        registry.gauge_set(Gauge::StarvationThreshold, l0);
    }
    let mut controller = cfg
        .policy
        .controller_config()
        .map(|cc| crate::controller::Controller::new(cc, start));
    // Baseline for per-window sensor deltas: the controller reads the
    // cumulative registry and differences consecutive reads, which under
    // the deterministic simulator reproduces the old drained-window
    // values exactly (sum of per-shard deltas = delta of sums).
    let mut ctl_prev_sensors = preempt_metrics::SensorTotals::zero();
    // Low-priority queues are kept topped up continuously (at most every
    // millisecond), independent of the high-priority arrival interval:
    // the paper's workload keeps workers saturated with Q2 at any
    // arrival rate (Figure 13 sweeps the interval from 50 us to 50 ms
    // and Q2 keeps running throughout).
    let low_refill = cfg.arrival_interval.min(crate::clock::freq_hz() / 1_000).max(1);
    let mut next_high_tick = start;
    let mut rr = 0usize; // round-robin cursor (persists across ticks, §4.1)
    let mut pending: VecDeque<Request> = VecDeque::new();
    let mut kick = vec![false; workers.len()];

    // Robustness state: per-worker watchdog timers and the degradation
    // window (see `RobustnessConfig`).
    let rb = cfg.robustness;
    let mut degraded = false;
    let mut dw = DegradeWindow::new(start, rb.degrade_eval_interval, rb.degrade_window);
    let mut last_failure_at = start;
    let mut wd_backoff = vec![rb.watchdog_backoff_min.max(1); workers.len()];
    let mut wd_next = vec![0u64; workers.len()];

    // Supervision state: per-worker liveness leases. `stale_since[i]` is
    // when worker i was first seen unresponsive (unacknowledged epoch
    // with top-priority work queued); the lease expires `rb.dead_after`
    // later. Quarantined slots receive no further dispatch.
    let supervising = rb.supervise && cfg.policy.sends_uintr();
    let mut stale_since: Vec<Option<u64>> = vec![None; workers.len()];
    // `calm_since[i]` is when worker i was first seen *stranded*: top
    // queue non-empty but every delivery acknowledged, so nothing would
    // ever bump the epoch again (sends ride on fresh enqueues, and a
    // full queue admits none). After a full window the supervisor sends
    // a probe interrupt to re-arm the epoch/ack lease.
    let mut calm_since: Vec<Option<u64>> = vec![None; workers.len()];
    let mut quarantined = vec![false; workers.len()];

    loop {
        let now = now_cycles();
        if now >= deadline {
            break;
        }

        // Refill low-priority queues.
        for (wi, w) in workers.iter().enumerate() {
            if quarantined[wi] {
                continue;
            }
            let mut pushed_any = false;
            while !w.queues[0].is_full() {
                match factory.make_low(now) {
                    Some(r) => {
                        debug_assert_eq!(r.priority, 0);
                        if w.queues[0].push(r).is_err() {
                            break;
                        }
                        shard.bump(Counter::TxnAdmittedLow);
                        charge(DISPATCH_PUSH_COST);
                        pushed_any = true;
                    }
                    None => break,
                }
            }
            if pushed_any {
                w.wake();
            }
        }

        if now >= next_high_tick {
            shard.bump(Counter::SchedTicks);
            charge(TICK_BASE_COST);

            // Abandon the previous batch's undelivered remainder (§6.1:
            // "until the batch is depleted or the next arrival interval
            // passes").
            shard.bump_by(Counter::DroppedHigh, pending.len() as u64);
            pending.clear();

            // Generate this tick's high-priority batch with one shared
            // timestamp (§6.1), stamping the configured deadline and
            // retry budget unless the factory set its own.
            for _ in 0..cfg.batch_size {
                match factory.make_high(now) {
                    Some(mut r) => {
                        if r.deadline.is_none() {
                            r.deadline = rb.high_deadline.map(|d| now + d);
                        }
                        r.max_retries = r.max_retries.max(rb.max_retries);
                        pending.push_back(r);
                    }
                    None => break,
                }
            }

            // Dispatch round-robin until depleted, the interval passes,
            // or the no-progress retry cap is hit (bounded busy-retry:
            // fully-stuck queues must not pin the scheduler).
            kick.iter_mut().for_each(|k| *k = false);
            let tick_end = next_high_tick + cfg.arrival_interval;
            let mut full_retries = 0u32;
            while !pending.is_empty() {
                let mut progress = false;
                for _ in 0..workers.len() {
                    if pending.is_empty() {
                        break;
                    }
                    let wi = rr % workers.len();
                    let w = &workers[wi];
                    rr += 1;
                    if quarantined[wi] {
                        continue;
                    }
                    // Starvation decision site 1 (§5): compare against
                    // the worker's *live* threshold cell — static
                    // policies arm it once, the adaptive controller
                    // re-tunes it per window.
                    if cfg.policy.is_preemptive() && w.starvation.starving_live(now_cycles()) {
                        preempt_trace::emit(preempt_trace::TraceEvent::StarvationBoost {
                            site: 1,
                        });
                        shard.bump(Counter::StarvationSkips);
                        continue;
                    }
                    let level = cfg.levels() as usize - 1; // highest level queue
                    if let Some(r) = pending.pop_front() {
                        // Fault injection: a failed enqueue (e.g. a
                        // transient allocation or queue error); the
                        // request stays pending for a later round.
                        if preempt_faults::on_dispatch() {
                            shard.bump(Counter::DispatchFaults);
                            charge(DISPATCH_PUSH_COST);
                            pending.push_front(r);
                            continue;
                        }
                        match w.queues[level].push(r) {
                            Ok(()) => {
                                shard.bump(Counter::TxnAdmittedHigh);
                                charge(DISPATCH_PUSH_COST);
                                kick[wi] = true;
                                progress = true;
                            }
                            Err(r) => pending.push_front(r),
                        }
                    }
                }
                if pending.is_empty() {
                    break;
                }
                if !progress {
                    full_retries += 1;
                    if full_retries > rb.max_full_retries {
                        // The give-up path. With a sharded plane, first
                        // try to re-home the starved remainder
                        // cross-shard: every local top queue is wedged,
                        // so park each request on a foreign worker and
                        // kick it with a user interrupt (shootdown).
                        if cfg.shards > 1 {
                            shootdown_remainder(
                                cfg,
                                shard_idx,
                                workers,
                                all_workers,
                                &mut pending,
                                &shard,
                            );
                        }
                        // Whatever could not be re-homed is dropped at
                        // the next interval.
                        shard.bump_by(Counter::RetryAbandonedHigh, pending.len() as u64);
                        break;
                    }
                    if now_cycles() + FULL_RETRY_PAUSE >= tick_end {
                        break;
                    }
                    sleep_until_cycles(now_cycles() + FULL_RETRY_PAUSE);
                } else {
                    full_retries = 0;
                }
            }
            if !pending.is_empty() {
                // Remainder is dropped at the next tick (dropped_high).
                shard.bump(Counter::AbandonedBatches);
            }

            // Notify workers: user interrupts under the preemptive policy
            // (one per worker per batch — batched on-demand preemption),
            // plain wake-ups otherwise or while degraded.
            for (i, w) in workers.iter().enumerate() {
                if quarantined[i] {
                    continue;
                }
                let should_interrupt =
                    cfg.policy.sends_uintr() && !degraded && (kick[i] || cfg.always_interrupt);
                if should_interrupt {
                    let level = cfg.levels() - 1;
                    if send_uintr(w, level) {
                        shard.bump(Counter::UintrSent);
                        dw.send_ok();
                        wd_backoff[i] = rb.watchdog_backoff_min.max(1);
                        wd_next[i] = now_cycles() + wd_backoff[i];
                    } else {
                        shard.bump(Counter::UintrSendFailed);
                        shard.bump(Counter::DeliveryErrors);
                        dw.send_failed();
                        last_failure_at = now_cycles();
                        // Fall back to a plain wake so the work is not
                        // stranded behind the failed interrupt.
                        w.wake();
                    }
                } else if kick[i] {
                    w.wake();
                }
            }

            next_high_tick += cfg.arrival_interval;
        }

        // Delivery watchdog: an unacknowledged epoch with high-priority
        // work still queued means the interrupt was lost in flight —
        // re-send it, backing off exponentially per worker.
        let mut wd_earliest = u64::MAX;
        if cfg.policy.sends_uintr() && rb.watchdog && !degraded {
            let top = cfg.levels() as usize - 1;
            let wnow = now_cycles();
            for (i, w) in workers.iter().enumerate() {
                if quarantined[i] {
                    continue;
                }
                let epoch = w.uintr_epoch.load(std::sync::atomic::Ordering::Acquire);
                let ack = w.uintr_ack.load(std::sync::atomic::Ordering::Acquire);
                if epoch > ack && !w.queues[top].is_empty() {
                    if wnow >= wd_next[i] {
                        preempt_trace::emit(preempt_trace::TraceEvent::WatchdogResend {
                            target: w.id as u16,
                        });
                        if send_uintr(w, top as u8) {
                            shard.bump(Counter::UintrSent);
                        }
                        shard.bump(Counter::WatchdogResends);
                        dw.send_failed();
                        last_failure_at = wnow;
                        wd_backoff[i] =
                            wd_backoff[i].saturating_mul(2).min(rb.watchdog_backoff_max);
                        wd_next[i] = wnow + wd_backoff[i];
                    }
                    wd_earliest = wd_earliest.min(wd_next[i]);
                } else {
                    wd_backoff[i] = rb.watchdog_backoff_min.max(1);
                }
            }
        }

        // Worker supervision: the terminal rung of the containment
        // ladder. A worker whose delivery epoch stays unacknowledged
        // while top-priority work is queued is merely *slow* until
        // `dead_after` cycles pass — the watchdog keeps re-sending and
        // degradation may kick in below. Once the lease expires the
        // supervisor declares it dead: terminate + await exit, sweep
        // engine-side orphans, respawn or quarantine. Healthy runs take
        // the `stale_since = None` path only — zero extra events, zero
        // virtual-time charges — so supervision cannot perturb
        // fault-free trajectories.
        let mut sup_earliest = u64::MAX;
        if supervising {
            let top = cfg.levels() as usize - 1;
            let snow = now_cycles();
            for (i, w) in workers.iter().enumerate() {
                if quarantined[i] {
                    continue;
                }
                let epoch = w.uintr_epoch.load(std::sync::atomic::Ordering::Acquire);
                let ack = w.uintr_ack.load(std::sync::atomic::Ordering::Acquire);
                if w.queues[top].is_empty() {
                    stale_since[i] = None;
                    calm_since[i] = None;
                    continue;
                }
                if epoch == ack {
                    // Stranded: top-priority work queued, nothing
                    // outstanding to ack. Normal while a worker drains —
                    // but a worker that never drains (say a respawned
                    // incarnation wedged in low work, its top queue
                    // already full so dispatch never enqueues-and-sends)
                    // would keep the lease disarmed forever. After one
                    // full window, probe it: the send bumps the epoch, a
                    // healthy worker acks and drains, a wedged one now
                    // trips the ordinary lease below.
                    stale_since[i] = None;
                    let since = *calm_since[i].get_or_insert(snow);
                    if snow.saturating_sub(since) >= rb.dead_after {
                        calm_since[i] = None;
                        if send_uintr(w, top as u8) {
                            shard.bump(Counter::UintrSent);
                        }
                    } else {
                        sup_earliest = sup_earliest.min(since + rb.dead_after);
                    }
                    continue;
                }
                calm_since[i] = None;
                let since = *stale_since[i].get_or_insert(snow);
                if snow.saturating_sub(since) < rb.dead_after {
                    sup_earliest = sup_earliest.min(since + rb.dead_after);
                    continue;
                }
                // Lease expired.
                stale_since[i] = None;
                wd_backoff[i] = rb.watchdog_backoff_min.max(1);
                wd_next[i] = 0;
                quarantined[i] = recover_worker(w, &rb, &cfg.recovery, &shard);
            }
        }

        // Graceful degradation: too many failures in the *rolling*
        // window → stop interrupting and lean on wakes + worker-side
        // cooperative checks; a failure-free quiet period re-arms
        // interrupts and forgets the window's history.
        let dnow = now_cycles();
        if !degraded {
            if let Some(rate_ppm) = dw.evaluate(dnow) {
                if rate_ppm >= rb.degrade_threshold_ppm as u64 {
                    degraded = true;
                    preempt_trace::emit(preempt_trace::TraceEvent::Degrade { on: true });
                    shard.bump(Counter::Degrades);
                    registry.gauge_set(Gauge::DeliveryDegraded, 1.0);
                    for w in workers {
                        w.degraded.store(true, std::sync::atomic::Ordering::Release);
                    }
                }
            }
        } else if dnow.saturating_sub(last_failure_at) >= rb.upgrade_quiet {
            degraded = false;
            preempt_trace::emit(preempt_trace::TraceEvent::Degrade { on: false });
            shard.bump(Counter::Upgrades);
            registry.gauge_set(Gauge::DeliveryDegraded, 0.0);
            dw.reset(dnow);
            // Restart the watchdog clocks too: a stale pre-degradation
            // wd_next would fire (and count a "failure") the instant
            // interrupts re-arm, flapping straight back to degraded.
            for i in 0..workers.len() {
                wd_backoff[i] = rb.watchdog_backoff_min.max(1);
                wd_next[i] = dnow + wd_backoff[i];
            }
            for w in workers {
                w.degraded.store(false, std::sync::atomic::Ordering::Release);
            }
        }

        // Adaptive starvation-threshold controller: at each virtual-time
        // window boundary, read the cumulative sensor plane from the
        // metrics registry, difference it against the previous read, run
        // the AIMD step, and publish the new threshold to every worker's
        // live cell. Deterministic: driven purely by virtual time and
        // integer sensors.
        let mut ctl_earliest = u64::MAX;
        if let Some(ctl) = controller.as_mut() {
            let cnow = now_cycles();
            if cnow >= ctl.next_eval() {
                // Sharded plane: each shard's controller reads only its
                // own workers' (and its own scheduler shard's) sensors,
                // so every shard adapts to its local load. The
                // single-shard path keeps the unfiltered read and is
                // trajectory-identical to the pre-sharding scheduler.
                let totals = if cfg.shards > 1 {
                    let own = u32::MAX - shard_idx as u32;
                    let local_ids: Vec<u32> =
                        workers.iter().map(|w| w.id as u32).collect();
                    registry.sensor_totals_where(|label, index| match label {
                        "scheduler" => index == own,
                        "worker" => local_ids.contains(&index),
                        _ => false,
                    })
                } else {
                    registry.sensor_totals()
                };
                let win = totals.delta_since(&ctl_prev_sensors);
                let snapshot = crate::controller::SensorSnapshot {
                    high_completed: win.high_completed,
                    high_p99: win.high_p99(),
                    high_max: win.high_max(),
                    low_completed: win.low_completed,
                    aborts: win.aborts,
                    degraded,
                    watchdog_resends: win.watchdog_resends,
                    skipped_starving: win.skipped_starving,
                    dropped_high: win.dropped_high,
                };
                ctl_prev_sensors = totals;
                let window = ctl.window_index();
                let thr = ctl.evaluate(cnow, snapshot);
                for w in workers {
                    w.starvation.set_threshold(thr);
                }
                let decision = ctl
                    .last_decision()
                    .map(crate::controller::Decision::code)
                    .unwrap_or(0);
                preempt_trace::emit(preempt_trace::TraceEvent::ControllerDecision {
                    window: window as u16,
                    threshold_milli: (thr * 1000.0).round() as u32,
                    decision,
                });
                registry.gauge_set(Gauge::StarvationThreshold, thr);
                registry.gauge_set(Gauge::ViolationFloor, ctl.violation_floor());
                shard.bump(Counter::ControllerEvals);
                shard.bump(match ctl.last_decision() {
                    Some(crate::controller::Decision::Raise) => Counter::ControllerRaises,
                    Some(crate::controller::Decision::Lower) => Counter::ControllerLowers,
                    _ => Counter::ControllerHolds,
                });
            }
            ctl_earliest = ctl.next_eval();
        }

        // Sleep until the earliest of the next low refill, the next
        // high-priority arrival, a pending watchdog re-send, a liveness
        // lease expiry, or the next controller window boundary.
        let wake = next_high_tick
            .min(now_cycles() + low_refill)
            .min(deadline)
            .min(wd_earliest)
            .min(sup_earliest)
            .min(ctl_earliest);
        if wake > now_cycles() {
            sleep_until_cycles(wake);
        }
    }

    // Shut down.
    shard.bump_by(Counter::DroppedHigh, pending.len() as u64);
    for w in workers {
        w.stop();
    }
    if sched_ring.is_some() {
        preempt_trace::clear_current();
    }
    preempt_metrics::clear_current();
    controller.map(crate::controller::Controller::into_report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WorkOutcome;

    struct CountingFactory {
        low_left: usize,
        high_left: usize,
    }
    impl WorkloadFactory for CountingFactory {
        fn make_low(&mut self, now: u64) -> Option<Request> {
            if self.low_left == 0 {
                return None;
            }
            self.low_left -= 1;
            Some(Request::new("low", 0, now, || {
                preempt_context::runtime::preempt_point(10_000);
                WorkOutcome::default()
            }))
        }
        fn make_high(&mut self, now: u64) -> Option<Request> {
            if self.high_left == 0 {
                return None;
            }
            self.high_left -= 1;
            Some(Request::new("high", 1, now, || {
                preempt_context::runtime::preempt_point(1_000);
                WorkOutcome::default()
            }))
        }
    }

    #[test]
    fn degrade_window_rolls_and_decays() {
        // 1 ms windows, trust a window once it has ≥ 8 sends.
        let mut dw = DegradeWindow::new(0, 2_400_000, 8);

        // Early failure spike: 8 sends, all failed.
        for _ in 0..8 {
            dw.send_failed();
        }
        assert_eq!(dw.evaluate(2_400_000), Some(1_000_000));

        // The evaluation reset the counters: a long healthy stretch
        // afterwards reads 0 ppm — the old spike does NOT linger.
        for _ in 0..20 {
            dw.send_ok();
        }
        assert_eq!(dw.evaluate(4_800_000), Some(0));

        // A sub-threshold burst (3 failures < min_sends) is never
        // evaluated; it decays across empty windows instead of waiting
        // to be paired with much-later sends.
        for _ in 0..3 {
            dw.send_failed();
        }
        assert_eq!(dw.evaluate(7_200_000), None);
        assert_eq!(dw.evaluate(9_600_000), None);
        assert_eq!(dw.evaluate(12_000_000), None);
        // Fully decayed: a healthy window evaluates clean.
        for _ in 0..8 {
            dw.send_ok();
        }
        assert_eq!(dw.evaluate(14_400_000), Some(0));

        // Windows close on elapsed time, not send counts.
        for _ in 0..100 {
            dw.send_ok();
        }
        assert_eq!(dw.evaluate(14_400_001), None, "window not elapsed yet");

        // reset() forgets everything.
        dw.reset(20_000_000);
        assert_eq!(dw.evaluate(30_000_000), None, "no sends since reset");
    }

    #[test]
    fn paper_defaults() {
        let cfg = DriverConfig::paper_default(Policy::Wait);
        assert_eq!(cfg.n_workers, 16);
        assert_eq!(cfg.queue_caps, vec![1, 4]);
        assert_eq!(cfg.batch_size, 64);
        assert_eq!(cfg.arrival_interval, 2_400_000);
        assert_eq!(cfg.levels(), 2);
    }

    /// Full driver loop in the simulator: 2 workers, a finite workload.
    #[test]
    fn driver_dispatches_and_stops() {
        use crate::worker::{worker_main, WakeTarget};
        use preempt_sim::{SimConfig, Simulation};

        let sim = Simulation::new(SimConfig::default());
        let cfg = DriverConfig {
            n_workers: 2,
            batch_size: 8,
            duration: 24_000_000, // 10 ms
            ..DriverConfig::paper_default(Policy::preemptdb())
        };
        let workers: Vec<_> = (0..cfg.n_workers)
            .map(|i| WorkerShared::new(i, &cfg.queue_caps))
            .collect();
        for w in &workers {
            let ws = w.clone();
            let pol = cfg.policy;
            let core = sim.spawn_core("worker", 256 * 1024, move || worker_main(ws, pol));
            w.set_wake_target(WakeTarget::Sim(core));
        }
        let registry = MetricsRegistry::new(preempt_metrics::MetricsConfig::default());
        for w in &workers {
            registry.attach(&w.metrics_shard);
        }
        let (ws, cfg2, reg) = (workers.clone(), cfg.clone(), registry.clone());
        sim.spawn_core("sched", 256 * 1024, move || {
            let mut f = CountingFactory {
                low_left: 10,
                high_left: 40,
            };
            scheduler_main(&cfg2, &reg, &ws, &mut f);
        });
        sim.run();

        let snap = registry.snapshot();
        let st = SchedulerStats::from_snapshot(&snap);
        assert!(st.ticks >= 9, "ticks={}", st.ticks);
        assert_eq!(st.dispatched_low, 10);
        assert_eq!(st.dispatched_high + st.dropped_high, 40);
        assert!(st.interrupts_sent > 0);
        assert_eq!(
            crate::Metrics::from_snapshot(&snap).total_completed(),
            10 + st.dispatched_high,
            "every dispatched request completed"
        );
    }
}
