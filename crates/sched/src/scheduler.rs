//! The scheduling thread (paper §4.1, and the §6.1 benchmark driver).
//!
//! PreemptDB decouples workload generation from execution: a dedicated
//! scheduling thread generates transaction requests at fixed **arrival
//! intervals**, refills each worker's low-priority queue, pushes a batch
//! of same-timestamp high-priority transactions into the workers'
//! lock-free queues round-robin, and — under the preemptive policy —
//! sends one user interrupt per worker per batch (*batched on-demand
//! preemption*, §5). Undelivered remainder of a batch is abandoned when
//! the next arrival interval passes (§6.1). The dispatch itself, and
//! everything behind it, is the [`Plane`]'s.
//!
//! Starvation decision site 1 (§5) also applies here, in the plane's
//! placement: a worker whose starvation level exceeds the threshold
//! receives no additional high-priority transactions and no user
//! interrupt this round.

use std::collections::VecDeque;
use std::sync::Arc;

use preempt_metrics::{Counter, MetricsRegistry, MetricsSnapshot};

use crate::clock::{charge, now_cycles};
use crate::controller::ControllerReport;
use crate::plane::{Plane, DISPATCH_PUSH_COST};
use crate::policy::Policy;
use crate::request::Request;
use crate::worker::WorkerShared;

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
    mut factory: Box<dyn WorkloadFactory>,
    shards: usize,
) -> Vec<Box<dyn WorkloadFactory>> {
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

/// Robustness knobs: the delivery watchdog, per-request deadlines and
/// retries and graceful degradation, all run by the [`Plane`]
/// (DESIGN.md §6, §11, §13).
///
/// User interrupts are fire-and-forget: a send can be lost (masked
/// receiver, dead thread, injected fault) and nothing tells the sender.
/// The plane therefore tracks a per-worker delivery **epoch** it bumps
/// before each send; the worker's handler acknowledges by copying the
/// epoch. An unacknowledged epoch with high-priority work still queued
/// means a lost wakeup, and the watchdog re-sends with exponential
/// backoff. Sustained failures downgrade notification to plain wakes +
/// worker-side cooperative checks; a quiet period upgrades back.
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
    /// under-sampled windows decay instead of evaluating (see the
    /// plane's `DegradeWindow`).
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
        }
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
    /// admission, dispatch, watchdog and controller; same-shard workers
    /// steal the oldest entry of each other's low queues, and a shard
    /// whose queues are wedged moves starved high-priority work
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
    /// Fault-tolerance knobs (watchdog, deadlines, degradation).
    pub robustness: RobustnessConfig,
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

/// Drives one shard's [`Plane`] until `cfg.duration` elapses, then stops
/// its own workers: the §6.1 benchmark driver, on the shard's scheduler
/// thread or simulated core. `workers` is this shard's contiguous slice
/// of `all_workers` (shootdown targets). Returns the controller's
/// threshold trajectory, `None` under static policies.
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
    // Fault hooks firing here count into the plane's shard.
    let shard = registry.register_shard("scheduler", u32::MAX - shard_idx as u32);
    preempt_metrics::install_current(&shard);

    let plane =
        Plane::new(cfg, shard_idx, workers, all_workers, shard.clone(), Some(registry.clone()));
    let start = now_cycles();
    let deadline = start + cfg.duration;
    // Low-priority queues are kept topped up continuously (at most every
    // millisecond), independent of the high-priority arrival interval:
    // the paper's workload keeps workers saturated with Q2 at any
    // arrival rate (Figure 13 sweeps the interval from 50 us to 50 ms
    // and Q2 keeps running throughout).
    let low_refill = cfg.arrival_interval.min(crate::clock::freq_hz() / 1_000).max(1);
    let top = cfg.levels() - 1;
    let rb = cfg.robustness;
    let mut next_high_tick = start;
    let mut pending: VecDeque<Request> = VecDeque::new();
    let mut kick = vec![false; workers.len()];

    loop {
        let now = now_cycles();
        if now >= deadline {
            break;
        }

        // Refill low-priority queues.
        for w in workers {
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

            // Place the batch, one round of `workers.len()` tries at a
            // time, until it is depleted, the interval passes, or the
            // no-progress retry cap is hit.
            kick.iter_mut().for_each(|k| *k = false);
            let tick_end = next_high_tick + cfg.arrival_interval;
            let mut full_retries = 0u32;
            while !pending.is_empty() {
                let mut progress = false;
                let mut slots = workers.len();
                while let Some(r) = pending.pop_front() {
                    match plane.place(r, top, &mut slots) {
                        Ok(wi) => {
                            kick[wi] = true;
                            progress = true;
                        }
                        Err(r) => {
                            pending.push_front(r);
                            break;
                        }
                    }
                }
                if pending.is_empty() {
                    break;
                }
                if !progress {
                    full_retries += 1;
                    if full_retries > rb.max_full_retries {
                        // Every local top queue is wedged: a sharded
                        // plane re-homes what it can cross-shard.
                        if cfg.shards > 1 {
                            plane.shootdown(&mut pending);
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

            // Notify workers: one user interrupt per worker per batch
            // under the preemptive policy (batched on-demand preemption),
            // plain wake-ups otherwise or while degraded.
            let sent = now_cycles();
            for (wi, &kicked) in kick.iter().enumerate() {
                plane.notify(wi, top, kicked, sent);
            }

            next_high_tick += cfg.arrival_interval;
        }

        // Sleep until the next low refill, high arrival, or whatever
        // housekeeping has due.
        let due = plane.housekeep();
        let wake = next_high_tick
            .min(now_cycles() + low_refill)
            .min(deadline)
            .min(due);
        if wake > now_cycles() {
            sleep_until_cycles(wake);
        }
    }

    // Shut down.
    shard.bump_by(Counter::DroppedHigh, pending.len() as u64);
    let report = plane.stop();
    if sched_ring.is_some() {
        preempt_trace::clear_current();
    }
    preempt_metrics::clear_current();
    report
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
            scheduler_shard_main(&cfg2, &reg, 0, &ws, &ws, &mut f);
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
