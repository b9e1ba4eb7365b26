//! Run orchestration: stand up workers + scheduler on the virtual-time
//! simulator (the default for experiments) or on real OS threads, run a
//! workload to completion, and collect a [`RunReport`].

use std::sync::Arc;

use parking_lot::Mutex;
use preempt_sim::{SimConfig, Simulation};

use crate::controller::ControllerReport;
use crate::metrics::Metrics;
use crate::scheduler::{
    scheduler_main, scheduler_shard_main, split_factory, DriverConfig, SchedRun, SchedulerStats,
    WorkloadFactory,
};
use crate::worker::{worker_main, WakeTarget, WorkerShared};

/// Worker main-context stack size (runs full transaction logic).
const WORKER_STACK: usize = 512 * 1024;
/// Scheduler stack size.
const SCHED_STACK: usize = 256 * 1024;

/// Where to run.
#[derive(Clone, Debug)]
pub enum Runtime {
    /// Deterministic virtual-time simulation (the experiments' substrate).
    Simulated(SimConfig),
    /// Real OS threads (functional tests, examples, latency microbench).
    Threads,
}

/// Aggregated worker-side counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerTotals {
    pub preemptions: u64,
    pub coop_yields: u64,
    pub high_on_regular: u64,
    pub uintr_delivered: u64,
    pub uintr_deferred: u64,
    /// Cycles spent executing requests, summed over workers.
    pub busy_cycles: u64,
    /// Transactions that panicked and were contained by the worker's
    /// panic firewall (turned into typed aborts), summed over workers.
    pub panics: u64,
    /// Requests stolen from same-shard siblings' queue tails, summed
    /// over workers (sharded plane only; 0 when `shards == 1`).
    pub steals: u64,
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub policy_label: String,
    pub metrics: Metrics,
    pub scheduler: SchedulerStats,
    /// Adaptive-controller trajectory and final threshold, when the run
    /// used [`crate::Policy::PreemptiveAdaptive`]; `None` otherwise.
    pub controller: Option<ControllerReport>,
    pub workers: WorkerTotals,
    /// Configured duration, cycles.
    pub duration_cycles: u64,
    /// Cycles per second of the run's time base.
    pub freq_hz: u64,
    /// Injected-fault statistics, when the run executed under a fault
    /// plan ([`SimConfig::faults`]); `None` otherwise.
    pub faults: Option<preempt_faults::FaultStats>,
    /// The deterministic fault-decision trace (one line per injection
    /// decision) — byte-identical across same-seed runs.
    pub fault_trace: Option<String>,
    /// The merged event trace, when the run carried a
    /// [`preempt_trace::TraceSession`] ([`DriverConfig::trace`]).
    pub trace: Option<preempt_trace::MergedTrace>,
    /// Per-class phase attribution reconstructed from the merged trace
    /// (`None` without a trace session): where every committed
    /// transaction's latency went, phase by phase.
    pub attribution: Option<preempt_prov::AttributionReport>,
    /// SLO-breach exemplars from every worker's flight recorder, worst
    /// overage first (empty unless [`DriverConfig::prov`] was set).
    pub exemplars: Vec<preempt_prov::Exemplar>,
    /// Exemplar captures lost to recorder contention, summed over
    /// workers (should be zero; see [`preempt_prov::FlightRecorder`]).
    pub flight_missed: u64,
    /// Preemption-latency breakdown (send→notice, notice→handler,
    /// handler→switch) derived from the trace; reported next to the
    /// histogram-based latencies.
    pub preempt_breakdown: Option<preempt_trace::PreemptBreakdown>,
    /// Final crash-consistent snapshot of the run's metrics registry,
    /// when the run carried one ([`DriverConfig::metrics`], or the
    /// scheduler's fallback registry under an adaptive policy).
    pub metrics_snapshot: Option<preempt_metrics::MetricsSnapshot>,
    /// Captured messages of every transaction panic the firewall
    /// contained, in per-worker order ("kind: payload").
    pub panic_messages: Vec<String>,
    /// Contained worker-core deaths observed by the simulator (a worker
    /// whose *main context* panicked past the firewall — e.g. a poisoned
    /// sibling context); empty on the thread runtime.
    pub core_failures: Vec<preempt_sim::CoreFailure>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_map();
        for (k, m) in self.kinds() {
            d.entry(&k, &m.completed);
        }
        d.finish()
    }
}

impl RunReport {
    fn seconds(&self) -> f64 {
        if self.freq_hz == 0 {
            return 0.0;
        }
        self.duration_cycles as f64 / self.freq_hz as f64
    }

    /// Committed transactions per second for `kind` (0 if absent, or if
    /// the report carries no time base).
    pub fn tps(&self, kind: &str) -> f64 {
        let s = self.seconds();
        if s == 0.0 {
            return 0.0;
        }
        self.metrics
            .kind(kind)
            .map(|m| m.completed as f64 / s)
            .unwrap_or(0.0)
    }

    /// Total transactions per second across kinds.
    pub fn total_tps(&self) -> f64 {
        let s = self.seconds();
        if s == 0.0 {
            return 0.0;
        }
        self.metrics.total_completed() as f64 / s
    }

    fn to_us(&self, cycles: u64) -> f64 {
        if self.freq_hz == 0 {
            return 0.0;
        }
        cycles as f64 * 1e6 / self.freq_hz as f64
    }

    /// End-to-end latency percentile in microseconds.
    pub fn latency_us(&self, kind: &str, pct: f64) -> f64 {
        self.metrics
            .kind(kind)
            .map(|m| self.to_us(m.latency.percentile(pct)))
            .unwrap_or(0.0)
    }

    /// Scheduling-latency percentile in microseconds (Figure 1).
    pub fn sched_latency_us(&self, kind: &str, pct: f64) -> f64 {
        self.metrics
            .kind(kind)
            .map(|m| self.to_us(m.sched_latency.percentile(pct)))
            .unwrap_or(0.0)
    }

    /// Geometric-mean end-to-end latency in microseconds (Figure 13).
    pub fn geomean_latency_us(&self, kind: &str) -> f64 {
        if self.freq_hz == 0 {
            return 0.0;
        }
        self.metrics
            .kind(kind)
            .map(|m| m.latency.geomean() * 1e6 / self.freq_hz as f64)
            .unwrap_or(0.0)
    }

    /// Completions of `kind`.
    pub fn completed(&self, kind: &str) -> u64 {
        self.metrics.kind(kind).map(|m| m.completed).unwrap_or(0)
    }

    /// Mean worker utilization over the run: request-execution cycles
    /// divided by total worker-core cycles. (>1.0 is possible only
    /// through measurement skew at run edges.)
    pub fn utilization(&self, n_workers: usize) -> f64 {
        if self.duration_cycles == 0 || n_workers == 0 {
            return 0.0;
        }
        self.workers.busy_cycles as f64 / (self.duration_cycles as f64 * n_workers as f64)
    }
}

/// Runs `factory`'s workload under `cfg` on the chosen runtime.
pub fn run(runtime: Runtime, cfg: DriverConfig, factory: Box<dyn WorkloadFactory>) -> RunReport {
    match runtime {
        Runtime::Simulated(sim_cfg) => run_simulated(sim_cfg, cfg, factory),
        Runtime::Threads => run_threads(cfg, factory),
    }
}

fn collect(
    cfg: &DriverConfig,
    workers: &[Arc<WorkerShared>],
    sched: SchedRun,
    freq_hz: u64,
) -> RunReport {
    use std::sync::atomic::Ordering;
    let mut metrics = Metrics::new();
    let mut totals = WorkerTotals::default();
    let mut panic_messages = Vec::new();
    for w in workers {
        metrics.merge(&w.metrics.lock());
        totals.preemptions += w.preemptions.load(Ordering::Relaxed);
        totals.coop_yields += w.coop_yields.load(Ordering::Relaxed);
        totals.high_on_regular += w.high_on_regular.load(Ordering::Relaxed);
        totals.uintr_delivered += w.uintr_delivered.load(Ordering::Relaxed);
        totals.uintr_deferred += w.uintr_deferred.load(Ordering::Relaxed);
        totals.busy_cycles += w.busy_cycles.load(Ordering::Relaxed);
        totals.panics += w.worker_panics.load(Ordering::Relaxed);
        totals.steals += w.steals.load(Ordering::Relaxed);
        panic_messages.extend(w.panics.lock().iter().cloned());
    }
    let trace = cfg.trace.as_ref().map(|s| s.merge());
    let preempt_breakdown = trace.as_ref().map(|t| t.breakdown());
    let attribution = trace.as_ref().map(preempt_prov::reconstruct);
    // Trace-ring loss lands in the registry at collect time (the rings
    // only know their overwrite counts once merged), through a dedicated
    // collector shard so the snapshot below carries it.
    if let (Some(t), Some(reg)) = (&trace, sched.registry.as_ref()) {
        if t.dropped > 0 {
            reg.register_shard("collector", u32::MAX)
                .bump_by(preempt_metrics::Counter::TraceDropped, t.dropped);
        }
    }
    let mut exemplars: Vec<preempt_prov::Exemplar> = Vec::new();
    let mut flight_missed = 0;
    for w in workers {
        if let Some(fr) = w.flight.get() {
            exemplars.extend(fr.snapshot());
            flight_missed += fr.missed();
        }
    }
    exemplars.sort_by_key(|e| (std::cmp::Reverse(e.overage()), e.req_id));
    let metrics_snapshot = sched.registry.as_ref().map(|r| {
        r.refresh_slo_gauges(None);
        r.snapshot()
    });
    let report = RunReport {
        policy_label: cfg.policy.label(),
        metrics,
        scheduler: sched.stats,
        controller: sched.controller,
        workers: totals,
        duration_cycles: cfg.duration,
        freq_hz,
        faults: None,
        fault_trace: None,
        trace,
        attribution,
        exemplars,
        flight_missed,
        preempt_breakdown,
        metrics_snapshot,
        panic_messages,
        core_failures: Vec::new(),
    };
    debug_assert_eq!(
        cross_check_registry(&report),
        Ok(()),
        "legacy counters and registry snapshot diverged"
    );
    report
}

/// Cross-checks the legacy per-run accounting ([`Metrics`],
/// [`SchedulerStats`], [`WorkerTotals`]) against the registry snapshot:
/// both planes observe the same events at the same sites, so every
/// shared series must agree exactly. `Ok(())` when the report carries no
/// snapshot. Run in debug builds by `collect`; invariant tests and
/// `metrics_dump --check` call it directly in release.
pub fn cross_check_registry(report: &RunReport) -> Result<(), String> {
    use preempt_metrics::Counter;
    let Some(snap) = &report.metrics_snapshot else {
        return Ok(());
    };
    let err = |what: &str, legacy: u64, reg: u64| -> Result<(), String> {
        if legacy == reg {
            Ok(())
        } else {
            Err(format!("{what}: legacy={legacy} registry={reg}"))
        }
    };
    // Transaction plane: per-kind counters and identical bucket math.
    for (kind, m) in report.metrics.kinds() {
        let k = snap
            .kind(kind)
            .ok_or_else(|| format!("kind {kind:?} missing from registry snapshot"))?;
        err(&format!("{kind}.completed"), m.completed, k.completed)?;
        err(&format!("{kind}.retries"), m.retries, k.retries)?;
        err(
            &format!("{kind}.deadline_aborted"),
            m.deadline_aborted,
            k.deadline_aborted,
        )?;
        err(&format!("{kind}.failed"), m.failed, k.failed)?;
        for p in [50.0, 99.0, 100.0] {
            err(
                &format!("{kind}.latency.p{p}"),
                m.latency.percentile(p),
                k.latency.percentile(p),
            )?;
            err(
                &format!("{kind}.sched_latency.p{p}"),
                m.sched_latency.percentile(p),
                k.sched_latency.percentile(p),
            )?;
        }
        err(&format!("{kind}.latency.count"), m.latency.count(), k.latency.count())?;
    }
    err(
        "total_completed",
        report.metrics.total_completed(),
        snap.counter(Counter::TxnCompletedHigh) + snap.counter(Counter::TxnCompletedLow),
    )?;
    err(
        "total_aborted",
        report.metrics.total_deadline_aborted() + report.metrics.total_failed(),
        snap.counter(Counter::TxnAborted),
    )?;
    // Scheduler plane: every stats field emitted beside a counter.
    let s = &report.scheduler;
    err("dispatched_high", s.dispatched_high, snap.counter(Counter::TxnAdmittedHigh))?;
    err("dispatched_low", s.dispatched_low, snap.counter(Counter::TxnAdmittedLow))?;
    err("dropped_high", s.dropped_high, snap.counter(Counter::DroppedHigh))?;
    err(
        "skipped_starving",
        s.skipped_starving,
        snap.counter(Counter::StarvationSkips),
    )?;
    err("interrupts_sent", s.interrupts_sent, snap.counter(Counter::UintrSent))?;
    err(
        "watchdog_resends",
        s.watchdog_resends,
        snap.counter(Counter::WatchdogResends),
    )?;
    err(
        "controller_evals",
        s.controller_evals,
        snap.counter(Counter::ControllerEvals),
    )?;
    err("dispatch_faults", s.dispatch_faults, snap.counter(Counter::DispatchFaults))?;
    err(
        "delivery_errors",
        s.delivery_errors,
        snap.counter(Counter::DeliveryErrors),
    )?;
    err("policy_downgrades", s.policy_downgrades, snap.counter(Counter::Degrades))?;
    err("policy_upgrades", s.policy_upgrades, snap.counter(Counter::Upgrades))?;
    // Worker plane: delivery counts recorded by the uintr receiver.
    err(
        "uintr_delivered",
        report.workers.uintr_delivered,
        snap.counter(Counter::UintrDelivered),
    )?;
    err(
        "uintr_deferred",
        report.workers.uintr_deferred,
        snap.counter(Counter::UintrDeferred),
    )?;
    // Containment plane: the panic firewall and the supervisor's
    // escalation ladder emit to both planes at the same sites. Contained
    // panics are deliberately *not* transaction aborts, so the
    // `total_aborted` identity above also proves they are never
    // double-counted into the abort series.
    err(
        "worker_panics",
        report.workers.panics,
        snap.counter(Counter::WorkerPanics),
    )?;
    err(
        "worker_panics(per-kind)",
        report.metrics.total_panicked(),
        snap.counter(Counter::WorkerPanics),
    )?;
    err(
        "worker_panics(messages)",
        report.panic_messages.len() as u64,
        snap.counter(Counter::WorkerPanics),
    )?;
    err("workers_dead", s.workers_dead, snap.counter(Counter::WorkersDead))?;
    err(
        "workers_respawned",
        s.workers_respawned,
        snap.counter(Counter::WorkersRespawned),
    )?;
    err(
        "workers_quarantined",
        s.workers_quarantined,
        snap.counter(Counter::WorkersQuarantined),
    )?;
    err(
        "orphans_aborted",
        s.orphans_aborted,
        snap.counter(Counter::OrphansAborted),
    )?;
    // Sharded plane: steals are recorded by the thief worker, shootdowns
    // by the wedged scheduler shard; both planes see the same events.
    err("steals", report.workers.steals, snap.counter(Counter::Steals))?;
    err("shootdowns", s.shootdowns, snap.counter(Counter::Shootdowns))?;
    // Provenance plane: ring loss is folded into the registry at collect
    // time, so a report carrying both a trace and a snapshot must agree.
    if let Some(t) = &report.trace {
        err("trace_dropped", t.dropped, snap.counter(Counter::TraceDropped))?;
    }
    Ok(())
}

/// Contiguous worker id ranges for `shards` scheduler shards (the first
/// `n_workers % shards` shards get one extra worker). `shards` is
/// clamped to `[1, n_workers]`.
fn shard_ranges(n_workers: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.clamp(1, n_workers.max(1));
    let base = n_workers / shards;
    let extra = n_workers % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Wires each worker's same-shard steal peers, pre-rotated to start just
/// after the worker's own id. Called only when the plane is sharded —
/// an unset peer list disables stealing, keeping single-shard runs
/// byte-identical to the pre-sharding scheduler.
fn wire_steal_peers(workers: &[Arc<WorkerShared>], ranges: &[std::ops::Range<usize>]) {
    for range in ranges {
        for i in range.clone() {
            let mut peers = Vec::with_capacity(range.len().saturating_sub(1));
            for off in 1..range.len() {
                let j = range.start + (i - range.start + off) % range.len();
                peers.push(Arc::downgrade(&workers[j]));
            }
            let _ = workers[i].steal_peers.set(peers);
        }
    }
}

/// Merges per-shard [`SchedRun`]s: stats are summed; the controller
/// trajectory and registry come from the lowest shard that produced one
/// (all shards share the run's registry, so any shard's handle works).
fn merge_shard_runs(outs: Vec<Arc<Mutex<SchedRun>>>) -> SchedRun {
    let mut it = outs.into_iter();
    let first = it.next().expect("at least one scheduler shard");
    let mut merged = first.lock().clone();
    for out in it {
        let run = out.lock();
        merged.stats.absorb(&run.stats);
        if merged.controller.is_none() {
            merged.controller = run.controller.clone();
        }
        if merged.registry.is_none() {
            merged.registry = run.registry.clone();
        }
    }
    merged
}

/// Sharded adaptive runs need one shared sensor plane: when the config
/// carries no registry but the policy runs a controller, each shard
/// would otherwise create a private fallback registry and the per-shard
/// sensor reads (and the run's cross-check) would see disjoint planes.
fn ensure_shared_registry(cfg: &mut DriverConfig, shards: usize) {
    if shards > 1 && cfg.metrics.is_none() && cfg.policy.controller_config().is_some() {
        cfg.metrics = Some(preempt_metrics::MetricsRegistry::new(
            preempt_metrics::MetricsConfig::default(),
        ));
    }
}

/// Registers one trace ring per worker when the config carries a session.
/// Must run before the workers start (the ring is read once at startup).
fn register_worker_rings(cfg: &DriverConfig, workers: &[Arc<WorkerShared>]) {
    if let Some(session) = &cfg.trace {
        for w in workers {
            let _ = w.trace.set(session.register("worker", w.id as u16));
        }
    }
}

/// Registers one metrics shard per worker when the config carries a
/// registry. Runs before the workers start; the scheduler's fallback
/// path covers adaptive runs whose config has no registry.
fn register_worker_shards(cfg: &DriverConfig, workers: &[Arc<WorkerShared>]) {
    if let Some(registry) = &cfg.metrics {
        for w in workers {
            let _ = w
                .metrics_shard
                .set(registry.register_shard("worker", w.id as u32));
        }
    }
}

/// Installs one SLO-violation flight recorder per worker when the config
/// carries a provenance section. Runs before the workers start.
fn register_worker_flight(cfg: &DriverConfig, workers: &[Arc<WorkerShared>]) {
    if let Some(prov) = &cfg.prov {
        for w in workers {
            let _ = w.flight.set(Arc::new(preempt_prov::FlightRecorder::new(
                prov.exemplars_per_worker,
                prov.slo_cycles,
            )));
        }
    }
}

fn run_simulated(
    sim_cfg: SimConfig,
    mut cfg: DriverConfig,
    factory: Box<dyn WorkloadFactory>,
) -> RunReport {
    let shards = cfg.shards.clamp(1, cfg.n_workers.max(1));
    ensure_shared_registry(&mut cfg, shards);
    let sim = Simulation::new(sim_cfg);
    let workers: Vec<Arc<WorkerShared>> = (0..cfg.n_workers)
        .map(|i| WorkerShared::new(i, &cfg.queue_caps))
        .collect();
    register_worker_rings(&cfg, &workers);
    register_worker_shards(&cfg, &workers);
    register_worker_flight(&cfg, &workers);
    let ranges = shard_ranges(cfg.n_workers, shards);
    if shards > 1 {
        wire_steal_peers(&workers, &ranges);
    }
    for w in &workers {
        let ws = w.clone();
        let policy = cfg.policy;
        let core = sim.spawn_core("worker", WORKER_STACK, move || worker_main(ws, policy));
        w.set_wake_target(WakeTarget::Sim(core));
    }
    // Default respawn hook: a replacement worker core spawned into the
    // *running* simulation at the supervisor's virtual time. Configs may
    // pre-install their own (e.g. to count respawns externally).
    if cfg.recovery.spawner.is_none() {
        let policy = cfg.policy;
        cfg.recovery.spawner = Some(Arc::new(move |w: &Arc<WorkerShared>| {
            let ws = w.clone();
            let core =
                preempt_sim::api::spawn_core("worker", WORKER_STACK, move || {
                    worker_main(ws, policy)
                });
            w.set_wake_target(WakeTarget::Sim(core));
        }));
    }
    // One scheduler core per shard, each owning a contiguous worker
    // slice and its own slice of the workload. A 1-shard plane spawns
    // exactly the pre-sharding scheduler.
    let parts = split_factory(factory, shards);
    let sched_outs: Vec<Arc<Mutex<SchedRun>>> = (0..shards)
        .map(|_| Arc::new(Mutex::new(SchedRun::default())))
        .collect();
    for (si, (mut part, range)) in parts.into_iter().zip(ranges).enumerate() {
        let local: Vec<Arc<WorkerShared>> = workers[range].to_vec();
        let all = workers.clone();
        let cfg = cfg.clone();
        let out = sched_outs[si].clone();
        sim.spawn_core("scheduler", SCHED_STACK, move || {
            *out.lock() = scheduler_shard_main(&cfg, si, &local, &all, &mut part);
        });
    }
    sim.run();
    let sched = merge_shard_runs(sched_outs);
    let mut report = collect(&cfg, &workers, sched, sim_cfg.freq_hz);
    report.faults = sim.fault_stats();
    report.fault_trace = sim.fault_trace();
    report.core_failures = sim.core_failures();
    report
}

fn run_threads(mut cfg: DriverConfig, mut factory: Box<dyn WorkloadFactory>) -> RunReport {
    let shards = cfg.shards.clamp(1, cfg.n_workers.max(1));
    ensure_shared_registry(&mut cfg, shards);
    let workers: Vec<Arc<WorkerShared>> = (0..cfg.n_workers)
        .map(|i| WorkerShared::new(i, &cfg.queue_caps))
        .collect();
    register_worker_rings(&cfg, &workers);
    register_worker_shards(&cfg, &workers);
    register_worker_flight(&cfg, &workers);
    let ranges = shard_ranges(cfg.n_workers, shards);
    if shards > 1 {
        wire_steal_peers(&workers, &ranges);
    }
    // Default respawn hook: replacement OS threads, with their handles
    // parked so the run can join them before collecting metrics.
    let respawned: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
        Arc::new(Mutex::new(Vec::new()));
    if cfg.recovery.spawner.is_none() {
        let policy = cfg.policy;
        let respawned = respawned.clone();
        cfg.recovery.spawner = Some(Arc::new(move |w: &Arc<WorkerShared>| {
            let ws = w.clone();
            let h = std::thread::Builder::new()
                .name(format!("worker-{}r{}", w.id, w.incarnation()))
                .spawn(move || worker_main(ws, policy))
                .expect("spawn replacement worker");
            w.set_wake_target(WakeTarget::Thread(h.thread().clone()));
            respawned.lock().push(h);
        }));
    }
    // Live observability is wall-clock-driven, so it only exists on the
    // thread runtime: a sampler thread refreshes SLO burn-rate gauges on
    // the configured interval and (behind the `serve` flag) answers
    // `GET /metrics` scrapes with the Prometheus exposition.
    let sampler = cfg
        .metrics
        .as_ref()
        .and_then(|r| match preempt_metrics::serve::spawn(r.clone()) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("metrics sampler failed to start: {e}");
                None
            }
        });
    let mut handles = Vec::new();
    for w in &workers {
        let ws = w.clone();
        let policy = cfg.policy;
        handles.push(
            std::thread::Builder::new()
                .name(format!("worker-{}", w.id))
                .spawn(move || worker_main(ws, policy))
                .expect("spawn worker"),
        );
    }
    let sched = if shards <= 1 {
        scheduler_main(&cfg, &workers, &mut *factory)
    } else {
        // One scheduler thread per shard, joined before collection.
        let parts = split_factory(factory, shards);
        let sched_outs: Vec<Arc<Mutex<SchedRun>>> = (0..shards)
            .map(|_| Arc::new(Mutex::new(SchedRun::default())))
            .collect();
        std::thread::scope(|scope| {
            for (si, (mut part, range)) in parts.into_iter().zip(ranges).enumerate() {
                let local: Vec<Arc<WorkerShared>> = workers[range].to_vec();
                let all = workers.clone();
                let cfg = &cfg;
                let out = sched_outs[si].clone();
                std::thread::Builder::new()
                    .name(format!("scheduler-{si}"))
                    .spawn_scoped(scope, move || {
                        *out.lock() = scheduler_shard_main(cfg, si, &local, &all, &mut part);
                    })
                    .expect("spawn scheduler shard");
            }
        });
        merge_shard_runs(sched_outs)
    };
    // A worker thread the supervisor declared dead may have exited via a
    // contained panic; a failed join is the expected shape of that, not
    // a run failure (the report carries the panic counters).
    for h in handles.into_iter().chain(respawned.lock().drain(..)) {
        let _ = h.join();
    }
    if let Some(s) = sampler {
        s.stop();
    }
    collect(&cfg, &workers, sched, crate::clock::freq_hz())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::request::{Request, WorkOutcome};

    #[test]
    fn report_math_converts_cycles_correctly() {
        let mut metrics = Metrics::new();
        // 2.4 GHz: 2400 cycles = 1 us.
        metrics.record("k", 2_400, 240, 1);
        metrics.record("k", 24_000, 2_400, 0);
        let r = RunReport {
            policy_label: "test".into(),
            metrics,
            scheduler: SchedulerStats::default(),
            controller: None,
            workers: WorkerTotals::default(),
            duration_cycles: 2_400_000_000, // 1 s
            freq_hz: 2_400_000_000,
            faults: None,
            fault_trace: None,
            trace: None,
            attribution: None,
            exemplars: Vec::new(),
            flight_missed: 0,
            preempt_breakdown: None,
            metrics_snapshot: None,
            panic_messages: Vec::new(),
            core_failures: Vec::new(),
        };
        assert_eq!(r.completed("k"), 2);
        assert!((r.tps("k") - 2.0).abs() < 1e-9);
        assert!((r.total_tps() - 2.0).abs() < 1e-9);
        // p100 end-to-end = 24000 cycles = 10 us (within bucket error).
        let p100 = r.latency_us("k", 100.0);
        assert!((9.3..=10.0).contains(&p100), "p100={p100}");
        let s100 = r.sched_latency_us("k", 100.0);
        assert!((0.9..=1.0).contains(&s100), "s100={s100}");
        // geomean(1us, 10us) ~ 3.16us.
        let g = r.geomean_latency_us("k");
        assert!((2.9..=3.3).contains(&g), "g={g}");
        // Absent kinds are zero.
        assert_eq!(r.tps("absent"), 0.0);
        assert_eq!(r.latency_us("absent", 50.0), 0.0);
    }

    /// Synthetic workload: long low-priority "scans" (5 M cycles ≈ 2 ms)
    /// and short high-priority txns (20 k cycles ≈ 8 µs).
    struct Synthetic;
    impl WorkloadFactory for Synthetic {
        fn make_low(&mut self, now: u64) -> Option<Request> {
            Some(Request::new("scan", 0, now, || {
                for _ in 0..5_000 {
                    preempt_context::runtime::preempt_point(1_000);
                }
                WorkOutcome::default()
            }))
        }
        fn make_high(&mut self, now: u64) -> Option<Request> {
            Some(Request::new("point", 1, now, || {
                for _ in 0..20 {
                    preempt_context::runtime::preempt_point(1_000);
                }
                WorkOutcome::default()
            }))
        }
    }

    fn small_cfg(policy: Policy) -> DriverConfig {
        DriverConfig {
            n_workers: 4,
            batch_size: 16,
            duration: 120_000_000, // 50 ms
            ..DriverConfig::paper_default(policy)
        }
    }

    /// Satellite: a zero time base must degrade to zeroed rates, never
    /// a NaN/inf division.
    #[test]
    fn zero_freq_yields_zero_rates() {
        let mut metrics = Metrics::new();
        metrics.record("k", 2_400, 240, 0);
        let r = RunReport {
            policy_label: "test".into(),
            metrics,
            scheduler: SchedulerStats::default(),
            controller: None,
            workers: WorkerTotals::default(),
            duration_cycles: 1_000,
            freq_hz: 0,
            faults: None,
            fault_trace: None,
            trace: None,
            attribution: None,
            exemplars: Vec::new(),
            flight_missed: 0,
            preempt_breakdown: None,
            metrics_snapshot: None,
            panic_messages: Vec::new(),
            core_failures: Vec::new(),
        };
        for v in [
            r.tps("k"),
            r.total_tps(),
            r.latency_us("k", 99.0),
            r.sched_latency_us("k", 99.0),
            r.geomean_latency_us("k"),
        ] {
            assert_eq!(v, 0.0, "zero freq must not produce {v}");
        }
    }

    #[test]
    fn preemptdb_beats_wait_on_high_priority_latency() {
        let wait = run(
            Runtime::Simulated(SimConfig::default()),
            small_cfg(Policy::Wait),
            Box::new(Synthetic),
        );
        let pre = run(
            Runtime::Simulated(SimConfig::default()),
            small_cfg(Policy::preemptdb()),
            Box::new(Synthetic),
        );

        assert!(wait.completed("point") > 100);
        assert!(pre.completed("point") > 100);
        let wait_p50 = wait.latency_us("point", 50.0);
        let pre_p50 = pre.latency_us("point", 50.0);
        // The low txns are ~2 ms; under Wait a high txn typically waits
        // for one, under PreemptDB it runs within ~microseconds.
        assert!(
            pre_p50 * 10.0 < wait_p50,
            "expected order-of-magnitude gap: pre={pre_p50:.1}us wait={wait_p50:.1}us"
        );
        assert!(pre.workers.preemptions > 0);
        assert_eq!(wait.workers.preemptions, 0);

        // Low-priority throughput is not destroyed by preemption (§6.2).
        let (wq2, pq2) = (wait.tps("scan"), pre.tps("scan"));
        assert!(
            pq2 > wq2 * 0.7,
            "scan throughput: wait={wq2:.0}, preempt={pq2:.0}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(
            Runtime::Simulated(SimConfig::default()),
            small_cfg(Policy::preemptdb()),
            Box::new(Synthetic),
        );
        let b = run(
            Runtime::Simulated(SimConfig::default()),
            small_cfg(Policy::preemptdb()),
            Box::new(Synthetic),
        );
        assert_eq!(a.completed("point"), b.completed("point"));
        assert_eq!(a.completed("scan"), b.completed("scan"));
        assert_eq!(
            a.metrics.kind("point").unwrap().latency.percentile(99.0),
            b.metrics.kind("point").unwrap().latency.percentile(99.0),
            "determinism: identical p99"
        );
        assert_eq!(a.workers.preemptions, b.workers.preemptions);
    }

    #[test]
    fn thread_runtime_works_small() {
        let mut cfg = small_cfg(Policy::preemptdb());
        cfg.n_workers = 2;
        // Short real-time run: 20 ms at the TSC frequency.
        cfg.arrival_interval = crate::clock::freq_hz() / 1_000;
        cfg.duration = crate::clock::freq_hz() / 50;
        let report = run(Runtime::Threads, cfg, Box::new(Synthetic));
        assert!(report.completed("point") > 0, "high txns completed");
        assert!(report.metrics.total_completed() > 0);
    }
}
