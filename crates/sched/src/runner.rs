//! Run orchestration: stand up workers + scheduler on the virtual-time
//! simulator (the default for experiments) or on real OS threads, run a
//! workload to completion, and collect a [`RunReport`].

use std::sync::Arc;

use parking_lot::Mutex;
use preempt_metrics::{Counter, MetricsRegistry, MetricsSnapshot};
use preempt_sim::{SimConfig, Simulation};

use crate::controller::ControllerReport;
use crate::metrics::Metrics;
use crate::scheduler::{
    scheduler_shard_main, split_factory, DriverConfig, SchedulerStats, WorkloadFactory,
};
use crate::worker::{spawn_worker_thread, worker_main, WakeTarget, WorkerShared};

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

/// Aggregated worker-side counters: a view of the run's final registry
/// snapshot ([`WorkerTotals::from_snapshot`]).
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

impl WorkerTotals {
    pub fn from_snapshot(snap: &MetricsSnapshot) -> WorkerTotals {
        let c = |c| snap.counter(c);
        WorkerTotals {
            preemptions: c(Counter::Preemptions),
            coop_yields: c(Counter::CoopYields),
            high_on_regular: c(Counter::HighOnRegular),
            uintr_delivered: c(Counter::UintrDelivered),
            uintr_deferred: c(Counter::UintrDeferred),
            busy_cycles: c(Counter::BusyCycles),
            panics: c(Counter::WorkerPanics),
            steals: c(Counter::Steals),
        }
    }
}

/// Everything measured in one run. `metrics`, `scheduler` and `workers`
/// are views of `metrics_snapshot`; nothing is counted anywhere else.
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
    /// Final snapshot of the run's metrics registry
    /// ([`DriverConfig::metrics`] when the caller supplied one, else the
    /// run's own).
    pub metrics_snapshot: MetricsSnapshot,
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
    // Every count of the run lives in this registry's shards.
    let registry = match &cfg.metrics {
        Some(supplied) => supplied.clone(),
        None => MetricsRegistry::new(Default::default()),
    };
    match runtime {
        Runtime::Simulated(sim_cfg) => run_simulated(sim_cfg, cfg, &registry, factory),
        Runtime::Threads => run_threads(cfg, &registry, factory),
    }
}

fn collect(
    cfg: &DriverConfig,
    registry: &MetricsRegistry,
    workers: &[Arc<WorkerShared>],
    controller: Option<ControllerReport>,
    freq_hz: u64,
) -> RunReport {
    let trace = cfg.trace.as_ref().map(|s| s.merge());
    let preempt_breakdown = trace.as_ref().map(|t| t.breakdown());
    let attribution = trace.as_ref().map(preempt_prov::reconstruct);
    // Trace-ring loss lands in the registry at collect time (the rings
    // only know their overwrite counts once merged), through a dedicated
    // collector shard so the snapshot below carries it.
    if let Some(t) = trace.as_ref().filter(|t| t.dropped > 0) {
        registry
            .register_shard("collector", u32::MAX)
            .bump_by(Counter::TraceDropped, t.dropped);
    }
    let mut panic_messages = Vec::new();
    let mut exemplars: Vec<preempt_prov::Exemplar> = Vec::new();
    let mut flight_missed = 0;
    for w in workers {
        panic_messages.extend(w.panics.lock().iter().cloned());
        if let Some(fr) = w.flight.get() {
            exemplars.extend(fr.snapshot());
            flight_missed += fr.missed();
        }
    }
    exemplars.sort_by_key(|e| (std::cmp::Reverse(e.overage()), e.req_id));
    registry.refresh_slo_gauges(None);
    let metrics_snapshot = registry.snapshot();
    RunReport {
        policy_label: cfg.policy.label(),
        metrics: Metrics::from_snapshot(&metrics_snapshot),
        scheduler: SchedulerStats::from_snapshot(&metrics_snapshot),
        controller,
        workers: WorkerTotals::from_snapshot(&metrics_snapshot),
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
    }
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

/// The run's workers, each with its trace ring and flight recorder (when
/// configured) and its metrics shard attached to `registry` — all before
/// any worker starts (the ring is read once at startup) — and each
/// scheduler shard's range of them.
fn make_workers(
    cfg: &DriverConfig,
    registry: &MetricsRegistry,
) -> (Vec<Arc<WorkerShared>>, Vec<std::ops::Range<usize>>) {
    let make = |i| {
        let w = WorkerShared::new(i, &cfg.queue_caps);
        if let Some(session) = &cfg.trace {
            let _ = w.trace.set(session.register("worker", i as u16));
        }
        registry.attach(&w.metrics_shard);
        if let Some(prov) = &cfg.prov {
            let _ = w.flight.set(Arc::new(preempt_prov::FlightRecorder::new(
                prov.exemplars_per_worker,
                prov.slo_cycles,
            )));
        }
        w
    };
    let workers: Vec<_> = (0..cfg.n_workers).map(make).collect();
    let ranges = shard_ranges(cfg.n_workers, cfg.shards);
    if ranges.len() > 1 {
        wire_steal_peers(&workers, &ranges);
    }
    (workers, ranges)
}

/// Where one scheduler shard leaves its controller's trajectory. The
/// report carries the lowest shard's that produced one; counts need no
/// merging, every shard counts into the run's one registry.
type ControllerOut = Arc<Mutex<Option<ControllerReport>>>;

fn first_controller(outs: &[ControllerOut]) -> Option<ControllerReport> {
    outs.iter().find_map(|out| out.lock().clone())
}

fn run_simulated(
    sim_cfg: SimConfig,
    mut cfg: DriverConfig,
    registry: &MetricsRegistry,
    factory: Box<dyn WorkloadFactory>,
) -> RunReport {
    let sim = Simulation::new(sim_cfg);
    let (workers, ranges) = make_workers(&cfg, registry);
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
    let parts = split_factory(factory, ranges.len());
    let outs: Vec<ControllerOut> = ranges.iter().map(|_| Default::default()).collect();
    for (si, (mut part, range)) in parts.into_iter().zip(ranges).enumerate() {
        let (local, all) = (workers[range].to_vec(), workers.clone());
        let (cfg, registry, out) = (cfg.clone(), registry.clone(), outs[si].clone());
        sim.spawn_core("scheduler", SCHED_STACK, move || {
            *out.lock() = scheduler_shard_main(&cfg, &registry, si, &local, &all, &mut part);
        });
    }
    sim.run();
    let mut report = collect(&cfg, registry, &workers, first_controller(&outs), sim_cfg.freq_hz);
    report.faults = sim.fault_stats();
    report.fault_trace = sim.fault_trace();
    report.core_failures = sim.core_failures();
    report
}

fn run_threads(
    cfg: DriverConfig,
    registry: &MetricsRegistry,
    factory: Box<dyn WorkloadFactory>,
) -> RunReport {
    let (workers, ranges) = make_workers(&cfg, registry);
    // One thread per worker for the whole run: supervision, the only
    // thing that would replace one, runs under the simulator alone.
    let threads: Vec<_> = workers.iter().map(|w| spawn_worker_thread(w, cfg.policy)).collect();
    // Live observability is wall-clock-driven, so it only exists on the
    // thread runtime, and only for a registry the caller supplied: a
    // sampler thread refreshes SLO burn-rate gauges on the configured
    // interval and (behind the `serve` flag) answers `GET /metrics`
    // scrapes with the Prometheus exposition.
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
    // One scheduler thread per shard, joined before collection.
    let parts = split_factory(factory, ranges.len());
    let outs: Vec<ControllerOut> = ranges.iter().map(|_| Default::default()).collect();
    std::thread::scope(|scope| {
        for (si, (mut part, range)) in parts.into_iter().zip(ranges).enumerate() {
            let (local, all, cfg, out) = (&workers[range], &workers, &cfg, &outs[si]);
            std::thread::Builder::new()
                .name(format!("scheduler-{si}"))
                .spawn_scoped(scope, move || {
                    *out.lock() = scheduler_shard_main(cfg, registry, si, local, all, &mut part);
                })
                .expect("spawn scheduler shard");
        }
    });
    for h in threads {
        h.join().expect("worker panicked");
    }
    if let Some(s) = sampler {
        s.stop();
    }
    collect(&cfg, registry, &workers, first_controller(&outs), crate::clock::freq_hz())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::request::{Request, WorkOutcome};

    /// A report over what `shard` counted, with the given time base.
    fn report_of(shard: &Arc<preempt_metrics::Shard>, duration: u64, freq_hz: u64) -> RunReport {
        let registry = MetricsRegistry::new(Default::default());
        registry.attach(shard);
        let mut cfg = DriverConfig::paper_default(Policy::Wait);
        cfg.duration = duration;
        collect(&cfg, &registry, &[], None, freq_hz)
    }

    #[test]
    fn report_math_converts_cycles_correctly() {
        let shard = preempt_metrics::Shard::new("worker", 0);
        // 2.4 GHz: 2400 cycles = 1 us.
        shard.txn_completed("k", 1, 2_400, 240, 1);
        shard.txn_completed("k", 1, 24_000, 2_400, 0);
        let r = report_of(&shard, 2_400_000_000, 2_400_000_000); // 1 s
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
        let shard = preempt_metrics::Shard::new("worker", 0);
        shard.txn_completed("k", 1, 2_400, 240, 0);
        let r = report_of(&shard, 1_000, 0);
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
