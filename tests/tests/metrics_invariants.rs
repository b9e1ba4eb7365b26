//! Observability-plane invariants (ISSUE 5 tentpole): the lock-free
//! per-worker metrics registry must agree *exactly* with every
//! pre-existing accounting plane it shadows —
//!
//! * per-kind transaction counts and latency histograms bit-for-bit
//!   equal to [`RunReport::metrics`] (same bucket math, same sites);
//! * scheduler/worker counters equal to [`SchedulerStats`] and
//!   [`WorkerTotals`];
//! * the adaptive controller, which now reads per-window deltas of the
//!   registry's sensor plane, byte-identical whether the registry came
//!   from the driver config or the scheduler's private fallback;
//! * a disabled registry costing exactly one relaxed load per emit;
//! * a threaded run serving `GET /metrics` that round-trips through the
//!   strict Prometheus parser with the delivery, starvation,
//!   degradation, fault, and SLO burn-rate series present.

use preempt_faults::FaultPlan;
use preemptdb::metrics::{
    self, Counter, MetricsConfig, MetricsRegistry, SloSpec,
};
use preemptdb::sched::{
    clock, cross_check_registry, run, DriverConfig, Policy, Request, RunReport, Runtime,
    WorkOutcome, WorkloadFactory,
};
use preemptdb::SimConfig;

/// The canonical synthetic mix: long low-priority "scans" and short
/// high-priority "points".
struct Synthetic;
impl WorkloadFactory for Synthetic {
    fn make_low(&mut self, now: u64) -> Option<Request> {
        Some(Request::new("scan", 0, now, || {
            for _ in 0..5_000 {
                preemptdb::context::runtime::preempt_point(1_000);
            }
            WorkOutcome::default()
        }))
    }
    fn make_high(&mut self, now: u64) -> Option<Request> {
        Some(Request::new("point", 1, now, || {
            for _ in 0..20 {
                preemptdb::context::runtime::preempt_point(1_000);
            }
            WorkOutcome::default()
        }))
    }
}

fn cfg(policy: Policy, registry: Option<MetricsRegistry>) -> DriverConfig {
    DriverConfig {
        n_workers: 4,
        batch_size: 16,
        duration: 120_000_000, // 50 ms
        metrics: registry,
        ..DriverConfig::paper_default(policy)
    }
}

fn registry_with_slo() -> MetricsRegistry {
    MetricsRegistry::new(MetricsConfig {
        slos: vec![SloSpec {
            kind: "point",
            latency_bound_cycles: 240_000, // 100 µs at 2.4 GHz
            target_ppm: 10_000,
        }],
        ..MetricsConfig::default()
    })
}

fn run_sim(policy: Policy, registry: Option<MetricsRegistry>) -> RunReport {
    run(
        Runtime::Simulated(SimConfig::default()),
        cfg(policy, registry),
        Box::new(Synthetic),
    )
}

/// The registry's per-kind series equal the legacy report's, histogram
/// percentiles included — one seeded run, two accounting planes.
#[test]
fn registry_snapshot_matches_legacy_metrics() {
    let report = run_sim(Policy::preemptdb(), Some(registry_with_slo()));
    cross_check_registry(&report).expect("planes agree");
    let snap = report.metrics_snapshot.as_ref().expect("snapshot");
    // The run actually exercised the interesting series.
    assert!(report.completed("point") > 100);
    assert!(snap.counter(Counter::UintrDelivered) > 0);
    assert!(snap.counter(Counter::SchedEnterLevel) > 0);
    assert_eq!(
        snap.counter(Counter::SchedEnterLevel),
        snap.counter(Counter::SchedLeaveLevel),
        "every preemptive level entered is left"
    );
    for (kind, m) in report.metrics.kinds() {
        let k = snap.kind(kind).expect("kind present in registry");
        assert_eq!(m.completed, k.completed, "{kind} completed");
        assert_eq!(m.latency.count(), k.latency.count(), "{kind} samples");
        for p in [25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(
                m.latency.percentile(p),
                k.latency.percentile(p),
                "{kind} latency p{p}"
            );
            assert_eq!(
                m.sched_latency.percentile(p),
                k.sched_latency.percentile(p),
                "{kind} sched latency p{p}"
            );
        }
    }
}

/// Same invariant under an adversarial fault plan: drops, re-sends,
/// dispatch failures, and forced aborts all land in both planes equally.
#[test]
fn cross_plane_agreement_survives_fault_injection() {
    let sim = SimConfig {
        faults: Some(FaultPlan::lossy(7, 100_000, 20_000)),
        ..SimConfig::default()
    };
    let report = run(
        Runtime::Simulated(sim),
        cfg(Policy::preemptdb(), Some(registry_with_slo())),
        Box::new(Synthetic),
    );
    cross_check_registry(&report).expect("planes agree under faults");
    let snap = report.metrics_snapshot.as_ref().expect("snapshot");
    assert!(snap.counter(Counter::FaultsInjected) > 0, "plan injected");
    assert!(
        snap.counter(Counter::WatchdogResends) > 0,
        "drops forced watchdog re-sends"
    );
}

/// The controller reads the registry's sensor plane; whether that
/// registry was supplied by the config or created as the scheduler's
/// fallback must not change a single byte of the trajectory.
#[test]
fn adaptive_trajectory_identical_across_registry_sources() {
    let explicit = run_sim(Policy::preemptdb_adaptive(), Some(registry_with_slo()));
    let fallback = run_sim(Policy::preemptdb_adaptive(), None);
    let a = explicit.controller.expect("controller report");
    let b = fallback.controller.expect("controller report");
    assert!(a.trajectory_text().lines().count() > 1, "multiple windows");
    assert_eq!(a.trajectory_text(), b.trajectory_text());
    // The explicit run additionally exposes the controller series.
    let snap = explicit.metrics_snapshot.expect("snapshot");
    assert_eq!(
        snap.counter(Counter::ControllerEvals),
        explicit.scheduler.controller_evals
    );
    assert_eq!(
        snap.counter(Counter::ControllerRaises)
            + snap.counter(Counter::ControllerLowers)
            + snap.counter(Counter::ControllerHolds),
        snap.counter(Counter::ControllerEvals),
        "every evaluation is a raise, lower, or hold"
    );
    assert!(
        snap.gauge("starvation_threshold").is_some(),
        "final threshold gauge published"
    );
}

/// Metrics-off runs must not even allocate a snapshot: emits behind a
/// dead registry pointer are one relaxed load and out.
#[test]
fn static_run_without_registry_carries_no_snapshot() {
    let report = run_sim(Policy::preemptdb(), None);
    assert!(report.metrics_snapshot.is_none());
    assert!(report.completed("point") > 100, "run still executed");
}

/// Determinism of the metrics plane itself: two same-seed runs produce
/// identical registry snapshots (counter-for-counter, bucket-for-bucket).
#[test]
fn registry_snapshots_are_deterministic() {
    let a = run_sim(Policy::preemptdb(), Some(registry_with_slo()));
    let b = run_sim(Policy::preemptdb(), Some(registry_with_slo()));
    let (sa, sb) = (
        a.metrics_snapshot.expect("snapshot a"),
        b.metrics_snapshot.expect("snapshot b"),
    );
    assert_eq!(sa.counters, sb.counters, "counter plane deterministic");
    for (ka, kb) in sa.kinds.iter().zip(sb.kinds.iter()) {
        assert_eq!(ka.name, kb.name);
        assert_eq!(ka.latency.buckets, kb.latency.buckets, "{} buckets", ka.name);
        assert_eq!(
            ka.sched_latency.buckets, kb.sched_latency.buckets,
            "{} sched buckets",
            ka.name
        );
    }
    assert_eq!(
        sa.sensor_high_latency.buckets, sb.sensor_high_latency.buckets,
        "controller sensor plane deterministic"
    );
    assert_eq!(sa.slo_burn, sb.slo_burn, "burn rates deterministic");
    // The delivery-latency histogram is excluded: it is measured with
    // the real TSC even under the simulator, so its buckets vary run to
    // run while everything virtual-time stays bit-identical.
}

/// Threaded runtime: the run serves a live Prometheus endpoint whose
/// exposition round-trips through the strict parser with the required
/// operational series present.
#[test]
fn threaded_run_serves_parseable_prometheus() {
    let hz = clock::freq_hz();
    let registry = MetricsRegistry::new(MetricsConfig {
        serve: true,
        slos: vec![SloSpec {
            kind: "point",
            latency_bound_cycles: hz / 10_000,
            target_ppm: 10_000,
        }],
        sample_interval_ms: 10,
        ..MetricsConfig::default()
    });
    let mut c = cfg(Policy::preemptdb(), Some(registry.clone()));
    c.n_workers = 2;
    c.arrival_interval = hz / 1_000;
    c.duration = hz / 5; // 200 ms wall clock
    let worker = std::thread::spawn(move || run(Runtime::Threads, c, Box::new(Synthetic)));

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let addr = loop {
        if let Some(a) = registry.bound_addr() {
            break a;
        }
        assert!(std::time::Instant::now() < deadline, "endpoint never bound");
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    std::thread::sleep(std::time::Duration::from_millis(60));
    let body = metrics::serve::scrape(addr, "/metrics").expect("mid-run scrape");
    let report = worker.join().expect("threaded run");

    let exp = metrics::parse_prometheus(&body).expect("valid exposition");
    metrics::validate_histograms(&exp).expect("histogram invariants");
    for series in [
        "preemptdb_uintr_delivered_total",
        "preemptdb_uintr_watchdog_resends_total",
        "preemptdb_starvation_skips_total",
        "preemptdb_delivery_degrades_total",
        "preemptdb_faults_injected_total",
        "preemptdb_uintr_delivery_latency_cycles_bucket",
    ] {
        assert!(
            exp.all(series).next().is_some(),
            "required series {series} missing"
        );
    }
    assert!(
        exp.value("preemptdb_slo_burn_rate", &[("kind", "point")]).is_some(),
        "burn-rate gauge missing"
    );
    // The final snapshot still agrees with the legacy planes after the
    // sampler and scrapes raced the workers.
    cross_check_registry(&report).expect("threaded planes agree");
}
