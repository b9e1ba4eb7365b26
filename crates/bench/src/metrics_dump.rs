//! Renders a metrics-registry snapshot of a seeded run as tables, and
//! (with `--check`) gates the observability plane in CI:
//!
//! 1. a seeded simulated run under fault injection must leave the
//!    delivery and fault series populated and consistent (sends bound
//!    deliveries) — the run the tables are rendered from;
//! 2. the adaptive controller must produce a byte-identical threshold
//!    trajectory whether the caller supplied the run's registry or the
//!    runner created it — one sensor plane, no drift;
//! 3. a real-thread run serving `GET /metrics` must yield a parseable
//!    Prometheus exposition whose histograms are internally consistent
//!    and which carries the delivery, starvation, degradation, fault,
//!    scheduler/worker accounting and SLO burn-rate series.
//!
//! ```sh
//! cargo run --release -p preempt-bench --bin run_all -- metrics_dump [--check]
//! ```

use std::process::ExitCode;

use crate::Table;
use preempt_faults::FaultPlan;
use preemptdb::metrics::{
    self, Counter, FixedHist, MetricsConfig, MetricsRegistry, MetricsSnapshot, SloSpec,
};
use preemptdb::sched::{
    self, clock, DriverConfig, Policy, Request, RunReport, Runtime, WorkOutcome, WorkloadFactory,
};
use preemptdb::SimConfig;

/// Long low-priority "scans" and short high-priority "points" — the
/// runner-test synthetic workload, deterministic under the simulator.
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

fn sim_cfg(policy: Policy, registry: Option<MetricsRegistry>) -> DriverConfig {
    DriverConfig {
        n_workers: 4,
        batch_size: 16,
        duration: 120_000_000, // 50 ms of virtual time
        metrics: registry,
        ..DriverConfig::paper_default(policy)
    }
}

fn sim_registry() -> MetricsRegistry {
    MetricsRegistry::new(MetricsConfig {
        slos: vec![SloSpec {
            kind: "point",
            latency_bound_cycles: 240_000, // 100 µs at the sim's 2.4 GHz
            target_ppm: 10_000,
        }],
        ..MetricsConfig::default()
    })
}

fn faulty_sim() -> SimConfig {
    SimConfig {
        faults: Some(FaultPlan::lossy(7, 50_000, 5_000)),
        ..SimConfig::default()
    }
}

fn dump(snap: &MetricsSnapshot) {
    let mut counters = Table::new("counters", &["series", "total"]);
    for c in Counter::ALL {
        counters.row(vec![c.name().to_string(), snap.counter(c).to_string()]);
    }
    counters.print();

    let mut kinds = Table::new(
        "transactions by kind",
        &["kind", "completed", "aborted", "failed", "p50 cyc", "p99 cyc", "max cyc"],
    );
    for k in &snap.kinds {
        kinds.row(vec![
            k.name.clone(),
            k.completed.to_string(),
            k.deadline_aborted.to_string(),
            k.failed.to_string(),
            k.latency.percentile(50.0).to_string(),
            k.latency.percentile(99.0).to_string(),
            k.latency.max().to_string(),
        ]);
    }
    kinds.print();

    let mut hists = Table::new(
        "fixed histograms",
        &["series", "count", "p50", "p99", "max"],
    );
    for (h, s) in [
        (FixedHist::DeliveryLatencyCycles, &snap.delivery_latency),
        (FixedHist::LatchWaitCycles, &snap.latch_wait),
    ] {
        hists.row(vec![
            h.name().to_string(),
            s.count().to_string(),
            s.percentile(50.0).to_string(),
            s.percentile(99.0).to_string(),
            s.max().to_string(),
        ]);
    }
    hists.print();

    if !snap.gauges.is_empty() {
        let mut gauges = Table::new("gauges", &["series", "value"]);
        for (name, v) in &snap.gauges {
            gauges.row(vec![name.to_string(), format!("{v:.4}")]);
        }
        gauges.print();
    }
}

fn check_seeded_sim() -> RunReport {
    let registry = sim_registry();
    let report = sched::run(
        Runtime::Simulated(faulty_sim()),
        sim_cfg(Policy::preemptdb(), Some(registry)),
        Box::new(Synthetic),
    );
    let snap = &report.metrics_snapshot;
    assert!(snap.counter(Counter::UintrDelivered) > 0, "interrupts delivered");
    assert!(snap.counter(Counter::FaultsInjected) > 0, "fault plan left a mark");
    assert!(
        snap.counter(Counter::UintrSent) >= snap.counter(Counter::UintrDelivered),
        "sends bound deliveries"
    );
    println!("seeded sim check: ok ({} counter series)", Counter::ALL.len());
    report
}

fn check_adaptive_identity() {
    let supplied = sched::run(
        Runtime::Simulated(SimConfig::default()),
        sim_cfg(Policy::preemptdb_adaptive(), Some(sim_registry())),
        Box::new(Synthetic),
    );
    let created = sched::run(
        Runtime::Simulated(SimConfig::default()),
        sim_cfg(Policy::preemptdb_adaptive(), None),
        Box::new(Synthetic),
    );
    let a = supplied.controller.expect("adaptive run has a controller");
    let b = created.controller.expect("adaptive run has a controller");
    assert!(!a.trajectory_text().is_empty(), "controller evaluated windows");
    assert_eq!(
        a.trajectory_text(),
        b.trajectory_text(),
        "caller-supplied and runner-created registries must drive identical trajectories"
    );
    println!(
        "adaptive sensor-plane check: ok ({} windows, byte-identical)",
        a.trajectory_text().lines().count()
    );
}

fn check_threaded_scrape() {
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
    let mut cfg = sim_cfg(Policy::preemptdb(), Some(registry.clone()));
    cfg.n_workers = 2;
    cfg.arrival_interval = hz / 1_000;
    cfg.duration = hz / 5; // 200 ms wall clock
    let worker = std::thread::spawn(move || sched::run(Runtime::Threads, cfg, Box::new(Synthetic)));

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let addr = loop {
        if let Some(a) = registry.bound_addr() {
            break a;
        }
        assert!(std::time::Instant::now() < deadline, "endpoint never bound");
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    // Scrape mid-run, giving the sampler a refresh interval first.
    std::thread::sleep(std::time::Duration::from_millis(60));
    let body = metrics::serve::scrape(addr, "/metrics").expect("scrape /metrics");
    let report = worker.join().expect("threaded run");

    let exp = metrics::parse_prometheus(&body).expect("scrape parses");
    metrics::validate_histograms(&exp).expect("histogram invariants hold");
    let required = [
        Counter::UintrDelivered,
        Counter::WatchdogResends,
        Counter::StarvationSkips,
        Counter::Degrades,
        Counter::FaultsInjected,
        // The scheduler/worker accounting that has no other copy.
        Counter::Preemptions,
        Counter::CoopYields,
        Counter::HighOnRegular,
        Counter::BusyCycles,
        Counter::SchedTicks,
        Counter::AbandonedBatches,
        Counter::RetryAbandonedHigh,
    ]
    .map(|c| format!("{}_{}_total", metrics::NAMESPACE, c.name()));
    let latency = format!("{}_uintr_delivery_latency_cycles_bucket", metrics::NAMESPACE);
    for series in required.iter().chain([&latency]) {
        assert!(
            exp.all(series).next().is_some(),
            "required series {series} missing from scrape"
        );
    }
    let ticks = format!("{}_{}_total", metrics::NAMESPACE, Counter::SchedTicks.name());
    assert!(exp.value(&ticks, &[]).unwrap_or(0.0) > 0.0, "ticks counted mid-run");
    assert!(
        exp.value(&format!("{}_slo_burn_rate", metrics::NAMESPACE), &[("kind", "point")])
            .is_some(),
        "SLO burn-rate gauge missing from scrape"
    );
    assert!(report.completed("point") > 0, "threaded run made progress");
    println!("threaded scrape check: ok ({} bytes of exposition)", body.len());
}

/// A failed gate panics with the broken invariant (nonzero exit).
pub fn run(args: &[String]) -> ExitCode {
    let report = check_seeded_sim();
    if crate::cli::flag(args, "--check") {
        check_adaptive_identity();
        check_threaded_scrape();
        println!("metrics_dump --check: all gates passed");
    } else {
        dump(&report.metrics_snapshot);
    }
    ExitCode::SUCCESS
}
