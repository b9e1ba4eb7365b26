//! Live observability, end to end: a threaded PreemptDB run exposes the
//! metrics registry on a loopback `GET /metrics` endpoint while it
//! executes; this example scrapes it twice mid-run (the crate is its own
//! curl), parses the Prometheus exposition, and prints the uintr
//! delivery counters and SLO burn rate as they advance.
//!
//! ```sh
//! cargo run --release --example live_metrics
//! ```

use std::time::Duration;

use preemptdb::metrics::{self, Counter, MetricsConfig, MetricsRegistry, SloSpec};
use preemptdb::sched::clock;
use preemptdb::sched::{run, DriverConfig, Policy, Runtime};
use preemptdb::{Request, WorkOutcome, WorkloadFactory};

/// Long low-priority "scans" (~2 ms) and short high-priority points.
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

fn main() {
    let hz = clock::freq_hz();
    let registry = MetricsRegistry::new(MetricsConfig {
        serve: true,
        // 100 µs end-to-end bound on points, violated ≤ 1% of the time.
        slos: vec![SloSpec {
            kind: "point",
            latency_bound_cycles: hz / 10_000,
            target_ppm: 10_000,
        }],
        sample_interval_ms: 20,
        ..MetricsConfig::default()
    });
    let cfg = DriverConfig {
        n_workers: 2,
        batch_size: 8,
        arrival_interval: hz / 1_000, // 1 ms
        duration: hz / 2,             // 500 ms wall clock
        metrics: Some(registry.clone()),
        ..DriverConfig::paper_default(Policy::preemptdb())
    };

    let worker = std::thread::spawn(move || run(Runtime::Threads, cfg, Box::new(Synthetic)));

    // The endpoint binds port 0; poll until the sampler publishes it.
    let addr = loop {
        if let Some(a) = registry.bound_addr() {
            break a;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    println!("scraping http://{addr}/metrics while the run executes\n");

    for i in 1..=2u32 {
        std::thread::sleep(Duration::from_millis(150));
        let body = metrics::serve::scrape(addr, "/metrics").expect("scrape");
        let exp = metrics::parse_prometheus(&body).expect("valid exposition");
        metrics::validate_histograms(&exp).expect("histogram invariants");
        let delivered = exp
            .value(&format!("{}_{}_total", metrics::NAMESPACE, Counter::UintrDelivered.name()), &[])
            .unwrap_or(0.0);
        let completed = exp
            .value(&format!("{}_txn_completed_high_total", metrics::NAMESPACE), &[])
            .unwrap_or(0.0);
        let burn = exp.value(
            &format!("{}_slo_burn_rate", metrics::NAMESPACE),
            &[("kind", "point")],
        );
        println!(
            "scrape {i}: uintr_delivered={delivered:.0} high_completed={completed:.0} \
             slo_burn_rate={}",
            burn.map(|b| format!("{b:.3}")).unwrap_or_else(|| "n/a".into()),
        );
    }

    let report = worker.join().expect("run finished");
    println!(
        "\nrun done: {} points completed, p99 = {:.1} µs; final snapshot has {} delivered interrupts",
        report.completed("point"),
        report.latency_us("point", 99.0),
        report.metrics_snapshot.counter(Counter::UintrDelivered),
    );
}
