//! Accounting-plane invariants. Every count of a run lives in its
//! metrics registry (`RunReport.{metrics, scheduler, workers}` are views
//! of the final snapshot), so the independent witness is the *trace*:
//!
//! * events counted off the merged trace equal the registry's counters —
//!   commits per class, aborts, contained panics, level switches,
//!   steals, shootdowns, watchdog re-sends, worker deaths and respawns,
//!   ring loss — on a plain run, under fault injection, under chaos
//!   (wedges and panics) and on a 4-shard plane;
//! * the adaptive controller, which steers from per-window deltas of the
//!   registry's sensor plane, is byte-identical whether the caller
//!   supplied the registry or the runner created it;
//! * totals stay exact past a shard's 16-kind table;
//! * same-seed snapshots are identical, and a threaded run serving
//!   `GET /metrics` round-trips through the strict Prometheus parser with
//!   the delivery, starvation, degradation, fault, and SLO burn-rate
//!   series present.

use std::collections::HashMap;

use preempt_faults::FaultPlan;
use preemptdb::metrics::{self, Counter, MetricsConfig, MetricsRegistry, SloSpec};
use preemptdb::sched::{
    clock, run, DriverConfig, Policy, Request, RunReport, Runtime, WorkOutcome, WorkloadFactory,
};
use preemptdb::trace::{TraceConfig, TraceEvent, TraceSession};
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

/// The registry's counters equal what the merged trace saw: two planes
/// fed at the same sites by separate code, compared event for event.
fn assert_trace_matches_registry(report: &RunReport) {
    let snap = &report.metrics_snapshot;
    let trace = report.trace.as_ref().expect("run carried a trace session");
    assert_eq!(
        trace.dropped,
        snap.counter(Counter::TraceDropped),
        "ring loss"
    );
    assert_eq!(
        trace.dropped, 0,
        "a lossy trace cannot witness the counters"
    );

    let mut priority_of: HashMap<(u16, u64), u8> = HashMap::new();
    let mut commits = [0u64; 2];
    let mut seen: HashMap<&str, u64> = HashMap::new();
    for r in &trace.records {
        let name = match r.event {
            TraceEvent::TxnBegin { txn, priority } => {
                priority_of.insert((r.worker, txn), priority);
                continue;
            }
            TraceEvent::TxnCommit { txn } => {
                commits[usize::from(priority_of[&(r.worker, txn)] > 0)] += 1;
                continue;
            }
            TraceEvent::TxnAbort { .. } => "abort",
            TraceEvent::TxnPanic { .. } => "panic",
            TraceEvent::StackSwitch { from, to } if to > from => "switch_up",
            TraceEvent::StackSwitch { .. } => "switch_down",
            TraceEvent::Steal { .. } => "steal",
            TraceEvent::Shootdown { .. } => "shootdown",
            TraceEvent::WatchdogResend { .. } => "resend",
            TraceEvent::WorkerDead { .. } => "dead",
            TraceEvent::WorkerRespawn { .. } => "respawn",
            _ => continue,
        };
        *seen.entry(name).or_default() += 1;
    }
    let seen = |name: &str| seen.get(name).copied().unwrap_or(0);
    let c = |c: Counter| snap.counter(c);
    assert_eq!(commits[1], c(Counter::TxnCompletedHigh), "high commits");
    assert_eq!(commits[0], c(Counter::TxnCompletedLow), "low commits");
    assert_eq!(seen("abort"), c(Counter::TxnAborted), "aborts");
    assert_eq!(seen("panic"), c(Counter::WorkerPanics), "contained panics");
    assert_eq!(
        seen("panic"),
        report.panic_messages.len() as u64,
        "panic messages"
    );
    assert_eq!(
        seen("switch_up"),
        c(Counter::SchedEnterLevel),
        "level entries"
    );
    assert_eq!(
        seen("switch_up"),
        c(Counter::Preemptions) + c(Counter::CoopYields),
        "every level entry is a preemption or a cooperative yield"
    );
    assert_eq!(
        seen("switch_down"),
        c(Counter::SchedLeaveLevel),
        "level returns"
    );
    assert_eq!(seen("steal"), c(Counter::Steals), "steals");
    assert_eq!(seen("shootdown"), c(Counter::Shootdowns), "shootdowns");
    assert_eq!(
        seen("resend"),
        c(Counter::WatchdogResends),
        "watchdog re-sends"
    );
    assert_eq!(seen("dead"), c(Counter::WorkersDead), "worker deaths");
    assert_eq!(seen("respawn"), c(Counter::WorkersRespawned), "respawns");

    // The report's three structs are views of the same snapshot.
    assert_eq!(report.metrics.total_completed(), commits[0] + commits[1]);
    assert_eq!(report.workers.preemptions, c(Counter::Preemptions));
    assert_eq!(report.scheduler.watchdog_resends, seen("resend"));
    for (kind, m) in report.metrics.kinds() {
        let k = snap.kind(kind).expect("kind present in registry");
        assert_eq!(m.completed, k.completed, "{kind} completed");
        assert_eq!(m.latency.count(), k.latency.count(), "{kind} samples");
        for p in [25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(
                m.latency.percentile(p),
                k.latency.percentile(p),
                "{kind} p{p}"
            );
        }
    }
}

fn traced(policy: Policy, faults: Option<FaultPlan>, shards: usize) -> RunReport {
    let mut c = cfg(policy, Some(registry_with_slo()));
    c.shards = shards;
    c.trace = Some(TraceSession::new(TraceConfig::default()));
    let sim = SimConfig {
        faults,
        ..SimConfig::default()
    };
    run(Runtime::Simulated(sim), c, Box::new(Synthetic))
}

/// Supervision tuned so that a wedged worker is declared dead, and
/// respawned, well inside a 50 ms run.
fn short_leases(c: &mut DriverConfig) {
    c.robustness.dead_after = 4_800_000; // 2 ms
    c.robustness.exit_wait = 2_400_000;
    c.robustness.max_respawns = 100;
}

/// Plain seeded run: the trace and the registry count the same events.
#[test]
fn registry_snapshot_matches_trace() {
    let report = traced(Policy::preemptdb(), None, 1);
    assert_trace_matches_registry(&report);
    let snap = &report.metrics_snapshot;
    // The run actually exercised the interesting series.
    assert!(report.completed("point") > 100);
    assert!(snap.counter(Counter::UintrDelivered) > 0);
    assert!(snap.counter(Counter::Preemptions) > 0);
    assert_eq!(
        snap.counter(Counter::SchedEnterLevel),
        snap.counter(Counter::SchedLeaveLevel),
        "every preemptive level entered is left"
    );
    // Cooperative yields land in the other addend of the level identity.
    let coop = traced(
        Policy::Cooperative {
            yield_interval: 500,
        },
        None,
        1,
    );
    assert_trace_matches_registry(&coop);
    assert!(coop.workers.coop_yields > 0 && coop.workers.preemptions == 0);
}

/// Same identities under an adversarial fault plan: drops, re-sends and
/// forced aborts land in the trace and in the registry equally.
#[test]
fn cross_plane_agreement_survives_fault_injection() {
    let report = traced(
        Policy::preemptdb(),
        Some(FaultPlan::lossy(7, 100_000, 20_000)),
        1,
    );
    assert_trace_matches_registry(&report);
    let snap = &report.metrics_snapshot;
    assert!(snap.counter(Counter::FaultsInjected) > 0, "plan injected");
    assert!(
        snap.counter(Counter::WatchdogResends) > 0,
        "drops forced watchdog re-sends"
    );
}

/// Chaos: wedged workers are declared dead and respawned, transactions
/// panic into the firewall — the containment counters have a witness too.
#[test]
fn cross_plane_agreement_survives_worker_deaths_and_panics() {
    let mut c = cfg(Policy::preemptdb(), None);
    c.trace = Some(TraceSession::new(TraceConfig::default()));
    short_leases(&mut c);
    let sim = SimConfig {
        faults: Some(
            FaultPlan::quiet(11)
                .with_wedge(6, 1 << 40)
                .with_txn_panic_ppm(20_000),
        ),
        ..SimConfig::default()
    };
    let report = run(Runtime::Simulated(sim), c, Box::new(Synthetic));
    assert_trace_matches_registry(&report);
    assert!(report.scheduler.workers_dead > 0, "a lease expired");
    assert!(report.scheduler.workers_respawned > 0, "and was respawned");
    assert!(report.workers.panics > 0, "the firewall contained panics");
}

/// Four scheduler shards count into one registry — steals, shootdowns
/// and worker deaths included — with nothing merged by hand.
#[test]
fn cross_plane_agreement_holds_on_a_sharded_plane() {
    let report = traced(
        Policy::preemptdb(),
        Some(FaultPlan::lossy(7, 100_000, 20_000)),
        4,
    );
    assert_trace_matches_registry(&report);
    assert_eq!(
        report.scheduler.ticks,
        4 * 50,
        "every shard's ticks are summed"
    );

    /// Three lows per refill round: the first worker of a shard gets
    /// them all, so its sibling has something to steal.
    struct Bursty {
        at: u64,
        left: u32,
    }
    impl WorkloadFactory for Bursty {
        fn make_low(&mut self, now: u64) -> Option<Request> {
            if now != self.at {
                (self.at, self.left) = (now, 3);
            }
            self.left = self.left.checked_sub(1)?;
            Synthetic.make_low(now)
        }
        fn make_high(&mut self, now: u64) -> Option<Request> {
            Synthetic.make_high(now)
        }
    }
    let mut c = cfg(Policy::preemptdb(), None);
    (c.n_workers, c.shards, c.batch_size) = (8, 4, 32);
    c.queue_caps = vec![4, 4];
    c.trace = Some(TraceSession::new(TraceConfig::default()));
    short_leases(&mut c);
    let sim = SimConfig {
        faults: Some(FaultPlan::quiet(11).with_wedge(6, 1 << 40)),
        ..SimConfig::default()
    };
    let report = run(
        Runtime::Simulated(sim),
        c,
        Box::new(Bursty { at: 0, left: 0 }),
    );
    assert_trace_matches_registry(&report);
    assert!(
        report.workers.steals > 0,
        "idle workers stole from siblings"
    );
    assert!(
        report.scheduler.shootdowns > 0,
        "wedged shards re-homed work"
    );
    assert!(report.scheduler.workers_dead > 0);
}

/// A ring too small for the run: the loss the merge reports is the loss
/// the registry carries.
#[test]
fn trace_loss_is_counted_in_the_registry() {
    let mut c = cfg(Policy::preemptdb(), None);
    c.trace = Some(TraceSession::new(TraceConfig {
        capacity: 256,
        ..TraceConfig::default()
    }));
    let report = run(
        Runtime::Simulated(SimConfig::default()),
        c,
        Box::new(Synthetic),
    );
    let dropped = report.trace.as_ref().expect("trace").dropped;
    assert!(dropped > 0, "the ring wrapped");
    assert_eq!(
        dropped,
        report.metrics_snapshot.counter(Counter::TraceDropped)
    );
}

/// The controller reads the registry's sensor plane; whether the caller
/// supplied that registry or the runner created it must not change a
/// single byte of the trajectory — or of anything else counted.
#[test]
fn adaptive_trajectory_identical_across_registry_sources() {
    let supplied = run_sim(Policy::preemptdb_adaptive(), Some(registry_with_slo()));
    let created = run_sim(Policy::preemptdb_adaptive(), None);
    let a = supplied.controller.as_ref().expect("controller report");
    let b = created.controller.as_ref().expect("controller report");
    assert!(a.trajectory_text().lines().count() > 1, "multiple windows");
    assert_eq!(a.trajectory_text(), b.trajectory_text());
    assert_eq!(
        supplied.metrics_snapshot.counters, created.metrics_snapshot.counters,
        "the same run was counted"
    );
    let snap = &created.metrics_snapshot;
    assert_eq!(
        snap.counter(Counter::ControllerEvals),
        a.trajectory_text().lines().count() as u64
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

/// Seventeen kinds on one worker overflow its shard's 16-slot kind
/// table: the per-kind breakdown drops one kind, the totals do not.
#[test]
fn totals_stay_exact_past_the_kind_table() {
    struct ManyKinds(usize);
    impl WorkloadFactory for ManyKinds {
        fn make_low(&mut self, _now: u64) -> Option<Request> {
            None
        }
        fn make_high(&mut self, now: u64) -> Option<Request> {
            const KINDS: [&str; 17] = [
                "k00", "k01", "k02", "k03", "k04", "k05", "k06", "k07", "k08", "k09", "k10", "k11",
                "k12", "k13", "k14", "k15", "k16",
            ];
            self.0 += 1;
            Some(Request::new(KINDS[self.0 % 17], 1, now, || {
                preemptdb::context::runtime::preempt_point(1_000);
                WorkOutcome::default()
            }))
        }
    }
    let mut c = cfg(Policy::preemptdb(), None);
    c.n_workers = 1;
    c.batch_size = 4;
    let report = run(
        Runtime::Simulated(SimConfig::default()),
        c,
        Box::new(ManyKinds(0)),
    );
    let snap = &report.metrics_snapshot;
    let counted = snap.counter(Counter::TxnCompletedHigh) + snap.counter(Counter::TxnCompletedLow);
    assert!(counted >= 17 * 4, "every kind ran: {counted}");
    assert_eq!(report.metrics.total_completed(), counted);
    assert_eq!(report.metrics.kinds().count(), 16, "table capacity");
    let by_kind: u64 = report.metrics.kinds().map(|(_, m)| m.completed).sum();
    assert!(
        by_kind < counted,
        "the 17th kind is counted but not broken out"
    );
}

/// Determinism of the metrics plane itself: two same-seed runs produce
/// identical registry snapshots (counter-for-counter, bucket-for-bucket).
#[test]
fn registry_snapshots_are_deterministic() {
    let a = run_sim(Policy::preemptdb(), Some(registry_with_slo()));
    let b = run_sim(Policy::preemptdb(), Some(registry_with_slo()));
    let (sa, sb) = (a.metrics_snapshot, b.metrics_snapshot);
    assert_eq!(sa.counters, sb.counters, "counter plane deterministic");
    for (ka, kb) in sa.kinds.iter().zip(sb.kinds.iter()) {
        assert_eq!(ka.name, kb.name);
        assert_eq!(
            ka.latency.buckets, kb.latency.buckets,
            "{} buckets",
            ka.name
        );
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
        exp.value("preemptdb_slo_burn_rate", &[("kind", "point")])
            .is_some(),
        "burn-rate gauge missing"
    );
    // The final snapshot is at or past the mid-run scrape on every
    // counter: the sampler and the scrape raced the workers and saw
    // values the cells really held.
    let delivered = exp
        .value("preemptdb_uintr_delivered_total", &[])
        .expect("delivered series");
    assert!(report.workers.uintr_delivered as f64 >= delivered);
    assert!(report.scheduler.ticks > 0 && report.metrics.total_completed() > 0);
}
