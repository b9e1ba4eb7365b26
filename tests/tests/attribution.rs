//! Attribution-identity tests (ISSUE 10, satellite 3): the latency
//! provenance plane on the deterministic simulator.
//!
//! * per-request phase sums equal end-to-end latency — certified by a
//!   zero `window_mismatch` count and by the trace-side class totals
//!   matching the independently-fed registry phase histograms exactly;
//! * same-seed runs produce byte-identical attribution reports;
//! * the flight recorder fires exactly on SLO breach: an unreachable
//!   bound captures nothing, a zero bound captures every commit.

use preemptdb::metrics::{FixedHist, MetricsConfig, MetricsRegistry};
use preemptdb::prov::{Phase, ProvConfig};
use preemptdb::sched::{
    run, DriverConfig, Policy, Request, RunReport, Runtime, WorkOutcome, WorkloadFactory,
};
use preemptdb::trace::{TraceConfig, TraceSession};
use preemptdb::SimConfig;

/// Long low-priority "scans" and short high-priority "points": scans sit
/// in preemption-point loops long enough that high batches preempt them,
/// so the preempted-out and handler phases are exercised, not just queue
/// and run.
struct Counted {
    scan_iters: u64,
}

impl WorkloadFactory for Counted {
    fn make_low(&mut self, now: u64) -> Option<Request> {
        let iters = self.scan_iters;
        Some(Request::new("scan", 0, now, move || {
            for _ in 0..iters {
                preemptdb::context::runtime::preempt_point(1_000);
            }
            WorkOutcome::default()
        }))
    }

    fn make_high(&mut self, now: u64) -> Option<Request> {
        Some(Request::new("point", 1, now, move || {
            for _ in 0..20 {
                preemptdb::context::runtime::preempt_point(1_000);
            }
            WorkOutcome::default()
        }))
    }
}

const N_WORKERS: usize = 4;

fn prov_cfg(policy: Policy, duration_ms: u64, prov: ProvConfig) -> DriverConfig {
    DriverConfig {
        n_workers: N_WORKERS,
        batch_size: 8,
        duration: duration_ms * 2_400_000,
        trace: Some(TraceSession::new(TraceConfig::default())),
        metrics: Some(MetricsRegistry::new(MetricsConfig::default())),
        prov: Some(prov),
        ..DriverConfig::paper_default(policy)
    }
}

fn run_attributed(cfg: DriverConfig) -> RunReport {
    run(
        Runtime::Simulated(SimConfig::default()),
        cfg,
        Box::new(Counted { scan_iters: 2_000 }),
    )
}

/// Phase sums equal end-to-end latency, cycle-exact on the simulator:
/// no span's window phases disagree with its begin→commit duration, and
/// the trace-side reconstruction matches the worker-fed registry phase
/// histograms (count and cycle sum) on every phase of both classes.
#[test]
fn phase_sums_equal_end_to_end_latency() {
    let r = run_attributed(prov_cfg(Policy::preemptdb(), 40, ProvConfig::default()));
    let t = r.trace.as_ref().expect("trace recorded");
    assert_eq!(t.dropped, 0, "a lossy trace cannot certify attribution");
    let attr = r.attribution.as_ref().expect("attribution reconstructed");

    // Per-request identity: every committed span's window phases sum
    // exactly to its begin→commit duration.
    assert_eq!(attr.window_mismatch, 0, "phase sums must equal span durations");
    assert_eq!(attr.unmatched, 0);
    assert_eq!(attr.incomplete, 0);
    assert!(attr.attributed > 0, "run must commit transactions");

    // Cross-plane identity: the reconstruction (trace rings only) and
    // the registry histograms (worker commit path only) are independent
    // measurement paths; they must agree exactly.
    let snap = &r.metrics_snapshot;
    for (c, cls) in attr.classes.iter().enumerate() {
        assert!(cls.completed > 0, "class {c} must complete work");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let reg = snap.fixed(FixedHist::phase(i, c == 1));
            assert_eq!(
                reg.count(),
                cls.completed,
                "class {c} phase {} count drifted between planes",
                phase.label()
            );
            assert_eq!(
                reg.sum,
                cls.phase_sums[i],
                "class {c} phase {} cycle sum drifted between planes",
                phase.label()
            );
        }
        // Simulator runs have no front door: e2e == scheduler latency.
        assert_eq!(cls.e2e, cls.latency, "admission must be zero in sim");
        assert_eq!(cls.latency.count, cls.completed);
    }

    // Preemption actually happened and was attributed: the low class
    // carries preempted-out cycles, the high class queue-waits.
    assert!(
        attr.classes[0].phase_sums[Phase::Preempted as usize] > 0,
        "scans must record preempted-out time under Preempt"
    );
    assert!(attr.classes[1].phase_sums[Phase::Queue as usize] > 0);
}

/// Same seed, same config: the attribution report is byte-identical.
#[test]
fn same_seed_attribution_is_byte_identical() {
    let a = run_attributed(prov_cfg(Policy::preemptdb(), 30, ProvConfig::default()));
    let b = run_attributed(prov_cfg(Policy::preemptdb(), 30, ProvConfig::default()));
    let (a, b) = (
        a.attribution.as_ref().expect("attribution"),
        b.attribution.as_ref().expect("attribution"),
    );
    assert!(a.attributed > 0);
    assert_eq!(a.canonical_text(), b.canonical_text());
    assert_eq!(a.to_json(), b.to_json());
}

/// Exemplar capture fires exactly on SLO breach: an unreachable bound
/// captures nothing; a zero bound (with recorder capacity to spare)
/// captures every committed request, each tagged with its class bound.
#[test]
fn exemplar_capture_fires_exactly_on_slo_breach() {
    let none = run_attributed(prov_cfg(Policy::preemptdb(), 30, ProvConfig::default()));
    assert!(
        none.exemplars.is_empty(),
        "nothing breaches an unreachable SLO"
    );
    assert_eq!(none.flight_missed, 0);

    let all = run_attributed(prov_cfg(
        Policy::preemptdb(),
        30,
        ProvConfig {
            slo_cycles: [0, 0],
            exemplars_per_worker: 4096,
        },
    ));
    let attr = all.attribution.as_ref().expect("attribution");
    assert_eq!(attr.ring_dropped, 0);
    assert_eq!(
        all.exemplars.len() as u64,
        attr.attributed,
        "every commit breaches a zero SLO and must be captured"
    );
    assert_eq!(all.flight_missed, 0, "commit-path captures never contend");
    for ex in &all.exemplars {
        assert!(ex.latency > ex.slo, "captured without breaching");
        assert_eq!(ex.slo, 0);
        assert_eq!(
            ex.phases.iter().sum::<u64>(),
            ex.latency,
            "an exemplar's phases must sum to its recorded latency"
        );
        assert!((ex.worker as usize) < N_WORKERS);
    }
    // Both classes breach a zero bound.
    for class in [0u8, 1u8] {
        assert!(
            all.exemplars.iter().any(|e| e.class == class),
            "class {class} missing from the exemplar set"
        );
    }
}
