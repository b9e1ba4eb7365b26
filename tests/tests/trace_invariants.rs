//! Trace-based invariant tests (ISSUE 3): run the scheduling stack on the
//! deterministic simulator with `preempt-trace` recording enabled, then
//! check lifecycle invariants on the merged event trace.
//!
//! * every `HandlerEnter` is preceded by a matching `UipiSent` and
//!   `PendingNoticed` on that worker;
//! * handler enter/exit events nest properly and never exceed the
//!   configured level count;
//! * no preemption event lands between a latch acquire and its release;
//! * every `WatchdogResend` is eventually followed by a delivery on the
//!   target worker or a degradation flip;
//! * same-seed runs produce byte-identical merged traces for the Wait,
//!   Cooperative, and Preempt policies;
//! * with tracing disabled the run records nothing.

use preempt_faults::FaultPlan;
use preemptdb::sched::{
    run, DriverConfig, Policy, Request, RunReport, Runtime, WorkOutcome, WorkloadFactory,
};
use preemptdb::trace::{MergedTrace, TraceConfig, TraceEvent, TraceSession};
use preemptdb::SimConfig;

/// Long low-priority "scans" and short high-priority "points", as in the
/// fault-injection tests: scans sit in preemption-point loops long enough
/// that every high-priority batch triggers real preemptions.
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

fn traced_cfg(policy: Policy, duration_ms: u64, trace: Option<TraceSession>) -> DriverConfig {
    DriverConfig {
        n_workers: N_WORKERS,
        batch_size: 8,
        duration: duration_ms * 2_400_000,
        trace,
        ..DriverConfig::paper_default(policy)
    }
}

fn run_traced(cfg: DriverConfig, faults: Option<FaultPlan>) -> RunReport {
    let sim = SimConfig {
        faults,
        ..SimConfig::default()
    };
    run(
        Runtime::Simulated(sim),
        cfg,
        Box::new(Counted { scan_iters: 2_000 }),
    )
}

/// A preemptive run with a live session yields a non-empty merged trace,
/// with no ring overflow at this scale, and a populated send→handler
/// latency breakdown on the report (the ISSUE 3 acceptance check).
#[test]
fn preempt_run_produces_trace_and_breakdown() {
    let session = TraceSession::new(TraceConfig::default());
    let r = run_traced(
        traced_cfg(Policy::preemptdb(), 40, Some(session)),
        None,
    );
    let t = r.trace.as_ref().expect("session was installed");
    assert!(!t.is_empty());
    assert_eq!(t.dropped, 0, "rings must not overflow at this scale");
    // One ring per worker plus the scheduler's.
    assert_eq!(t.ring_labels.len(), N_WORKERS + 1);
    let b = r.preempt_breakdown.as_ref().expect("derived from trace");
    assert!(b.send_to_notice.count > 0, "sends paired with notices");
    assert!(b.send_to_handler.count > 0, "sends paired with handlers");
    assert!(
        b.send_to_notice.min > 0,
        "virtual delivery latency is nonzero (uintr_delivery_cycles)"
    );
}

/// Lifecycle causality per worker: pending bits are only noticed after at
/// least as many sends targeted the worker, and handlers only enter for
/// previously noticed vectors.
#[test]
fn handler_enters_have_matching_send_and_notice() {
    let session = TraceSession::new(TraceConfig::default());
    let r = run_traced(
        traced_cfg(Policy::preemptdb(), 40, Some(session)),
        None,
    );
    let t = r.trace.as_ref().expect("trace recorded");
    assert_eq!(t.dropped, 0, "a lossy trace cannot support causal checks");

    let mut sends = [0u64; N_WORKERS];
    let mut noticed_bits = [0u64; N_WORKERS];
    let mut enters = [0u64; N_WORKERS];
    let mut saw_handler = false;
    for rec in &t.records {
        match rec.event {
            TraceEvent::UipiSent { target, .. } => {
                if let Some(s) = sends.get_mut(target as usize) {
                    *s += 1;
                }
            }
            TraceEvent::PendingNoticed { vectors } => {
                let w = rec.worker as usize;
                noticed_bits[w] += u64::from(vectors.count_ones());
                assert!(
                    noticed_bits[w] <= sends[w],
                    "worker {w} noticed {} vector bits after only {} sends at ts {}",
                    noticed_bits[w],
                    sends[w],
                    rec.ts
                );
            }
            TraceEvent::HandlerEnter { .. } => {
                let w = rec.worker as usize;
                enters[w] += 1;
                saw_handler = true;
                assert!(
                    enters[w] <= noticed_bits[w],
                    "worker {w} entered handler {} times but noticed only {} vectors at ts {}",
                    enters[w],
                    noticed_bits[w],
                    rec.ts
                );
            }
            _ => {}
        }
    }
    assert!(saw_handler, "the scenario must exercise real deliveries");
}

/// Handler enter/exit pairs nest: depth rises by one on enter, falls by
/// one on exit, never goes negative, and never exceeds the number of
/// preemptive levels (here one: `queue_caps = [1, 4]`).
#[test]
fn handler_nesting_is_balanced_and_bounded() {
    let session = TraceSession::new(TraceConfig::default());
    let cfg = traced_cfg(Policy::preemptdb(), 40, Some(session));
    let max_depth = (cfg.queue_caps.len() - 1) as u64;
    let r = run_traced(cfg, None);
    let t = r.trace.as_ref().expect("trace recorded");
    assert_eq!(t.dropped, 0);

    for w in 0..N_WORKERS as u16 {
        let mut depth = 0u64;
        let mut enters = 0u64;
        let mut exits = 0u64;
        for rec in t.worker_records(w) {
            match rec.event {
                TraceEvent::HandlerEnter { .. } => {
                    depth += 1;
                    enters += 1;
                    assert!(
                        depth <= max_depth,
                        "worker {w} handler depth {depth} exceeds {max_depth}"
                    );
                    assert_eq!(
                        u64::from(rec.depth),
                        depth,
                        "recorded depth disagrees with replayed depth"
                    );
                }
                TraceEvent::HandlerExit { .. } => {
                    assert!(depth > 0, "worker {w} handler exit without enter");
                    assert_eq!(u64::from(rec.depth), depth);
                    depth -= 1;
                    exits += 1;
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "worker {w} run ended inside a handler");
        assert_eq!(enters, exits);
        assert!(enters > 0, "worker {w} saw no deliveries");
    }
}

/// While a worker holds a storage latch, no preemption event may appear
/// on its timeline: latch scopes contain no preemption points, and
/// version-chain installs additionally run non-preemptible (§4.4).
#[test]
fn no_preemption_events_inside_latch_windows() {
    use preemptdb::workloads::{setup_mixed, MixedWorkload, TpccScale, TpchScale};
    let (_e, tpcc, tpch) = setup_mixed(1, Some(TpccScale::tiny()), Some(TpchScale::tiny()), 5);
    let factory = MixedWorkload::new(tpcc, tpch, 9);

    // Latch traffic is heavy: size the rings so nothing is evicted.
    let session = TraceSession::new(TraceConfig {
        capacity: 1 << 19,
        ..Default::default()
    });
    let mut cfg = traced_cfg(Policy::preemptdb(), 20, Some(session));
    cfg.n_workers = 2;
    let sim = SimConfig::default();
    let r = run(Runtime::Simulated(sim), cfg, Box::new(factory));
    let t = r.trace.as_ref().expect("trace recorded");
    assert_eq!(t.dropped, 0, "grow the ring capacity if this fires");

    let mut latch_events = 0u64;
    let mut preempt_events = 0u64;
    for w in 0..2u16 {
        let mut held = 0u64;
        for rec in t.worker_records(w) {
            match rec.event {
                TraceEvent::LatchAcquire { .. } => {
                    held += 1;
                    latch_events += 1;
                }
                TraceEvent::LatchRelease { .. } => {
                    held = held.saturating_sub(1);
                    latch_events += 1;
                }
                ev if ev.is_preemption() => {
                    preempt_events += 1;
                    assert_eq!(
                        held, 0,
                        "worker {w}: {ev:?} at ts {} inside a latch window",
                        rec.ts
                    );
                }
                _ => {}
            }
        }
        assert_eq!(held, 0, "worker {w} ended the run holding a latch");
    }
    assert!(latch_events > 0, "the engine workload must take latches");
    assert!(preempt_events > 0, "the run must deliver preemptions");
}

/// Under dropped interrupts, every watchdog re-send (outside the shutdown
/// tail) is eventually followed by a delivery on the target worker — or
/// the scheduler gives up on user interrupts entirely and degrades.
#[test]
fn watchdog_resends_resolve_or_degrade() {
    let session = TraceSession::new(TraceConfig::default());
    let r = run_traced(
        traced_cfg(Policy::preemptdb(), 40, Some(session)),
        Some(FaultPlan::quiet(7).with_drop_ppm(200_000)),
    );
    let t = r.trace.as_ref().expect("trace recorded");
    assert_eq!(t.dropped, 0);

    let resends: Vec<(usize, u64, u16)> = t
        .records
        .iter()
        .enumerate()
        .filter_map(|(i, rec)| match rec.event {
            TraceEvent::WatchdogResend { target } => Some((i, rec.ts, target)),
            _ => None,
        })
        .collect();
    assert!(!resends.is_empty(), "20 % drop must trigger re-sends");

    let end = t.records.last().map_or(0, |rec| rec.ts);
    // Ignore re-sends in the final 5 ms: their delivery may legitimately
    // fall past the end of the run.
    let tail = end.saturating_sub(5 * 2_400_000);
    for (i, ts, target) in resends {
        if ts >= tail {
            continue;
        }
        let resolved = t.records[i + 1..].iter().any(|rec| match rec.event {
            TraceEvent::PendingNoticed { .. } | TraceEvent::HandlerEnter { .. } => {
                rec.worker == target
            }
            TraceEvent::Degrade { on } => on,
            _ => false,
        });
        assert!(
            resolved,
            "re-send to worker {target} at ts {ts} neither delivered nor degraded"
        );
    }
}

/// With every interrupt dropped and a hair-trigger threshold, the
/// scheduler must flip to degraded mode — and the flip shows up in the
/// trace.
#[test]
fn total_interrupt_loss_degrades_in_trace() {
    let session = TraceSession::new(TraceConfig::default());
    let mut cfg = traced_cfg(Policy::preemptdb(), 40, Some(session));
    cfg.robustness.degrade_threshold_ppm = 100_000;
    cfg.robustness.degrade_window = 8;
    let r = run_traced(cfg, Some(FaultPlan::quiet(3).with_drop_ppm(1_000_000)));
    let t = r.trace.as_ref().expect("trace recorded");
    assert!(
        t.records
            .iter()
            .any(|rec| rec.event == TraceEvent::Degrade { on: true }),
        "full interrupt loss must degrade"
    );
    assert!(
        !t.records
            .iter()
            .any(|rec| matches!(rec.event, TraceEvent::HandlerEnter { .. })),
        "no handler can run when every send is dropped"
    );
}

fn canonical_trace(policy: Policy, seed_cfg_ms: u64) -> (String, MergedTrace) {
    let session = TraceSession::new(TraceConfig::default());
    let r = run_traced(traced_cfg(policy, seed_cfg_ms, Some(session)), None);
    let t = r.trace.expect("trace recorded");
    (t.canonical_text(), t)
}

/// Two runs with the same `SimConfig` seed and policy produce
/// byte-identical merged traces — for all three scheduling policies.
#[test]
fn same_config_runs_are_byte_identical() {
    for policy in [
        Policy::Wait,
        Policy::Cooperative {
            yield_interval: 10_000,
        },
        Policy::preemptdb(),
    ] {
        let (a, ta) = canonical_trace(policy, 30);
        let (b, _) = canonical_trace(policy, 30);
        assert!(!ta.is_empty(), "{policy:?} run recorded events");
        assert_eq!(a, b, "{policy:?}: merged traces must be byte-identical");
    }
}

/// Sharded-plane determinism (ISSUE 8): with the same seed and shard
/// count, runs are byte-identical at 1, 2 and 4 shards. The shared
/// workload factory is serialized behind one lock and the simulator's
/// virtual-time engine orders every shard core deterministically, so
/// admission, dispatch, steals and shootdowns replay exactly.
#[test]
fn sharded_same_seed_runs_are_byte_identical() {
    for shards in [1usize, 2, 4] {
        let mk = || {
            let session = TraceSession::new(TraceConfig::default());
            let mut cfg = traced_cfg(Policy::preemptdb(), 30, Some(session));
            cfg.shards = shards;
            let r = run_traced(cfg, None);
            let t = r.trace.expect("trace recorded");
            (t.canonical_text(), t)
        };
        let (a, ta) = mk();
        let (b, _) = mk();
        assert!(!ta.is_empty(), "shards={shards} run recorded events");
        assert_eq!(
            ta.ring_labels.len(),
            N_WORKERS + shards,
            "one ring per worker plus one per shard scheduler"
        );
        assert_eq!(
            a, b,
            "shards={shards}: merged traces must be byte-identical"
        );
    }
}

/// `trace: None` disables collection entirely: the report carries no
/// trace, and a live-but-uninstalled session observes zero events from
/// the run (workers without a registered ring record nothing).
#[test]
fn disabled_tracing_records_nothing() {
    let bystander = TraceSession::new(TraceConfig::default());
    let r = run_traced(traced_cfg(Policy::preemptdb(), 20, None), None);
    assert!(r.trace.is_none());
    assert!(r.preempt_breakdown.is_none());
    assert!(
        bystander.merge().is_empty(),
        "a session not wired into the run must stay empty"
    );
}
