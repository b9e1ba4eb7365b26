//! Fault-injection robustness tests: the preemptive scheduling stack must
//! survive lost, delayed, duplicated, and spurious user interrupts, forced
//! transaction aborts, and dispatch failures — deterministically.
//!
//! Faults come from a seeded [`preempt_faults::FaultPlan`] installed for
//! the duration of a simulation run ([`SimConfig::faults`]); recovery is
//! the scheduler's delivery watchdog (epoch/ack re-sends), per-request
//! deadlines, and bounded retry. The acceptance bar (ISSUE 1): with 20 %
//! of interrupts dropped and 5 % of high-priority transactions
//! force-aborted, a full preemptive run completes with zero deadlocks or
//! panics, every lost wakeup is re-delivered, and same-seed reruns produce
//! byte-identical fault traces and metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use preempt_faults::FaultPlan;
use preemptdb::sched::{
    run, DriverConfig, Policy, Request, RunReport, Runtime, WorkOutcome, WorkloadFactory,
};
use preemptdb::SimConfig;
use proptest::prelude::*;

/// Long low-priority "scans" (default 2 M cycles ≈ 0.8 ms) and short
/// high-priority "points" (20 k cycles ≈ 8 µs); every point execution
/// bumps a shared counter exactly once per invocation, so double
/// executions are observable.
struct Counted {
    high_execs: Arc<AtomicU64>,
    scan_iters: u64,
}

impl Counted {
    fn new() -> (Counted, Arc<AtomicU64>) {
        Counted::with_scan_iters(2_000)
    }

    fn with_scan_iters(scan_iters: u64) -> (Counted, Arc<AtomicU64>) {
        let c = Arc::new(AtomicU64::new(0));
        (
            Counted {
                high_execs: c.clone(),
                scan_iters,
            },
            c,
        )
    }
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
        let execs = self.high_execs.clone();
        Some(Request::new("point", 1, now, move || {
            execs.fetch_add(1, Ordering::Relaxed);
            for _ in 0..20 {
                preemptdb::context::runtime::preempt_point(1_000);
            }
            WorkOutcome::default()
        }))
    }
}

const N_WORKERS: usize = 4;
const HIGH_CAP: usize = 4;

fn small_cfg(policy: Policy, duration_ms: u64) -> DriverConfig {
    DriverConfig {
        n_workers: N_WORKERS,
        queue_caps: vec![1, HIGH_CAP],
        batch_size: 8,
        duration: duration_ms * 2_400_000,
        ..DriverConfig::paper_default(policy)
    }
}

fn run_with(plan: FaultPlan, cfg: DriverConfig, factory: Box<dyn WorkloadFactory>) -> RunReport {
    let sim = SimConfig {
        faults: Some(plan),
        ..SimConfig::default()
    };
    run(Runtime::Simulated(sim), cfg, factory)
}

/// Requests still sitting in queues when the run's duration expires are
/// neither completed nor aborted; they are bounded by total queue space.
const SHUTDOWN_SLACK: u64 = (N_WORKERS * HIGH_CAP) as u64;

/// 20 % interrupt drop: the run terminates (the simulator panics on
/// deadlock, so completion *is* the liveness assertion), the watchdog
/// re-delivers the lost wakeups, and every dispatched high-priority
/// request is accounted for.
#[test]
fn watchdog_survives_dropped_interrupts() {
    let plan = FaultPlan::quiet(7).with_drop_ppm(200_000);
    let (factory, execs) = Counted::new();
    let r = run_with(plan, small_cfg(Policy::preemptdb(), 40), Box::new(factory));

    let faults = r.faults.as_ref().expect("ran under a fault plan");
    assert!(faults.uipi_sends > 0, "sends were exercised");
    assert!(faults.uipi_dropped > 0, "the plan actually dropped sends");
    assert!(
        r.scheduler.watchdog_resends > 0,
        "lost wakeups were re-delivered"
    );

    let k = r.metrics.kind("point").expect("high stream ran");
    assert!(k.completed > 0);
    assert_eq!(k.completed, execs.load(Ordering::Relaxed));
    let accounted = k.completed + k.deadline_aborted + k.failed;
    assert!(
        accounted + SHUTDOWN_SLACK >= r.scheduler.dispatched_high,
        "dispatched {} but only {} accounted (+{} shutdown slack)",
        r.scheduler.dispatched_high,
        accounted,
        SHUTDOWN_SLACK
    );
}

/// Duplicated and spurious interrupts are delivery-level noise: they may
/// cause empty preemptions, but a dispatched request is executed exactly
/// once.
#[test]
fn duplicate_and_spurious_interrupts_never_double_execute() {
    let plan = FaultPlan::quiet(11)
        .with_duplicate_ppm(400_000)
        .with_spurious_ppm(300_000);
    let (factory, execs) = Counted::new();
    let r = run_with(plan, small_cfg(Policy::preemptdb(), 40), Box::new(factory));

    let faults = r.faults.as_ref().expect("ran under a fault plan");
    assert!(faults.uipi_duplicated > 0);
    assert!(faults.uipi_spurious > 0);

    let k = r.metrics.kind("point").expect("high stream ran");
    assert!(k.completed > 0);
    assert_eq!(
        execs.load(Ordering::Relaxed),
        k.completed,
        "every execution completed and nothing ran twice"
    );
}

/// Same seed ⇒ byte-identical fault trace and identical metrics, even
/// with drops, duplicates, and injected stalls in the mix.
#[test]
fn same_seed_reproduces_identical_trace_and_metrics() {
    let plan = FaultPlan::lossy(42, 150_000, 0)
        .with_duplicate_ppm(100_000)
        .with_spurious_ppm(50_000)
        .with_stall(50_000, 10_000);
    let mk = || {
        let (factory, _) = Counted::new();
        run_with(plan, small_cfg(Policy::preemptdb(), 30), Box::new(factory))
    };
    let a = mk();
    let b = mk();

    let ta = a.fault_trace.as_ref().expect("trace recorded");
    let tb = b.fault_trace.as_ref().expect("trace recorded");
    assert!(!ta.is_empty());
    assert_eq!(ta, tb, "fault traces are byte-identical");
    assert_eq!(a.faults, b.faults, "fault counters identical");
    assert_eq!(a.completed("point"), b.completed("point"));
    assert_eq!(a.completed("scan"), b.completed("scan"));
    assert_eq!(a.scheduler.watchdog_resends, b.scheduler.watchdog_resends);
    assert_eq!(a.scheduler.dispatched_high, b.scheduler.dispatched_high);
    assert_eq!(
        a.metrics.kind("point").unwrap().latency.percentile(99.0),
        b.metrics.kind("point").unwrap().latency.percentile(99.0),
    );
}

/// A tight per-request deadline under the non-preemptive Wait policy:
/// points stranded behind ~1.7 ms scans (longer than the 1 ms batch
/// interval, so workers are always mid-scan when a batch lands) blow
/// their 100 µs budget and are recorded as deadline aborts instead of
/// executing late (or hanging).
#[test]
fn deadlines_abort_stranded_requests() {
    let mut cfg = small_cfg(Policy::Wait, 40);
    cfg.robustness.high_deadline = Some(240_000); // 100 µs
    let (factory, execs) = Counted::with_scan_iters(4_000);
    let r = run_with(FaultPlan::quiet(3), cfg, Box::new(factory));

    let k = r.metrics.kind("point").expect("high stream ran");
    assert!(
        k.deadline_aborted > 0,
        "some points must miss a 100 µs deadline behind 1.7 ms scans"
    );
    assert_eq!(
        k.completed,
        execs.load(Ordering::Relaxed),
        "deadline-aborted requests were never executed"
    );
    let accounted = k.completed + k.deadline_aborted + k.failed;
    assert!(accounted + SHUTDOWN_SLACK >= r.scheduler.dispatched_high);
}

/// Uncommitted outcomes are retried with backoff up to the budget; a
/// request that keeps failing is recorded as failed, never as completed,
/// and the retry count is preserved.
#[test]
fn retry_budget_bounds_reexecution() {
    struct FlakyHigh {
        attempts: Arc<AtomicU64>,
    }
    impl WorkloadFactory for FlakyHigh {
        fn make_low(&mut self, _now: u64) -> Option<Request> {
            None
        }
        fn make_high(&mut self, now: u64) -> Option<Request> {
            let attempts = self.attempts.clone();
            Some(Request::new("flaky", 1, now, move || {
                attempts.fetch_add(1, Ordering::Relaxed);
                preemptdb::context::runtime::preempt_point(1_000);
                WorkOutcome::failed(0) // never commits
            }))
        }
    }
    let attempts = Arc::new(AtomicU64::new(0));
    let mut cfg = small_cfg(Policy::preemptdb(), 10);
    cfg.batch_size = 2;
    cfg.robustness.max_retries = 3;
    let r = run_with(
        FaultPlan::quiet(5),
        cfg,
        Box::new(FlakyHigh {
            attempts: attempts.clone(),
        }),
    );

    let k = r.metrics.kind("flaky").expect("flaky stream ran");
    assert_eq!(k.completed, 0, "a never-committing request cannot complete");
    assert!(k.failed > 0, "budget exhaustion is recorded");
    assert_eq!(
        attempts.load(Ordering::Relaxed),
        k.failed * 4,
        "each failed request ran exactly 1 + max_retries times"
    );
}

/// The acceptance scenario: the paper's mixed workload (TPC-H Q2 low,
/// TPC-C high) through the real MVCC engine under a plan that drops 20 %
/// of interrupts and force-aborts 5 % of commits. The run must finish
/// with transactions committed on both streams and forced aborts absorbed
/// by the engine-level retry loops.
#[test]
fn mixed_workload_survives_lossy_plan() {
    use preemptdb::workloads::{setup_mixed, MixedWorkload, TpccScale, TpchScale};
    let (_engine, tpcc, tpch) =
        setup_mixed(1, Some(TpccScale::tiny()), Some(TpchScale::tiny()), 5);
    let factory = MixedWorkload::new(tpcc, tpch, 9);

    let plan = FaultPlan::lossy(13, 200_000, 50_000);
    let mut cfg = small_cfg(Policy::preemptdb(), 30);
    cfg.n_workers = 2;
    let r = run_with(plan, cfg, Box::new(factory));

    let faults = r.faults.as_ref().expect("ran under a fault plan");
    assert!(faults.uipi_dropped > 0, "interrupts were dropped");
    assert!(faults.forced_aborts > 0, "commits were force-aborted");
    assert!(
        r.metrics.kind("q2").map(|k| k.completed).unwrap_or(0) > 0,
        "low-priority analytics still complete"
    );
    let high: u64 = ["neworder", "payment"]
        .iter()
        .filter_map(|k| r.metrics.kind(k))
        .map(|k| k.completed)
        .sum();
    assert!(high > 0, "high-priority OLTP still completes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Liveness + exactly-once hold for arbitrary seeds under a mixed
    /// drop/duplicate/spurious plan (the simulator panics on deadlock, so
    /// merely finishing is the liveness half).
    #[test]
    fn no_deadlock_or_double_execution_for_any_seed(seed in 0u64..u64::MAX / 2) {
        let plan = FaultPlan::quiet(seed)
            .with_drop_ppm(200_000)
            .with_duplicate_ppm(50_000)
            .with_spurious_ppm(50_000);
        let (factory, execs) = Counted::new();
        let r = run_with(plan, small_cfg(Policy::preemptdb(), 15), Box::new(factory));

        let k = r.metrics.kind("point").expect("high stream ran");
        prop_assert!(k.completed > 0, "progress despite faults");
        prop_assert_eq!(k.completed, execs.load(Ordering::Relaxed));
        let accounted = k.completed + k.deadline_aborted + k.failed;
        prop_assert!(accounted + SHUTDOWN_SLACK >= r.scheduler.dispatched_high);
    }
}
