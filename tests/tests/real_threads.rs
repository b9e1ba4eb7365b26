//! The real-thread runtime path with real workloads: everything the
//! simulator experiments exercise also works on plain OS threads (the
//! deployment mode of the embedded `Database`). Kept small — a 1-core CI
//! host timeshares all workers.

use preemptdb::sched::{clock, run, DriverConfig, Policy, Runtime};
use preemptdb::workloads::{kinds, setup_mixed, MixedWorkload, TpccScale, TpchScale};

fn thread_cfg(policy: Policy, duration_ms: u64) -> DriverConfig {
    let freq = clock::freq_hz();
    DriverConfig {
        n_workers: 2,
        batch_size: 8,
        arrival_interval: freq / 1_000, // 1 ms of real time
        duration: freq / 1_000 * duration_ms,
        ..DriverConfig::paper_default(policy)
    }
}

#[test]
fn mixed_workload_on_real_threads() {
    let (engine, tpcc, tpch) = setup_mixed(
        2,
        Some(TpccScale {
            warehouses: 2,
            districts_per_wh: 2,
            customers_per_district: 50,
            items: 200,
            preloaded_orders: 5,
        }),
        Some(TpchScale::tiny()),
        1,
    );
    let report = run(
        Runtime::Threads,
        thread_cfg(Policy::preemptdb(), 150),
        Box::new(MixedWorkload::new(tpcc, tpch, 2)),
    );
    assert!(report.completed(kinds::Q2) > 5, "q2: {}", report.completed(kinds::Q2));
    assert!(
        report.completed(kinds::NEW_ORDER) + report.completed(kinds::PAYMENT) > 20,
        "high-priority completions"
    );
    // Interrupts were sent and delivered on real threads.
    assert!(report.scheduler.interrupts_sent > 0);
    assert!(report.workers.uintr_delivered > 0);
    assert!(engine.stats().commits > 25);
    assert_eq!(engine.registry().active_count(), 0, "no leaked txns");
}

#[test]
fn wait_policy_on_real_threads() {
    let (_engine, tpcc, tpch) = setup_mixed(
        2,
        Some(TpccScale {
            warehouses: 2,
            districts_per_wh: 2,
            customers_per_district: 50,
            items: 200,
            preloaded_orders: 5,
        }),
        Some(TpchScale::tiny()),
        4,
    );
    let report = run(
        Runtime::Threads,
        thread_cfg(Policy::Wait, 100),
        Box::new(MixedWorkload::new(tpcc, tpch, 6)),
    );
    assert!(report.metrics.total_completed() > 20);
    assert_eq!(report.workers.preemptions, 0, "Wait never preempts");
    assert_eq!(report.scheduler.interrupts_sent, 0);
}
