//! End-to-end assertions of the paper's evaluation *shapes* (§6) at test
//! scale: who wins, in what direction, under which regime. These are the
//! same runs the `preempt-bench` figures perform, shrunk to seconds.

use preemptdb::sched::{run, DriverConfig, Policy, RunReport, Runtime};
use preemptdb::workloads::{kinds, setup_mixed, MixedWorkload, TpccScale, TpchScale};
use preemptdb::SimConfig;

fn small_tpcc(warehouses: u64) -> TpccScale {
    TpccScale {
        warehouses,
        districts_per_wh: 4,
        customers_per_district: 100,
        items: 500,
        preloaded_orders: 10,
    }
}

fn small_tpch() -> TpchScale {
    // Q2 must stay *longer* than the scheduler's 1 ms low-queue refill
    // interval, or workers idle between Q2s and the "long transactions
    // monopolize the CPU" premise (paper §1) does not hold.
    TpchScale {
        parts: 12_000,
        suppliers: 200,
        suppliers_per_part: 4,
        nations: 25,
        regions: 5,
        sizes: 20,
        types: 10,
    }
}

fn run_policy(policy: Policy, workers: usize, duration_ms: u64, high_queue: usize) -> RunReport {
    let sim = SimConfig::default();
    let (_e, tpcc, tpch) = setup_mixed(
        workers as u64,
        Some(small_tpcc(workers as u64)),
        Some(small_tpch()),
        17,
    );
    let cfg = DriverConfig {
        n_workers: workers,
        queue_caps: vec![1, high_queue],
        batch_size: workers * high_queue,
        arrival_interval: sim.us_to_cycles(1_000),
        duration: sim.ms_to_cycles(duration_ms),
        ..DriverConfig::paper_default(policy)
    };
    let factory = MixedWorkload::new(tpcc, tpch, 23);
    run(Runtime::Simulated(sim), cfg, Box::new(factory))
}

/// Figure 10's headline: PreemptDB cuts high-priority latency by ~an
/// order of magnitude vs Wait at every percentile, Cooperative lands in
/// between on the tail, and Q2 is essentially unaffected.
#[test]
fn preemption_cuts_high_priority_latency() {
    let wait = run_policy(Policy::Wait, 8, 80, 4);
    let coop = run_policy(Policy::cooperative(), 8, 80, 4);
    let pre = run_policy(Policy::preemptdb(), 8, 80, 4);

    for r in [&wait, &coop, &pre] {
        assert!(r.completed(kinds::NEW_ORDER) > 200, "enough samples");
        assert!(r.completed(kinds::Q2) > 50);
    }

    for pct in [50.0, 90.0, 99.0] {
        let w = wait.latency_us(kinds::NEW_ORDER, pct);
        let p = pre.latency_us(kinds::NEW_ORDER, pct);
        assert!(
            p * 5.0 < w,
            "p{pct}: PreemptDB {p:.0}us should be >=5x below Wait {w:.0}us"
        );
    }
    // Cooperative's tail sits between Wait and PreemptDB (paper Fig. 10).
    let (w99, c99, p99) = (
        wait.latency_us(kinds::NEW_ORDER, 99.0),
        coop.latency_us(kinds::NEW_ORDER, 99.0),
        pre.latency_us(kinds::NEW_ORDER, 99.0),
    );
    assert!(p99 < c99 && c99 < w99, "tail ordering: {p99} < {c99} < {w99}");

    // Q2 latency under PreemptDB stays within ~15 % of Wait's.
    let wq = wait.latency_us(kinds::Q2, 99.0);
    let pq = pre.latency_us(kinds::Q2, 99.0);
    assert!(
        pq < wq * 1.15,
        "Q2 p99 unaffected by preemption: wait={wq:.0}us preempt={pq:.0}us"
    );
    // And preemption actually happened.
    assert!(pre.workers.preemptions > 50, "{}", pre.workers.preemptions);
    assert!(pre.workers.uintr_delivered > 50);
}

/// Figure 12's mechanism: under an overloading high-priority stream,
/// starvation threshold 0 restores Q2 throughput, disabled (100) starves
/// it, 0.75 lands in between — and the NewOrder tail moves the other way.
#[test]
fn starvation_prevention_trades_q2_for_neworder() {
    let run_thr = |thr: f64| {
        let sim = SimConfig::default();
        let (_e, tpcc, tpch) = setup_mixed(4, Some(small_tpcc(4)), Some(small_tpch()), 31);
        let cfg = DriverConfig {
            n_workers: 4,
            queue_caps: vec![1, 100],
            batch_size: 400,
            arrival_interval: sim.us_to_cycles(1_000),
            duration: sim.ms_to_cycles(60),
            ..DriverConfig::paper_default(Policy::Preemptive {
                starvation_threshold: thr,
            })
        };
        run(
            Runtime::Simulated(sim),
            cfg,
            Box::new(MixedWorkload::new(tpcc, tpch, 5)),
        )
    };

    let protected = run_thr(0.0);
    let balanced = run_thr(0.75);
    let disabled = run_thr(100.0);

    let (q_protected, q_balanced, q_disabled) = (
        protected.tps(kinds::Q2),
        balanced.tps(kinds::Q2),
        disabled.tps(kinds::Q2),
    );
    assert!(
        q_protected > q_disabled * 3.0,
        "threshold 0 restores Q2: {q_protected:.0} vs disabled {q_disabled:.0}"
    );
    assert!(
        q_protected >= q_balanced && q_balanced >= q_disabled,
        "Q2 monotone in protection: {q_protected:.0} >= {q_balanced:.0} >= {q_disabled:.0}"
    );
    // The other side of the trade: protecting Q2 slows high-priority work.
    let no_protected = protected.latency_us(kinds::NEW_ORDER, 99.0);
    let no_disabled = disabled.latency_us(kinds::NEW_ORDER, 99.0);
    assert!(
        no_protected > no_disabled,
        "NewOrder tail pays for Q2 protection: {no_protected:.0}us vs {no_disabled:.0}us"
    );
    // The scheduler actually exercised decision site 1.
    assert!(protected.scheduler.skipped_starving > 0);
}

/// Figure 8's overhead claim: arming the uintr machinery on a pure OLTP
/// workload costs only a few percent.
#[test]
fn uintr_machinery_overhead_is_small() {
    use preemptdb::workloads::TpccWorkload;
    let sim = SimConfig::default();
    let mut results = Vec::new();
    for on in [false, true] {
        let (_e, tpcc, _tpch) = setup_mixed(4, Some(small_tpcc(4)), Some(small_tpch()), 3);
        let policy = if on { Policy::preemptdb() } else { Policy::Wait };
        let cfg = DriverConfig {
            n_workers: 4,
            queue_caps: vec![64, 4],
            batch_size: 0,
            arrival_interval: sim.us_to_cycles(1_000),
            duration: sim.ms_to_cycles(60),
            always_interrupt: on,
            ..DriverConfig::paper_default(policy)
        };
        results.push(run(
            Runtime::Simulated(sim),
            cfg,
            Box::new(TpccWorkload::new(tpcc, 9)),
        ));
    }
    let (off, on) = (&results[0], &results[1]);
    let overhead = 1.0 - on.total_tps() / off.total_tps();
    assert!(
        overhead < 0.06,
        "uintr machinery overhead {:.1}% exceeds a few percent",
        overhead * 100.0
    );
    assert!(on.scheduler.interrupts_sent > 100, "interrupts were sent");
}

/// Determinism: identical configuration twice → identical results, down
/// to tail percentiles (the virtual-time substrate's core property).
#[test]
fn simulated_runs_are_reproducible() {
    let a = run_policy(Policy::preemptdb(), 4, 40, 4);
    let b = run_policy(Policy::preemptdb(), 4, 40, 4);
    assert_eq!(a.completed(kinds::NEW_ORDER), b.completed(kinds::NEW_ORDER));
    assert_eq!(a.completed(kinds::Q2), b.completed(kinds::Q2));
    assert_eq!(a.workers.preemptions, b.workers.preemptions);
    for pct in [50.0, 99.0, 99.9] {
        assert_eq!(
            a.latency_us(kinds::NEW_ORDER, pct),
            b.latency_us(kinds::NEW_ORDER, pct)
        );
    }
}
