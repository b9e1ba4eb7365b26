//! The paper's multi-priority-level extension (§5 Discussions): "one may
//! easily extend PreemptDB to support more fine-grained priority levels
//! by using multiple contexts/TCBs. A high-priority transaction that has
//! already interrupted a previous lower-priority transaction could then
//! be interrupted again."
//!
//! The worker supports N levels (one preemptive context per level); these
//! tests exercise three levels with *nested* preemption.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use preemptdb::context::runtime::preempt_point;
use preemptdb::metrics::{Counter, MetricsSnapshot};
use preemptdb::sched::{
    worker_main, Metrics, Policy, Request, WakeTarget, WorkOutcome, WorkerShared,
};
use preemptdb::sim::{SimConfig, SimUipiSender, Simulation};

fn nested_scenario(send_urgent: bool) -> (Vec<u64>, Arc<WorkerShared>) {
    // completion stamps: [low, mid, urgent]
    let stamps: Arc<[AtomicU64; 3]> = Arc::new(Default::default());
    let sim = Simulation::new(SimConfig::default());
    // Three priority levels: low (0), mid (1), urgent (2).
    let shared = WorkerShared::new(0, &[1, 4, 4]);

    let ws = shared.clone();
    let core = sim.spawn_core("worker", 256 * 1024, move || {
        worker_main(ws, Policy::preemptdb());
    });
    shared.set_wake_target(WakeTarget::Sim(core));

    let ws = shared.clone();
    let st = stamps.clone();
    sim.spawn_core("sched", 128 * 1024, move || {
        // Low: a 20 M cycle (~8 ms) scan.
        let s = st.clone();
        ws.queues[0]
            .push(Request::new("low", 0, 0, move || {
                for _ in 0..20_000 {
                    preempt_point(1_000);
                }
                s[0].store(preempt_sim_now(), Ordering::Relaxed);
                WorkOutcome::default()
            }))
            .ok();
        ws.wake();

        // At 1 ms: a mid-priority 5 M cycle (~2 ms) transaction.
        preemptdb::sim::api::sleep_until(2_400_000);
        let s = st.clone();
        ws.queues[1]
            .push(Request::new("mid", 1, 2_400_000, move || {
                for _ in 0..5_000 {
                    preempt_point(1_000);
                }
                s[1].store(preempt_sim_now(), Ordering::Relaxed);
                WorkOutcome::default()
            }))
            .ok();
        SimUipiSender::new(ws.upid().unwrap(), 1, core).send();

        if send_urgent {
            // At 2 ms — while the mid txn runs — an urgent 50 k cycle
            // (~20 µs) transaction that must preempt the *mid* one.
            preemptdb::sim::api::sleep_until(4_800_000);
            let s = st.clone();
            ws.queues[2]
                .push(Request::new("urgent", 2, 4_800_000, move || {
                    for _ in 0..50 {
                        preempt_point(1_000);
                    }
                    s[2].store(preempt_sim_now(), Ordering::Relaxed);
                    WorkOutcome::default()
                }))
                .ok();
            SimUipiSender::new(ws.upid().unwrap(), 2, core).send();
        }

        preemptdb::sim::api::sleep_until(80_000_000);
        ws.stop();
    });

    sim.run();
    let v = stamps.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    (v, shared)
}

fn preempt_sim_now() -> u64 {
    preemptdb::sim::api::now_cycles()
}

#[test]
fn urgent_preempts_mid_which_preempted_low() {
    let (stamps, shared) = nested_scenario(true);
    let (low, mid, urgent) = (stamps[0], stamps[1], stamps[2]);
    assert!(low > 0 && mid > 0 && urgent > 0, "all completed: {stamps:?}");

    // Nesting order: urgent finishes first (inside mid), mid second
    // (inside low), low last.
    assert!(urgent < mid, "urgent ({urgent}) inside mid ({mid})");
    assert!(mid < low, "mid ({mid}) inside low ({low})");

    // The urgent txn completed promptly after its 2 ms dispatch: delivery
    // + switch + ~20 µs of work, not after the mid txn's ~2 ms remainder.
    assert!(
        urgent < 4_800_000 + 200_000,
        "urgent done at {urgent}, dispatched at 4.8M"
    );
    // Two passive switches: into level 1, then nested into level 2.
    assert_eq!(shared.metrics_shard.counter(Counter::Preemptions), 2);

    // All three metrics kinds recorded.
    let m = Metrics::from_snapshot(&MetricsSnapshot::of_shards([&*shared.metrics_shard]));
    for kind in ["low", "mid", "urgent"] {
        assert_eq!(m.kind(kind).unwrap().completed, 1, "{kind}");
    }
}

#[test]
fn two_level_baseline_without_urgent() {
    let (stamps, shared) = nested_scenario(false);
    assert!(stamps[0] > 0 && stamps[1] > 0);
    assert_eq!(stamps[2], 0);
    assert!(stamps[1] < stamps[0], "mid preempted low");
    assert_eq!(shared.metrics_shard.counter(Counter::Preemptions), 1);
}

/// A lower-priority interrupt must NOT preempt a higher-priority
/// transaction (the §4.1 rule, generalized across levels).
#[test]
fn lower_priority_never_interrupts_higher() {
    let done_at: Arc<[AtomicU64; 2]> = Arc::new(Default::default());
    let sim = Simulation::new(SimConfig::default());
    let shared = WorkerShared::new(0, &[1, 4, 4]);

    let ws = shared.clone();
    let core = sim.spawn_core("worker", 256 * 1024, move || {
        worker_main(ws, Policy::preemptdb());
    });
    shared.set_wake_target(WakeTarget::Sim(core));

    let ws = shared.clone();
    let st = done_at.clone();
    sim.spawn_core("sched", 128 * 1024, move || {
        // An urgent (level 2) long-ish transaction starts first.
        let s = st.clone();
        ws.queues[2]
            .push(Request::new("urgent", 2, 0, move || {
                for _ in 0..5_000 {
                    preempt_point(1_000);
                }
                s[0].store(preemptdb::sim::api::now_cycles(), Ordering::Relaxed);
                WorkOutcome::default()
            }))
            .ok();
        SimUipiSender::new(ws.upid().unwrap(), 2, core).send();
        ws.wake();

        // Mid-run, a level-1 transaction arrives with an interrupt.
        preemptdb::sim::api::sleep_until(1_200_000);
        let s = st.clone();
        ws.queues[1]
            .push(Request::new("mid", 1, 1_200_000, move || {
                preempt_point(10_000);
                s[1].store(preemptdb::sim::api::now_cycles(), Ordering::Relaxed);
                WorkOutcome::default()
            }))
            .ok();
        SimUipiSender::new(ws.upid().unwrap(), 1, core).send();

        preemptdb::sim::api::sleep_until(40_000_000);
        ws.stop();
    });
    sim.run();

    let urgent_done = done_at[0].load(Ordering::Relaxed);
    let mid_done = done_at[1].load(Ordering::Relaxed);
    assert!(urgent_done > 0 && mid_done > 0);
    assert!(
        mid_done > urgent_done,
        "mid ({mid_done}) must wait for urgent ({urgent_done})"
    );
}

/// Dynamic priority adjustment (paper §5): a transaction that keeps
/// aborting gets promoted to the preemptive path.
#[test]
fn repeated_aborts_boost_priority() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use preemptdb::{Database, DatabaseConfig, TxError};

    let db = Database::open(DatabaseConfig::default().workers(2));
    let attempts = Arc::new(AtomicU64::new(0));
    let a = attempts.clone();
    let (value, retries, boosted) = db.call_with_boost("hot-update", 3, move || {
        // Fail the first 5 attempts, then succeed.
        if a.fetch_add(1, Ordering::Relaxed) < 5 {
            Err(TxError::WriteConflict)
        } else {
            Ok(42u32)
        }
    });
    assert_eq!(value, 42);
    assert_eq!(retries, 5);
    assert!(boosted, "attempts beyond the threshold ran boosted");
    let m = db.shutdown();
    assert_eq!(m.kind("hot-update").unwrap().completed, 6, "6 dispatches");
}

#[test]
fn no_boost_when_it_succeeds_early() {
    use preemptdb::{Database, DatabaseConfig};

    let db = Database::open(DatabaseConfig::default().workers(1));
    let (v, retries, boosted) = db.call_with_boost("easy", 3, || Ok(7u8));
    assert_eq!((v, retries, boosted), (7, 0, false));
    db.shutdown();
}
