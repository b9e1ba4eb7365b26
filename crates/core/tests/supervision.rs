//! A stall is not a death. On real threads a worker whose ack stops
//! moving while high-priority work waits may be wedged, or healthy but
//! descheduled, or busy where it checks nothing (a fresh worker's first
//! allocation has taken over 100 ms), for longer than any fixed lease.
//! So supervision (declare dead, terminate, sweep, respawn or
//! quarantine) runs only under the simulator, where a stalled ack can
//! only be an injected wedge; `tests/tests/worker_recovery.rs` covers it
//! there.
//!
//! The scenario, run on an embedded pool and on `sched::run`'s thread
//! runtime: the only worker runs a high closure that sleeps (no
//! preemption points, so it acknowledges nothing) for three times
//! `dead_after + exit_wait`, long enough for a supervisor to declare it
//! dead, give up waiting for its exit and quarantine it. A second high
//! request waits behind it and must still run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use preemptdb::metrics::{Counter, MetricsRegistry};
use preemptdb::sched::clock::freq_hz;
use preemptdb::sched::RobustnessConfig;
use preemptdb::{
    Database, DatabaseConfig, DriverConfig, Policy, Priority, Request, Runtime, WorkOutcome,
    WorkloadFactory,
};

/// Three times what a supervisor would wait before quarantining the
/// worker, in cycles.
fn pause_cycles() -> u64 {
    let rb = RobustnessConfig::default();
    3 * (rb.dead_after + rb.exit_wait)
}

fn pause() -> Duration {
    Duration::from_nanos((pause_cycles() as u128 * 1_000_000_000 / freq_hz() as u128) as u64)
}

#[test]
fn a_paused_pool_worker_keeps_its_queue() {
    let db = Database::open(DatabaseConfig::default().workers(1));
    let registry = MetricsRegistry::new(Default::default());
    db.attach_metrics(&registry);
    let (started, running) = mpsc::channel();
    let pause = pause();
    db.submit("pause", Priority::High, move || {
        started.send(()).expect("the test waits for the start");
        std::thread::sleep(pause);
        WorkOutcome::default()
    });
    running.recv().expect("the paused closure starts");
    assert_eq!(db.call("behind", Priority::High, || 7), 7);

    assert_eq!(registry.counter_total(Counter::WorkersDead), 0);
    assert_eq!(registry.counter_total(Counter::WorkersQuarantined), 0);
    assert_eq!(registry.counter_total(Counter::RejectedOrphaned), 0);
    assert!(
        registry.counter_total(Counter::WatchdogResends) >= 1,
        "the unacknowledged interrupt is re-sent instead"
    );
    db.shutdown();
}

/// Two high requests, one per arrival: the first pauses its worker, the
/// second queues behind it. (A worker pops its own queue newest first,
/// so the second waits to be made until the first has started.)
struct PauseThenOne {
    made: usize,
    started: Arc<AtomicBool>,
}

impl WorkloadFactory for PauseThenOne {
    fn make_low(&mut self, _now: u64) -> Option<Request> {
        None
    }

    fn make_high(&mut self, now: u64) -> Option<Request> {
        self.made += 1;
        match self.made {
            1 => {
                let (pause, started) = (pause(), self.started.clone());
                Some(Request::new("pause", 1, now, move || {
                    started.store(true, Ordering::Release);
                    std::thread::sleep(pause);
                    WorkOutcome::default()
                }))
            }
            2 => {
                let deadline = Instant::now() + Duration::from_secs(20);
                while !self.started.load(Ordering::Acquire) {
                    assert!(Instant::now() < deadline, "the paused request never started");
                    std::thread::yield_now();
                }
                Some(Request::new("behind", 1, now, WorkOutcome::default))
            }
            _ => None,
        }
    }
}

#[test]
fn a_paused_run_worker_is_not_declared_dead() {
    let mut cfg = DriverConfig::paper_default(Policy::preemptdb());
    cfg.n_workers = 1;
    cfg.batch_size = 1;
    cfg.arrival_interval = pause_cycles() / 16;
    // Room after the pause for the request behind it, even on a busy
    // host.
    cfg.duration = 6 * pause_cycles();
    let factory = PauseThenOne { made: 0, started: Arc::default() };
    let report = preemptdb::sched::run(Runtime::Threads, cfg, Box::new(factory));

    assert_eq!(report.scheduler.workers_dead, 0);
    let admitted = report.metrics_snapshot.counter(Counter::TxnAdmittedHigh);
    assert_eq!(admitted, 2, "both requests were dispatched");
    assert_eq!((report.completed("pause"), report.completed("behind")), (1, 1));
}
