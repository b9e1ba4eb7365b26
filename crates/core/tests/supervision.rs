//! Supervision under an embedded pool: a worker that stops acknowledging
//! its interrupts while high-priority work waits is declared dead, its
//! abandoned engine state is swept, and a fresh incarnation takes over
//! its queue — or, once the respawn budget is spent, the slot is
//! quarantined and its queued requests are rejected. `Database` runs the
//! scheduler plane with `RobustnessConfig::default()`, so the timings
//! here are that configuration's.
//!
//! The wedge: a low closure spins on preemption points inside a
//! non-preemptible region, where every interrupt is deferred and so
//! never acknowledged. It leaves the region only once the supervisor has
//! ordered it out, and then unwinds at its next preemption point.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use preemptdb::context::nonpreempt::NonPreemptGuard;
use preemptdb::context::runtime::preempt_point;
use preemptdb::metrics::Counter;
use preemptdb::sched::clock::{freq_hz, now_cycles};
use preemptdb::sched::plane::RESPAWN_BUDGET_LEASES;
use preemptdb::sched::RobustnessConfig;
use preemptdb::{Database, DatabaseConfig, Priority, WorkOutcome};

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Sets its flag when dropped by an unwind.
struct Unwound(Arc<AtomicBool>);

impl Drop for Unwound {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// What one wedge reports back.
#[derive(Default)]
struct Wedge {
    /// Inside the non-preemptible region.
    wedged: AtomicBool,
    /// When the worker saw the termination order (cycles).
    ordered_out_at: AtomicU64,
    unwound: Arc<AtomicBool>,
}

/// Submits a low closure that opens a transaction and abandons it (only
/// the orphan sweep can free its slot), then wedges its worker until the
/// supervisor orders it out, and then loops on preemption points
/// without the guard.
fn submit_wedge(db: &Database) -> Arc<Wedge> {
    let wedge = Arc::new(Wedge::default());
    let (engine, worker, w) = (db.engine().clone(), db.workers()[0].clone(), wedge.clone());
    db.submit("wedge", Priority::Low, move || {
        let _sentinel = Unwound(w.unwound.clone());
        std::mem::forget(engine.begin_si());
        let give_up = Instant::now() + Duration::from_secs(20);
        {
            let _guard = NonPreemptGuard::enter();
            w.wedged.store(true, Ordering::Release);
            while !worker.is_terminated() && Instant::now() < give_up {
                preempt_point(1);
            }
            w.ordered_out_at.store(now_cycles(), Ordering::Release);
        }
        while Instant::now() < give_up {
            preempt_point(1);
        }
        WorkOutcome::default()
    });
    wait_until("the wedge to start", || wedge.wedged.load(Ordering::Acquire));
    wedge
}

#[test]
fn a_wedged_pool_worker_is_declared_dead_swept_and_respawned() {
    let rb = RobustnessConfig::default();
    let db = Database::open(DatabaseConfig::default().workers(1));
    let worker = db.workers()[0].clone();
    let wedge = submit_wedge(&db);
    assert_eq!(db.engine().registry().active_count(), 1, "the abandoned transaction");

    let ran_on = Arc::new(AtomicU64::new(u64::MAX));
    let r = ran_on.clone();
    let w = worker.clone();
    let submitted_at = now_cycles();
    db.submit("high", Priority::High, move || {
        r.store(w.incarnation(), Ordering::Release);
        WorkOutcome::default()
    });
    wait_until("the high request to run", || ran_on.load(Ordering::Acquire) != u64::MAX);

    // The lease arms at the first housekeeping pass that sees the
    // unacknowledged epoch (at most one period, `dead_after / 2`, after
    // the submission) and expires `dead_after` later; 10 ms covers the
    // housekeeper's own wake-up on a busy host.
    let dead_in = wedge.ordered_out_at.load(Ordering::Acquire) - submitted_at;
    let bound = rb.dead_after + rb.dead_after / 2 + freq_hz() / 100;
    assert!(
        (rb.dead_after..=bound).contains(&dead_in),
        "declared dead {dead_in} cycles after the submission, not in [{}, {bound}]",
        rb.dead_after
    );
    assert!(wedge.unwound.load(Ordering::Acquire), "the old incarnation unwinds");
    assert_eq!(ran_on.load(Ordering::Acquire), 1, "a fresh incarnation runs the request");
    assert_eq!(db.engine().registry().active_count(), 0, "the sweep freed the slot");

    let m = db.metrics();
    assert_eq!(m.counter(Counter::WorkersDead), 1);
    assert_eq!(m.counter(Counter::WorkersRespawned), 1);
    assert_eq!(m.counter(Counter::OrphansAborted), 1);
    assert_eq!(m.counter(Counter::WorkersQuarantined), 0);
    db.shutdown();
}

#[test]
fn a_worker_past_its_respawn_budget_is_quarantined_and_its_queue_rejected() {
    let rb = RobustnessConfig::default();
    let db = Database::open(DatabaseConfig::default().workers(1));
    let worker = db.workers()[0].clone();
    let ran = Arc::new(AtomicU64::new(0));
    // Every incarnation the budget allows dies the same way, and the
    // next one runs the request its predecessor left queued.
    for round in 0..=u64::from(rb.max_respawns) {
        let wedge = submit_wedge(&db);
        let r = ran.clone();
        db.submit("high", Priority::High, move || {
            r.fetch_add(1, Ordering::AcqRel);
            WorkOutcome::default()
        });
        wait_until("the wedge to unwind", || wedge.unwound.load(Ordering::Acquire));
        if round < u64::from(rb.max_respawns) {
            wait_until("the high request to run", || ran.load(Ordering::Acquire) == round + 1);
        }
    }
    // The last death spent the budget: the slot is quarantined and the
    // request queued on it is rejected rather than stranded.
    wait_until("the quarantine", || {
        db.metrics().counter(Counter::WorkersQuarantined) == 1
    });
    let m = db.metrics();
    assert_eq!(m.counter(Counter::WorkersDead), u64::from(rb.max_respawns) + 1);
    assert_eq!(m.counter(Counter::WorkersRespawned), u64::from(rb.max_respawns));
    assert_eq!(m.counter(Counter::RejectedOrphaned), 1);
    assert_eq!(worker.incarnation(), u64::from(rb.max_respawns));
    assert_eq!(db.engine().registry().active_count(), 0, "every incarnation was swept");

    // With every worker quarantined, a new submission is rejected the
    // same way instead of waiting forever.
    db.submit("after", Priority::Low, WorkOutcome::default);
    assert_eq!(db.metrics().counter(Counter::RejectedOrphaned), 2);
    assert_eq!(ran.load(Ordering::Acquire), u64::from(rb.max_respawns));
    db.shutdown();
}

#[test]
fn deaths_spread_over_time_never_spend_the_budget() {
    let rb = RobustnessConfig::default();
    let db = Database::open(DatabaseConfig::default().workers(1));
    let worker = db.workers()[0].clone();
    let healthy = (RESPAWN_BUDGET_LEASES + 2) * rb.dead_after;
    let healthy = Duration::from_nanos((healthy as u128 * 1_000_000_000 / freq_hz() as u128) as u64);
    let rounds = u64::from(rb.max_respawns) + 2;
    let ran = Arc::new(AtomicU64::new(0));
    for round in 0..rounds {
        let wedge = submit_wedge(&db);
        let r = ran.clone();
        db.submit("high", Priority::High, move || {
            r.fetch_add(1, Ordering::AcqRel);
            WorkOutcome::default()
        });
        wait_until("the wedge to unwind", || wedge.unwound.load(Ordering::Acquire));
        wait_until("the high request to run", || ran.load(Ordering::Acquire) == round + 1);
        std::thread::sleep(healthy);
    }
    let m = db.metrics();
    assert_eq!(m.counter(Counter::WorkersDead), rounds);
    assert_eq!(m.counter(Counter::WorkersRespawned), rounds);
    assert_eq!(m.counter(Counter::WorkersQuarantined), 0);
    assert_eq!(worker.incarnation(), rounds);
    assert_eq!(db.call("after", Priority::High, || 7), 7, "the pool still serves");
    db.shutdown();
}
