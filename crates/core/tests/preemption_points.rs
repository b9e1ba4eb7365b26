//! What a pool worker does at a preemption point on a real thread, one
//! exit of the poll's fast path per test: degraded-mode yielding,
//! deferral inside a non-preemptible region, and the `handler` phase each
//! context is charged for its own polls. Each test drives the single
//! worker of its own `Database`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use preemptdb::context::nonpreempt::NonPreemptGuard;
use preemptdb::context::runtime::preempt_point;
use preemptdb::metrics::{Counter, MetricsConfig, MetricsRegistry};
use preemptdb::prov::{FlightRecorder, Phase};
use preemptdb::sched::{DEGRADED_YIELD_INTERVAL, UINTR_POLL_COST};
use preemptdb::{Database, DatabaseConfig, Priority, Request, WorkOutcome};

fn one_worker() -> Database {
    Database::open(DatabaseConfig::default().workers(1))
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// With `degraded` set and a high request queued without an interrupt,
/// the low closure yields to it within `DEGRADED_YIELD_INTERVAL` points.
#[test]
fn degraded_worker_yields_to_queued_high_work_within_its_interval() {
    let db = one_worker();
    let w = db.workers()[0].clone();
    w.degraded.store(true, Ordering::Release);
    let low_points = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(AtomicU64::new(u64::MAX));
    let lp = low_points.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let st = stop.clone();
    db.submit("scan", Priority::Low, move || {
        let mut n = 0;
        while !st.load(Ordering::Acquire) {
            preempt_point(1);
            n += 1;
            lp.store(n, Ordering::SeqCst);
        }
        WorkOutcome::default()
    });
    wait_until("the scan to run", || low_points.load(Ordering::SeqCst) > 0);

    let (lp, sn) = (low_points.clone(), seen.clone());
    let created = preemptdb::sched::clock::now_cycles();
    let high = Request::new("high", 1, created, move || {
        sn.store(lp.load(Ordering::SeqCst), Ordering::SeqCst);
        stop.store(true, Ordering::Release);
        WorkOutcome::default()
    });
    assert!(w.queues[1].push(high).is_ok(), "the high queue has room");
    let pushed_at = low_points.load(Ordering::SeqCst);
    wait_until("the high request to start", || {
        seen.load(Ordering::SeqCst) != u64::MAX
    });
    let waited = seen.load(Ordering::SeqCst) - pushed_at;
    assert!(
        waited <= DEGRADED_YIELD_INTERVAL,
        "started {waited} points after it was queued"
    );
    assert_eq!(w.metrics_shard.counter(Counter::CoopYields), 1);
    assert_eq!(w.metrics_shard.counter(Counter::Preemptions), 0);
    db.shutdown();
}

/// A vector posted while the low closure holds a `NonPreemptGuard` is
/// deferred — `UintrDeferred` goes up by one — and delivered at the
/// first point after the guard drops (the drop's own re-poll).
#[test]
fn a_vector_posted_inside_a_nonpreemptible_region_waits_for_its_end() {
    // The deferral counter is bumped only while some registry is live.
    let _live = MetricsRegistry::new(MetricsConfig::default());
    let db = one_worker();
    let w = db.workers()[0].clone();
    let upid = w.upid().expect("the worker published its descriptor");
    let in_guard = Arc::new(AtomicBool::new(false));
    let high_ran = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let (ig, hr, ws) = (in_guard.clone(), high_ran.clone(), w.clone());
    db.submit("guarded", Priority::Low, move || {
        let deferred = || ws.metrics_shard.counter(Counter::UintrDeferred);
        let guard = NonPreemptGuard::enter();
        ig.store(true, Ordering::Release);
        while !upid.has_pending() {
            std::hint::spin_loop();
        }
        let before = deferred();
        preempt_point(1);
        let in_region = (deferred() - before, hr.load(Ordering::Acquire));
        drop(guard);
        let _ = tx.send((in_region, hr.load(Ordering::Acquire)));
        WorkOutcome::default()
    });
    wait_until("the guard to be held", || in_guard.load(Ordering::Acquire));
    let hr = high_ran.clone();
    db.submit("high", Priority::High, move || {
        hr.store(true, Ordering::Release);
        WorkOutcome::default()
    });
    let ((deferred, ran_inside), ran_after) = rx.recv().expect("the low closure reports");
    assert_eq!(deferred, 1, "one deferral inside the region");
    assert!(!ran_inside, "nothing delivered inside the region");
    assert!(ran_after, "delivered when the guard dropped");
    assert_eq!(w.metrics_shard.counter(Counter::Preemptions), 1);
    db.shutdown();
}

/// Every commit's `handler` phase holds exactly the polls its own
/// context made: a high closure of `K` points with nothing posted is
/// charged `K × UINTR_POLL_COST`, and the low closure it preempted once
/// is charged its own points plus the handler's decision — never the
/// high context's `K` polls. (A flight recorder with SLO 0 keeps every
/// commit's phase vector.)
#[test]
fn each_context_is_charged_exactly_its_own_polls() {
    const K: u64 = 1_000_000;
    let db = one_worker();
    let w = db.workers()[0].clone();
    let recorder = Arc::new(FlightRecorder::new(8, [0, 0]));
    assert!(w.flight.set(recorder.clone()).is_ok());
    let started = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let low_points = Arc::new(AtomicU64::new(0));
    let (st, dn, lp) = (started.clone(), done.clone(), low_points.clone());
    db.submit_traced("low", Priority::Low, 1, 0, move || {
        st.store(true, Ordering::Release);
        let mut n = 0;
        while !dn.load(Ordering::Acquire) {
            preempt_point(1);
            n += 1;
        }
        lp.store(n, Ordering::Release);
        WorkOutcome::default()
    });
    wait_until("the low closure to run", || started.load(Ordering::Acquire));
    db.submit_traced("high", Priority::High, 2, 0, move || {
        for _ in 0..K {
            preempt_point(1);
        }
        done.store(true, Ordering::Release);
        WorkOutcome::default()
    });
    // The worker finishes the low request, exemplar included, before it
    // takes the next one; polling the recorder instead would contend with
    // its capture, which gives up rather than wait.
    db.call("fence", Priority::Low, || ());
    let exemplars = recorder.snapshot();
    let handler = |req_id| {
        let ex = exemplars.iter().find(|e| e.req_id == req_id);
        ex.expect("an exemplar per commit").phases[Phase::Handler as usize]
    };
    assert_eq!(handler(2), K * UINTR_POLL_COST);
    let own = low_points.load(Ordering::Acquire) * UINTR_POLL_COST;
    let low = handler(1);
    assert!(low >= own, "low charged {low}, its polls alone are {own}");
    assert!(
        low - own < K * UINTR_POLL_COST,
        "low charged {low} for {own} of polls"
    );
    assert_eq!(w.metrics_shard.counter(Counter::Preemptions), 1);
    db.shutdown();
}

/// Highs only: while one high runs on the regular path, two more are
/// submitted, each with its interrupt. The running high declines both,
/// and both run next on the regular path — no preemption, no switch.
#[test]
fn highs_declined_on_the_regular_path_run_next_without_a_switch() {
    let db = one_worker();
    let w = db.workers()[0].clone();
    let running = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let (r, rel) = (running.clone(), release.clone());
    db.submit("first", Priority::High, move || {
        r.store(true, Ordering::Release);
        while !rel.load(Ordering::Acquire) {
            preempt_point(1);
        }
        WorkOutcome::default()
    });
    wait_until("the first high to run", || running.load(Ordering::Acquire));
    let count = |c| w.metrics_shard.counter(c);
    let counted = [Counter::Preemptions, Counter::SchedEnterLevel, Counter::HighOnRegular];
    let before = counted.map(count);
    let done = Arc::new(AtomicU64::new(0));
    for _ in 0..2 {
        let d = done.clone();
        db.submit("next", Priority::High, move || {
            d.fetch_add(1, Ordering::SeqCst);
            WorkOutcome::default()
        });
    }
    let epoch = w.delivery_epoch();
    wait_until("both deliveries to reach the handler", || {
        w.uintr_ack.load(Ordering::Acquire) >= epoch
    });
    release.store(true, Ordering::Release);
    wait_until("both to run", || done.load(Ordering::SeqCst) == 2);
    let after = counted.map(count);
    assert_eq!(after[0] - before[0], 0, "no preemption");
    assert_eq!(after[1] - before[1], 0, "no switch");
    assert_eq!(after[2] - before[2], 2, "both ran on the regular path");
    db.shutdown();
}
