//! What a wedged worker does on real threads. Nothing stops or replaces
//! a worker: one whose closure spins without a preemption point
//! acknowledges nothing meanwhile, and the plane's delivery watchdog
//! re-sends the outstanding interrupt with exponential backoff, from
//! `watchdog_backoff_min` up to `watchdog_backoff_max`. The high work
//! queued behind the spin waits, and runs once it ends.
//!
//! The scenario, run on an embedded pool and on `sched::run`'s thread
//! runtime: the only worker runs a high closure that spins for
//! `4 × watchdog_backoff_max` while more high requests wait behind it.
//! Nothing is lost, the re-sends stay within what the backoff schedule
//! allows over the two windows in which an interrupt went
//! unacknowledged (each measured from just before a send to the start of
//! the request it was for), and the queue drains once the spin ends. The
//! two tests take turns: each spins a CPU, and the host has few.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use preemptdb::metrics::{Counter, MetricsRegistry};
use preemptdb::sched::clock::{freq_hz, now_cycles};
use preemptdb::sched::RobustnessConfig;
use preemptdb::{
    Database, DatabaseConfig, DriverConfig, Policy, Priority, Request, Runtime, WorkOutcome,
    WorkloadFactory,
};

/// How long the closure spins, in cycles.
fn spin_cycles() -> u64 {
    4 * RobustnessConfig::default().watchdog_backoff_max
}

fn to_duration(cycles: u64) -> Duration {
    Duration::from_nanos((cycles as u128 * 1_000_000_000 / freq_hz() as u128) as u64)
}

/// Spins for [`spin_cycles`] without passing a preemption point.
fn spin() {
    let end = Instant::now() + to_duration(spin_cycles());
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// The most re-sends the watchdog's schedule makes while one interrupt
/// stays unacknowledged for `cycles`: the first after the minimum
/// backoff, each next one after twice the previous wait, capped at the
/// maximum. (The window is measured on the host, so it includes any
/// time the worker spent waiting for a CPU.)
fn resend_bound(cycles: u64) -> u64 {
    let rb = RobustnessConfig::default();
    let (mut wait, mut at, mut n) = (rb.watchdog_backoff_min, rb.watchdog_backoff_min, 0);
    while at <= cycles {
        n += 1;
        wait = (wait * 2).min(rb.watchdog_backoff_max);
        at += wait;
    }
    n
}

/// Cycle stamps, 0 until taken: just before the spinning request and
/// the first request behind it were sent, and when each started. A
/// worker acknowledges an interrupt before it starts the request, so
/// each sent → started span covers a window in which the watchdog may
/// re-send; a fresh send restarts its schedule.
#[derive(Default)]
struct Stamps {
    spin_sent: AtomicU64,
    spin_started: AtomicU64,
    behind_sent: AtomicU64,
    behind_started: AtomicU64,
}

impl Stamps {
    fn take(at: &AtomicU64) {
        let _ = at.compare_exchange(0, now_cycles(), Ordering::AcqRel, Ordering::Acquire);
    }

    fn span(from: &AtomicU64, to: &AtomicU64) -> u64 {
        to.load(Ordering::Acquire)
            .saturating_sub(from.load(Ordering::Acquire))
    }

    fn assert_resends_bounded(&self, resends: u64) {
        assert!(resends >= 1, "the unacknowledged interrupt is re-sent");
        let spin = Self::span(&self.spin_sent, &self.spin_started);
        let behind = Self::span(&self.behind_sent, &self.behind_started);
        let bound = resend_bound(spin) + resend_bound(behind);
        assert!(
            resends <= bound,
            "{resends} re-sends over windows of {spin} and {behind} cycles; \
             the backoff schedule allows {bound}"
        );
    }
}

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn a_wedged_pool_worker_keeps_its_queue() {
    const BEHIND: u64 = 8;
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let db = Database::open(DatabaseConfig::default().workers(1));
    let registry = MetricsRegistry::new(Default::default());
    db.attach_metrics(&registry);
    let stamps = Arc::new(Stamps::default());
    let spun = Arc::new(AtomicU64::new(0));
    let (st, s) = (stamps.clone(), spun.clone());
    Stamps::take(&stamps.spin_sent);
    db.submit("spin", Priority::High, move || {
        Stamps::take(&st.spin_started);
        spin();
        s.store(1, Ordering::Release);
        WorkOutcome::default()
    });
    wait_until("the spin to start", || {
        stamps.spin_started.load(Ordering::Acquire) != 0
    });
    let done = Arc::new(AtomicU64::new(0));
    Stamps::take(&stamps.behind_sent);
    for _ in 0..BEHIND {
        let (d, s, st) = (done.clone(), spun.clone(), stamps.clone());
        db.submit("behind", Priority::High, move || {
            assert_eq!(s.load(Ordering::Acquire), 1, "ran before the spin ended");
            Stamps::take(&st.behind_started);
            d.fetch_add(1, Ordering::Release);
            WorkOutcome::default()
        });
    }
    wait_until("the spin to end", || spun.load(Ordering::Acquire) == 1);
    wait_until("the queue to drain", || {
        done.load(Ordering::Acquire) == BEHIND
    });
    wait_until("the last completion to be counted", || {
        db.metrics().kind("behind").map(|k| k.completed) == Some(BEHIND)
    });

    let m = db.metrics();
    assert_eq!(m.kind("spin").map(|k| k.completed), Some(1));
    assert_eq!(m.total_failed(), 0, "nothing failed");
    assert_eq!(registry.counter_total(Counter::TxnAdmittedHigh), BEHIND + 1);
    stamps.assert_resends_bounded(registry.counter_total(Counter::WatchdogResends));
    assert!(db.workers()[0].queues[1].is_empty());
    db.shutdown();
}

/// Two high requests, one per arrival: the first spins on its worker,
/// the second queues behind it. (A worker pops its own queue newest
/// first, so the second waits to be made until the first has started.)
struct SpinThenOne {
    made: usize,
    stamps: Arc<Stamps>,
}

impl WorkloadFactory for SpinThenOne {
    fn make_low(&mut self, _now: u64) -> Option<Request> {
        None
    }

    fn make_high(&mut self, now: u64) -> Option<Request> {
        self.made += 1;
        let st = self.stamps.clone();
        match self.made {
            1 => {
                // Made just before it is placed and sent.
                Stamps::take(&st.spin_sent);
                Some(Request::new("spin", 1, now, move || {
                    Stamps::take(&st.spin_started);
                    spin();
                    WorkOutcome::default()
                }))
            }
            2 => {
                wait_until("the spinning request to start", || {
                    st.spin_started.load(Ordering::Acquire) != 0
                });
                Stamps::take(&st.behind_sent);
                Some(Request::new("behind", 1, now, move || {
                    Stamps::take(&st.behind_started);
                    WorkOutcome::default()
                }))
            }
            _ => None,
        }
    }
}

#[test]
fn a_wedged_run_worker_keeps_its_queue() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = DriverConfig::paper_default(Policy::preemptdb());
    cfg.n_workers = 1;
    cfg.batch_size = 1;
    cfg.arrival_interval = spin_cycles() / 16;
    // Room after the spin for the request behind it, even on a busy
    // host.
    cfg.duration = 6 * spin_cycles();
    let stamps = Arc::new(Stamps::default());
    let factory = SpinThenOne {
        made: 0,
        stamps: stamps.clone(),
    };
    let report = preemptdb::sched::run(Runtime::Threads, cfg, Box::new(factory));

    let admitted = report.metrics_snapshot.counter(Counter::TxnAdmittedHigh);
    assert_eq!(admitted, 2, "both requests were dispatched");
    assert_eq!(
        (report.completed("spin"), report.completed("behind")),
        (1, 1)
    );
    assert_eq!(report.metrics.total_failed(), 0, "nothing failed");
    stamps.assert_resends_bounded(report.scheduler.watchdog_resends);
}
