//! A high request stranded behind a starving worker still runs.
//!
//! Under a starvation threshold, a worker's drain loop stops after a high
//! transaction once the low transaction it paused is starving, and hands
//! the worker back with high work still queued and every delivery
//! acknowledged. Its regular path then serves the low queue first, and
//! while a feeder keeps that queue full nothing else would ever run the
//! high queue: no new submission means no new interrupt. The plane's
//! delivery watchdog sends one more interrupt after `STRANDED_AFTER` of
//! that, on real threads as under the simulator.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use preemptdb::context::runtime::preempt_point;
use preemptdb::sched::clock::freq_hz;
use preemptdb::sched::plane::STRANDED_AFTER;
use preemptdb::{Database, DatabaseConfig, Policy, Priority, WorkOutcome};

/// Spins for `d`, passing a preemption point on every turn.
fn busy(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        preempt_point(1);
    }
}

#[test]
fn a_stranded_high_request_runs_while_the_low_queue_stays_full() {
    let mut cfg = DatabaseConfig::default()
        .workers(1)
        .policy(Policy::Preemptive {
            starvation_threshold: 0.1,
        });
    cfg.queue_caps = vec![8, 16];
    let db = Arc::new(Database::open(cfg));

    // Two-millisecond scans, topped up every millisecond: the low queue
    // never runs dry.
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let (db, stop) = (db.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                while !db.workers()[0].queues[0].is_full() {
                    db.submit("scan", Priority::Low, || {
                        busy(Duration::from_millis(2));
                        WorkOutcome::default()
                    });
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    while db.metrics().kind("scan").map_or(0, |k| k.completed) < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Two highs at once: the first runs 2 ms on the preemptive context,
    // which starves the paused scan past the threshold, so the drain
    // loop stops there and the second is left queued.
    let done = Arc::new(AtomicU64::new(0));
    let submitted = Instant::now();
    for _ in 0..2 {
        let done = done.clone();
        db.submit("high", Priority::High, move || {
            busy(Duration::from_millis(2));
            done.fetch_add(1, Ordering::Release);
            WorkOutcome::default()
        });
    }
    let window =
        Duration::from_nanos((STRANDED_AFTER as u128 * 1_000_000_000 / freq_hz() as u128) as u64);
    let deadline = submitted + 5 * window;
    while done.load(Ordering::Acquire) < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let waited = submitted.elapsed();
    stop.store(true, Ordering::Release);
    feeder.join().expect("the feeder ran");

    assert_eq!(
        done.load(Ordering::Acquire),
        2,
        "a high request was still queued {waited:?} later (5 × STRANDED_AFTER = {:?})",
        5 * window
    );
    let m = db.metrics();
    assert!(
        m.kind("scan").map_or(0, |k| k.completed) > 2,
        "the scans ran meanwhile"
    );
    match Arc::try_unwrap(db) {
        Ok(db) => {
            db.shutdown();
        }
        Err(_) => panic!("the feeder still holds the database"),
    }
}
