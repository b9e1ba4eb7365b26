//! A worker's thread name belongs to the live worker only. The benchmark
//! places workers by listing this process's `preemptdb-worke*` threads
//! right after `Database::open`; a worker that `shutdown` has joined can
//! still be in `/proc/self/task` at that moment (the kernel wakes the
//! joiner before it releases the task), so it must have given the name
//! up before exiting. Alone in its file: it counts threads process-wide.
//!
//! This pins the naming contract; it is not a reproduction of the race.
//! The window is a few microseconds of kernel exit path: without the
//! rename this loop passed 3 000 cycles on the host it was written on
//! (the issue saw 86 of 3 000 fail next to a busy co-tenant), while one
//! of some sixty benchmark runs of that tree died of it. 500 cycles take
//! about 0.1 s.
//!
//! The scheduler plane's own thread is named so the prefix does not
//! match it.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use preemptdb::{Database, DatabaseConfig};

fn threads_named(prefix: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("a Linux process can list its tasks")
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .collect()
}

#[test]
fn a_joined_worker_no_longer_carries_the_worker_name() {
    for cycle in 0..500 {
        let db = Database::open(DatabaseConfig::default().workers(1));
        let named = threads_named("preemptdb-worke");
        assert_eq!(named, ["preemptdb-worke\n"], "open/shutdown cycle {cycle}");
        if cycle == 0 {
            // Before any housekeeper has been joined (only workers give
            // their name up on the way out). The housekeeper names itself
            // once it first runs, and `open` does not wait for that.
            let deadline = Instant::now() + Duration::from_secs(20);
            while threads_named("preemptdb-plane").is_empty() {
                assert!(Instant::now() < deadline, "the housekeeper never started");
                std::thread::yield_now();
            }
            assert_eq!(threads_named("preemptdb-plane"), ["preemptdb-plane\n"]);
        }
        db.shutdown();
    }
}
