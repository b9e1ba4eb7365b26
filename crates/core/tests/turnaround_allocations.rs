//! A pool worker's turn-around allocates nothing: from one pop to the
//! next, the `preemptdb-worker-*` thread neither allocates nor frees —
//! on the first request after `Database::open` and in steady state, for
//! an empty closure, for a read-only SI transaction and for a
//! `Database::call`, on the regular path and on the preempting context.
//!
//! A counting global allocator attributes every allocation and free to
//! the calling thread by its name. Each window opens before a submit and
//! closes once the worker has finished the request and gone back to
//! waiting or to the transaction it preempted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use preemptdb::context::runtime::preempt_point;
use preemptdb::{Database, DatabaseConfig, Priority, WorkOutcome};

static WORKER_ALLOCS: AtomicU64 = AtomicU64::new(0);
static WORKER_FREES: AtomicU64 = AtomicU64::new(0);

/// Whether the calling thread is a pool worker, read from its kernel
/// name (no allocation, no thread-local state). The kernel keeps 15
/// bytes of `preemptdb-worker-<id>`.
fn on_worker_thread() -> bool {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_GET_NAME: i32 = 16;
    let mut name = [0u8; 16];
    // SAFETY: PR_GET_NAME writes at most 16 bytes, NUL included.
    let ok = unsafe { prctl(PR_GET_NAME, name.as_mut_ptr()) } == 0;
    ok && name.starts_with(b"preemptdb-worke")
}

struct Counting;

// SAFETY: every call is forwarded to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_worker_thread() {
            WORKER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if on_worker_thread() {
            WORKER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_worker_thread() {
            WORKER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if on_worker_thread() {
            WORKER_FREES.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn worker_counts() -> (u64, u64) {
    (
        WORKER_ALLOCS.load(Ordering::Relaxed),
        WORKER_FREES.load(Ordering::Relaxed),
    )
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// The worker counts and drops a request after its closure has run:
/// give it that long before the window closes.
fn settle() {
    std::thread::sleep(Duration::from_millis(20));
}

/// Submits one request whose closure runs `body` and raises `done`, and
/// returns what the worker thread allocated and freed meanwhile.
fn window(
    db: &Database,
    kind: &'static str,
    priority: Priority,
    body: impl FnOnce() + Send + 'static,
) -> (u64, u64) {
    let done = Arc::new(AtomicBool::new(false));
    let flag = done.clone();
    let before = worker_counts();
    db.submit(kind, priority, move || {
        body();
        flag.store(true, Ordering::Release);
        WorkOutcome::default()
    });
    wait_until(kind, || done.load(Ordering::Acquire));
    settle();
    let after = worker_counts();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn a_pool_worker_turns_around_without_allocating() {
    let db = Database::open(DatabaseConfig::default().workers(1));
    let table = db.engine().create_table("kv");
    let oid = {
        let mut tx = db.engine().begin_si();
        let oid = tx.insert(&table, b"value").unwrap();
        tx.commit().unwrap();
        oid
    };
    let read_only = {
        let engine = db.engine().clone();
        move || {
            let mut tx = engine.begin_si();
            assert_eq!(&*tx.read(&table, oid).unwrap(), b"value");
            tx.commit().unwrap();
        }
    };
    settle();

    // The first request after open, on the regular path.
    assert_eq!(
        window(&db, "first", Priority::High, || ()),
        (0, 0),
        "first request"
    );
    let rt = read_only.clone();
    assert_eq!(
        window(&db, "first_si", Priority::Low, rt),
        (0, 0),
        "first SI transaction"
    );

    // Steady state on the regular path.
    for i in 0..20 {
        let p = [Priority::Low, Priority::High][i % 2];
        assert_eq!(window(&db, "empty", p, || ()), (0, 0), "empty closure #{i}");
        let rt = read_only.clone();
        assert_eq!(window(&db, "si", p, rt), (0, 0), "SI transaction #{i}");
    }

    // `call`: its result slot is allocated and freed by the caller.
    for i in 0..5u64 {
        let before = worker_counts();
        assert_eq!(db.call("call", Priority::High, move || i), i);
        settle();
        let after = worker_counts();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (0, 0),
            "call #{i}"
        );
    }

    // On the preempting context: a low-priority closure spins at
    // preemption points while high-priority requests interrupt it.
    let stop = Arc::new(AtomicBool::new(false));
    let spinning = Arc::new(AtomicBool::new(false));
    let (s, sp) = (stop.clone(), spinning.clone());
    db.submit("spin", Priority::Low, move || {
        sp.store(true, Ordering::Release);
        while !s.load(Ordering::Acquire) {
            preempt_point(1);
        }
        WorkOutcome::default()
    });
    wait_until("the low closure", || spinning.load(Ordering::Acquire));
    let preemptions = || {
        db.workers()[0]
            .metrics_shard
            .counter(preemptdb::metrics::Counter::Preemptions)
    };
    let taken = preemptions();
    for i in 0..20 {
        assert_eq!(
            window(&db, "high", Priority::High, || ()),
            (0, 0),
            "preempting closure #{i}"
        );
        let rt = read_only.clone();
        assert_eq!(
            window(&db, "high_si", Priority::High, rt),
            (0, 0),
            "preempting SI #{i}"
        );
    }
    assert_eq!(
        preemptions() - taken,
        40,
        "every high request preempted the low one"
    );
    stop.store(true, Ordering::Release);
    db.shutdown();
}
