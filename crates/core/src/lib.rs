//! # PreemptDB
//!
//! A Rust reproduction of **"Low-Latency Transaction Scheduling via
//! Userspace Interrupts: Why Wait or Yield When You Can Preempt?"**
//! (SIGMOD 2025): a memory-optimized multi-version database engine whose
//! worker threads *preempt* long-running low-priority transactions with
//! software user interrupts and a pure-userspace context switch, so that
//! short high-priority transactions run within microseconds of arrival
//! instead of waiting behind multi-millisecond analytics.
//!
//! The workspace layering (see `DESIGN.md`):
//!
//! | crate | role |
//! |-------|------|
//! | [`context`] | userspace context switch, TCBs, CLS, non-preemptible regions (§4.2–4.4) |
//! | [`uintr`] | software user-interrupt layer + kernel-mediated baseline (§2.3) |
//! | [`sim`] | deterministic virtual-time multicore substrate (testbed substitute) |
//! | [`mvcc`] | ERMIA-style snapshot-isolation storage engine (§2.2) |
//! | [`sched`] | workers, policies, batched on-demand preemption, starvation prevention (§4–5) |
//! | [`prov`] | latency provenance: per-phase attribution + SLO-violation flight recorder |
//! | [`workloads`] | TPC-C, TPC-H Q2, mixed-workload factories (§6.1) |
//!
//! ## Quickstart
//!
//! ```
//! use preemptdb::{Database, DatabaseConfig, Priority};
//!
//! let db = Database::open(DatabaseConfig::default().workers(2));
//!
//! // Ordinary transactional access to the embedded engine:
//! let table = db.engine().create_table("kv");
//! let mut tx = db.engine().begin_si();
//! let oid = tx.insert(&table, b"hello").unwrap();
//! tx.commit().unwrap();
//!
//! // Submit work at a priority; high-priority work preempts low.
//! let engine = db.engine().clone();
//! let value = db.call("lookup", preemptdb::Priority::High, move || {
//!     let mut tx = engine.begin_si();
//!     let v = tx.read(&table, oid).map(|p| p.to_vec());
//!     tx.commit().unwrap();
//!     v
//! });
//! assert_eq!(value.unwrap(), b"hello");
//! db.shutdown();
//! ```

pub use preempt_context as context;
pub use preempt_metrics as metrics;
pub use preempt_mvcc as mvcc;
pub use preempt_prov as prov;
pub use preempt_sched as sched;
pub use preempt_sim as sim;
pub use preempt_trace as trace;
pub use preempt_uintr as uintr;
pub use preempt_workloads as workloads;

pub use preempt_mvcc::{
    Engine, EngineConfig, EngineStats, HashIndex, IsolationLevel, OrderedIndex, Table, TxError,
    TxResult,
};
pub use preempt_sched::{
    DriverConfig, Metrics, Policy, Request, RunReport, Runtime, WorkOutcome, WorkloadFactory,
};
pub use preempt_sim::SimConfig;

use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{JoinHandle, Thread};

use preempt_sched::{spawn_worker_thread, Plane, WorkerShared};

/// Application-facing priority of submitted work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// The regular scheduling path (paper Figure 5 ①).
    Low,
    /// Preempts in-flight low-priority work via a user interrupt.
    High,
}

impl Priority {
    fn level(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::High => 1,
        }
    }
}

/// Configuration for an embedded [`Database`].
#[derive(Clone, Debug)]
pub struct DatabaseConfig {
    pub workers: usize,
    /// Queue capacity per priority level `[low, high]`.
    pub queue_caps: Vec<usize>,
    pub policy: Policy,
    pub engine: EngineConfig,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            workers: num_cpus_fallback(),
            queue_caps: vec![64, 16],
            policy: Policy::preemptdb(),
            engine: EngineConfig::default(),
        }
    }
}

impl DatabaseConfig {
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    pub fn policy(mut self, p: Policy) -> Self {
        self.policy = p;
        self
    }
}

fn num_cpus_fallback() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// An embedded PreemptDB instance: the MVCC engine plus a pool of
/// preemption-capable worker threads that execute submitted work by
/// priority. This is the adoption-facing API; the figure-reproduction
/// experiments use [`sched::run`] with the virtual-time simulator
/// instead.
///
/// The pool is a one-shard scheduler [`Plane`] with the default
/// robustness settings: every submission is dispatched inline on the
/// submitting thread, and a `preemptdb-plane` thread runs the delivery
/// watchdog, degradation and the adaptive controller. Nothing stops or
/// replaces a worker: a closure that runs long without preemption points
/// delays the work queued behind it, and the watchdog re-sends the
/// interrupt it has not acknowledged, with backoff, meanwhile.
pub struct Database {
    engine: Engine,
    plane: Arc<Plane>,
    housekeeper: Option<JoinHandle<()>>,
    /// One thread per worker, spawned once.
    threads: Vec<JoinHandle<()>>,
}

impl Database {
    /// Opens the engine, spawns the worker pool and the plane's
    /// housekeeper, all from the calling thread.
    pub fn open(cfg: DatabaseConfig) -> Database {
        let engine = Engine::new(cfg.engine);
        let workers: Vec<_> = (0..cfg.workers)
            .map(|i| WorkerShared::new(i, &cfg.queue_caps))
            .collect();
        let threads = workers.iter().map(|w| spawn_worker_thread(w, cfg.policy)).collect();
        let driver = DriverConfig {
            n_workers: cfg.workers,
            queue_caps: cfg.queue_caps,
            ..DriverConfig::paper_default(cfg.policy)
        };
        let shard = metrics::Shard::new("scheduler", u32::MAX);
        let plane = Arc::new(Plane::new(&driver, 0, &workers, &workers, shard, None));
        Database {
            engine,
            housekeeper: Some(plane.spawn_housekeeper()),
            plane,
            threads,
        }
    }

    /// The embedded storage engine (begin transactions, create tables).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.plane.workers().len()
    }

    /// Submits `work` at `priority` without waiting for completion.
    /// High-priority submissions send a user interrupt to the target
    /// worker (batched on-demand preemption with batch size 1).
    pub fn submit(
        &self,
        kind: &'static str,
        priority: Priority,
        work: impl FnOnce() -> WorkOutcome + Send + 'static,
    ) {
        self.submit_traced(kind, priority, 0, 0, work);
    }

    /// [`submit`](Self::submit) with a provenance identity: `req_id` is
    /// the end-to-end request id (0 = let the worker synthesize one) and
    /// `ingress` the cycle timestamp the request entered the process
    /// (0 = no front door; admission-wait attributes as zero). The
    /// server's wire protocol threads both through here so attribution
    /// and SLO exemplars can name the originating connection.
    ///
    /// Dispatches on the calling thread. When every worker's queue is
    /// full, it yields and retries (backpressure).
    pub fn submit_traced(
        &self,
        kind: &'static str,
        priority: Priority,
        req_id: u64,
        ingress: u64,
        work: impl FnOnce() -> WorkOutcome + Send + 'static,
    ) {
        let level = priority.level();
        // The lines the dispatch writes are on their way while the
        // request is built.
        self.plane.prefetch(level);
        // Request work is FnMut (re-executable under a retry budget);
        // `submit` takes one-shot closures, and never sets a retry budget,
        // so re-execution cannot happen — the None arm is a typed
        // impossibility, not a reachable path. A closure that fits travels
        // inside the request: nothing is allocated here or freed on the
        // worker.
        let mut work = Some(work);
        let now = sched::clock::now_cycles();
        let mut req = Request::new_inline(kind, level, now, move || match work.take() {
            Some(f) => f(),
            None => WorkOutcome::failed(0),
        })
        .with_provenance(req_id, ingress);
        while let Err(back) = self.plane.dispatch(req, level) {
            req = back;
            std::thread::yield_now();
        }
    }

    /// Submits `f` at `priority` and blocks until it completes, returning
    /// its result. The result comes back through a slot the caller
    /// allocates and frees, so the worker allocates and frees nothing.
    pub fn call<R: Send + 'static>(
        &self,
        kind: &'static str,
        priority: Priority,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> R {
        let slot = Arc::new(Mutex::new(None));
        let done = Completer {
            slot: Some(Arc::clone(&slot)),
            waiter: std::thread::current(),
        };
        self.submit(kind, priority, move || {
            done.complete(f());
            WorkOutcome::default()
        });
        Completer::wait(slot)
    }

    /// Runs a conflict-prone transaction with **dynamic priority
    /// adjustment** (paper §5 Discussions: "increasing the priority for
    /// transactions that are already aborted beyond a threshold number of
    /// times"): `f` is attempted at low priority; once it has aborted
    /// `boost_after` times, the remaining retries run at high priority,
    /// where preemption shields them from long low-priority work and the
    /// retry loop convoys less.
    ///
    /// Returns `(result, total_retries, boosted)`.
    pub fn call_with_boost<R: Send + 'static>(
        &self,
        kind: &'static str,
        boost_after: u64,
        f: impl Fn() -> TxResult<R> + Send + Sync + 'static,
    ) -> (R, u64, bool) {
        let f = Arc::new(f);
        let mut retries = 0u64;
        loop {
            let priority = if retries >= boost_after {
                Priority::High
            } else {
                Priority::Low
            };
            let f2 = f.clone();
            // One bounded attempt per dispatch so the boost decision is
            // re-evaluated between aborts.
            let outcome = self.call(kind, priority, move || f2());
            match outcome {
                Ok(r) => return (r, retries, retries >= boost_after),
                Err(
                    TxError::WriteConflict | TxError::ValidationFailed | TxError::FaultInjected,
                ) => {
                    retries += 1;
                }
                Err(e) => panic!("unexpected transaction error: {e}"),
            }
        }
    }

    /// Per-kind counts and latencies across workers so far, and the
    /// pool's counters (the plane's dispatch and delivery included), read
    /// live from their metrics shards. (A worker counts a request just
    /// after its closure returns, so a `call`'s own completion can land a
    /// moment after the call does.)
    pub fn metrics(&self) -> Metrics {
        let workers = self.plane.workers().iter().map(|w| &*w.metrics_shard);
        let shards = std::iter::once(&**self.plane.shard()).chain(workers);
        Metrics::from_snapshot(&metrics::MetricsSnapshot::of_shards(shards))
    }

    /// Attaches the pool's metrics shards — one per worker and the
    /// plane's — to `registry`, so its snapshots and scrapes carry them.
    pub fn attach_metrics(&self, registry: &metrics::MetricsRegistry) {
        registry.attach(self.plane.shard());
        for w in self.plane.workers() {
            registry.attach(&w.metrics_shard);
        }
    }

    /// Stops the workers (in-flight work completes), joins them and the
    /// housekeeper, and returns the final [`metrics`](Self::metrics).
    pub fn shutdown(mut self) -> Metrics {
        self.plane.stop();
        if let Some(h) = self.housekeeper.take() {
            h.thread().unpark();
            h.join().expect("the plane's housekeeper panicked");
        }
        for h in std::mem::take(&mut self.threads) {
            h.join().expect("worker panicked");
        }
        self.metrics()
    }

    /// Scheduler-visible worker state (advanced integrations and tests).
    pub fn workers(&self) -> &[Arc<WorkerShared>] {
        self.plane.workers()
    }

    /// Wake-target helper (used internally; exposed for tests).
    pub fn wake_all(&self) {
        for w in self.plane.workers() {
            w.wake();
        }
    }
}

/// The closure's end of a [`Database::call`]: a one-value slot shared
/// with the caller, who holds the other reference. The caller takes the
/// value only once this end has let go, so the slot is allocated and
/// freed on the calling thread; the worker only writes it.
struct Completer<R> {
    slot: Option<Arc<Mutex<Option<R>>>>,
    waiter: Thread,
}

impl<R> Completer<R> {
    fn complete(self, value: R) {
        if let Some(slot) = &self.slot {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        }
    }

    /// Parks until the completer is gone, then takes what it left.
    fn wait(mut slot: Arc<Mutex<Option<R>>>) -> R {
        loop {
            match Arc::try_unwrap(slot) {
                Ok(cell) => match cell.into_inner().unwrap_or_else(PoisonError::into_inner) {
                    Some(value) => return value,
                    None => panic!("worker dropped the result"),
                },
                Err(shared) => {
                    slot = shared;
                    std::thread::park();
                }
            }
        }
    }
}

impl<R> Drop for Completer<R> {
    /// Lets go of the slot, then wakes the caller. Dropped without
    /// completing — the closure panicked, or the request was dropped
    /// unrun — it leaves the slot empty, so the caller never waits
    /// forever.
    fn drop(&mut self) {
        drop(self.slot.take());
        self.waiter.unpark();
    }
}

/// A `Database` dropped without [`shutdown`](Database::shutdown) stops its
/// plane: the workers finish what they run and exit, and so does the
/// housekeeper. Neither is joined.
impl Drop for Database {
    fn drop(&mut self) {
        self.plane.stop();
        if let Some(h) = &self.housekeeper {
            h.thread().unpark();
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("workers", &self.worker_count())
            .field("engine", &self.engine)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_submit_shutdown() {
        let db = Database::open(DatabaseConfig::default().workers(2));
        assert_eq!(db.worker_count(), 2);
        let n = db.call("add", Priority::High, || 40 + 2);
        assert_eq!(n, 42);
        let m = db.shutdown();
        assert_eq!(m.kind("add").unwrap().completed, 1);
    }

    #[test]
    fn call_reports_a_dropped_result() {
        let db = Database::open(DatabaseConfig::default().workers(1));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.call("boom", Priority::High, || -> u64 { panic!("injected") })
        }));
        let msg = caught.expect_err("the caller must not wait forever");
        let msg = msg.downcast_ref::<&str>();
        assert_eq!(msg, Some(&"worker dropped the result"));
        // The worker contained the panic and serves the next call.
        assert_eq!(db.call("ok", Priority::Low, || 7), 7);
        db.shutdown();
    }

    #[test]
    fn transactions_through_the_pool() {
        let db = Database::open(DatabaseConfig::default().workers(2));
        let table = db.engine().create_table("t");
        let engine = db.engine().clone();
        let t2 = table.clone();
        let oid = db.call("insert", Priority::Low, move || {
            let mut tx = engine.begin_si();
            let oid = tx.insert(&t2, b"payload").unwrap();
            tx.commit().unwrap();
            oid
        });
        let engine = db.engine().clone();
        let got = db.call("read", Priority::High, move || {
            let mut tx = engine.begin_si();
            let v = tx.read(&table, oid).unwrap().to_vec();
            tx.commit().unwrap();
            v
        });
        assert_eq!(got, b"payload");
        db.shutdown();
    }

    #[test]
    fn many_concurrent_calls() {
        let db = Arc::new(Database::open(DatabaseConfig::default().workers(3)));
        let mut joins = Vec::new();
        for t in 0..4 {
            let db = db.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let p = if i % 2 == 0 {
                        Priority::High
                    } else {
                        Priority::Low
                    };
                    let r = db.call("calc", p, move || t * 1000 + i);
                    assert_eq!(r, t * 1000 + i);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let db = Arc::into_inner(db).expect("all clones joined");
        let m = db.shutdown();
        assert_eq!(m.kind("calc").unwrap().completed, 200);
    }

    /// `metrics()` is a live view of the workers' shards: complete before
    /// `shutdown`, and `shutdown` returns the same thing.
    #[test]
    fn metrics_are_complete_before_shutdown() {
        let db = Database::open(DatabaseConfig::default().workers(2));
        for i in 0..200u64 {
            let p = [Priority::High, Priority::Low][(i % 2) as usize];
            assert_eq!(db.call("calc", p, move || i * 3), i * 3);
        }
        // A worker counts a request right after its closure has released
        // the caller: give the 200th a moment to land.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.metrics().total_completed() < 200 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let live = db.metrics();
        let calc = live.kind("calc").unwrap();
        assert_eq!((calc.completed, calc.latency.count()), (200, 200));
        let last = db.shutdown();
        assert_eq!(last.kind("calc").unwrap().completed, 200);
        assert_eq!(last.total_completed(), 200);
    }
}
