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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use preempt_sched::{worker_main, WakeTarget, WorkerShared};
use preempt_uintr::UipiSender;

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
pub struct Database {
    engine: Engine,
    workers: Vec<Arc<WorkerShared>>,
    /// `routes[i]` reaches `workers[i]`'s first incarnation.
    routes: Vec<Route>,
    handles: Vec<std::thread::JoinHandle<()>>,
    rr: AtomicUsize,
}

/// How `submit` reaches a worker: its interrupt descriptor and wake
/// target, captured once at `open` so the per-request path neither takes
/// the two `WorkerShared` mutexes nor bumps the reference counts behind
/// them (lines the worker itself is busy on). Valid while the worker's
/// incarnation is the one captured; a respawned worker publishes fresh
/// ones, and `submit` falls back to reading them under the locks.
struct Route {
    incarnation: u64,
    high: UipiSender,
    wake: WakeTarget,
}

/// Dropped as the last thing a worker thread does, unwinding included:
/// renames the thread to `preemptdb-gone`. `join` returns when the kernel
/// clears the thread's tid word, a moment *before* the task leaves
/// `/proc/self/task`; a worker still named then is counted by whoever
/// lists `preemptdb-worker-*` threads right after a `shutdown` (the
/// benchmark's placement does, and refuses to run with two).
struct RetireThreadName;

impl Drop for RetireThreadName {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        {
            extern "C" {
                fn prctl(option: i32, ...) -> i32;
            }
            const PR_SET_NAME: i32 = 15;
            // SAFETY: PR_SET_NAME reads a NUL-terminated string of at most
            // 16 bytes from its argument; the literal is static, 15 with
            // its NUL.
            unsafe { prctl(PR_SET_NAME, c"preemptdb-gone".as_ptr()) };
        }
    }
}

impl Database {
    /// Opens the engine and spawns the worker pool.
    pub fn open(cfg: DatabaseConfig) -> Database {
        let engine = Engine::new(cfg.engine);
        let mut workers = Vec::with_capacity(cfg.workers);
        let mut handles = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let shared = WorkerShared::new(i, &cfg.queue_caps);
            let ws = shared.clone();
            let policy = cfg.policy;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("preemptdb-worker-{i}"))
                    .spawn(move || {
                        let _name = RetireThreadName;
                        worker_main(ws, policy)
                    })
                    .expect("spawn worker"),
            );
            workers.push(shared);
        }
        // Wait for workers to publish their user-interrupt descriptors
        // (each sets its wake target first).
        let routes = workers
            .iter()
            .map(|w| loop {
                if let (Some(upid), Some(wake)) = (w.upid(), w.wake_target()) {
                    break Route {
                        incarnation: w.incarnation(),
                        high: UipiSender::new(upid, Priority::High.level()),
                        wake,
                    };
                }
                std::thread::yield_now();
            })
            .collect();
        Database {
            engine,
            workers,
            routes,
            handles,
            rr: AtomicUsize::new(0),
        }
    }

    /// The embedded storage engine (begin transactions, create tables).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
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
    pub fn submit_traced(
        &self,
        kind: &'static str,
        priority: Priority,
        req_id: u64,
        ingress: u64,
        work: impl FnOnce() -> WorkOutcome + Send + 'static,
    ) {
        let level = priority.level() as usize;
        let n = self.workers.len();
        // Round-robin. The worker is picked before the request is built
        // so that the lines the push and the send write — the queue word
        // and tail cell, last written by the worker's pop, and the pending
        // word, last cleared by its handler — are already on their way
        // here while the closure is boxed.
        let mut i = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        self.workers[i].queues[level].prefetch_push();
        if priority == Priority::High {
            self.routes[i].high.prefetch();
        }
        // Request work is FnMut (re-executable under a retry budget);
        // `submit` takes one-shot closures, and never sets a retry budget,
        // so re-execution cannot happen — the None arm is a typed
        // impossibility, not a reachable path.
        let mut work = Some(work);
        let mut req = Request::new(kind, priority.level(), sched::clock::now_cycles(), move || {
            match work.take() {
                Some(f) => f(),
                None => WorkOutcome::failed(0),
            }
        })
        .with_provenance(req_id, ingress);
        // Overflow to the next worker (yield if all are full:
        // backpressure).
        loop {
            for _ in 0..n {
                let w = &self.workers[i];
                match w.queues[level].push(req) {
                    Ok(()) => {
                        let route = &self.routes[i];
                        if w.incarnation() == route.incarnation {
                            if priority == Priority::High {
                                route.high.send();
                            }
                            route.wake.wake();
                        } else {
                            if priority == Priority::High {
                                if let Some(upid) = w.upid() {
                                    UipiSender::new(upid, priority.level()).send();
                                }
                            }
                            w.wake();
                        }
                        return;
                    }
                    Err(back) => req = back,
                }
                i = self.rr.fetch_add(1, Ordering::Relaxed) % n;
            }
            std::thread::yield_now();
        }
    }

    /// Submits `f` at `priority` and blocks until it completes, returning
    /// its result.
    pub fn call<R: Send + 'static>(
        &self,
        kind: &'static str,
        priority: Priority,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = mpsc::sync_channel(1);
        self.submit(kind, priority, move || {
            let _ = tx.send(f());
            WorkOutcome::default()
        });
        rx.recv().expect("worker dropped the result")
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

    /// Per-kind counts and latencies across workers so far, read live
    /// from the workers' metrics shards. (A worker counts a request just
    /// after its closure returns, so a `call`'s own completion can land a
    /// moment after the call does.)
    pub fn metrics(&self) -> Metrics {
        let shards = self.workers.iter().map(|w| &*w.metrics_shard);
        Metrics::from_snapshot(&metrics::MetricsSnapshot::of_shards(shards))
    }

    /// Stops the workers (in-flight work completes), joins them and
    /// returns the final [`metrics`](Self::metrics).
    pub fn shutdown(mut self) -> Metrics {
        for w in &self.workers {
            w.stop();
        }
        for h in self.handles.drain(..) {
            h.join().expect("worker panicked");
        }
        self.metrics()
    }

    /// Scheduler-visible worker state (advanced integrations and tests).
    pub fn workers(&self) -> &[Arc<WorkerShared>] {
        &self.workers
    }

    /// Wake-target helper (used internally; exposed for tests).
    pub fn wake_all(&self) {
        for w in &self.workers {
            w.wake();
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("workers", &self.workers.len())
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
