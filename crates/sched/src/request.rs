//! Transaction requests and per-worker dispatch queues.
//!
//! The scheduling thread dispatches [`Request`]s into per-worker,
//! per-priority lock-free queues (§4.1/§6.1: "lock-free high-priority
//! transaction queues"). A request carries the transaction closure, its
//! kind label, priority level, and the generation timestamp the latency
//! metrics are measured from.

use crate::deque::StealDeque;

/// Priority level: 0 = lowest ("normal"); higher numbers are more urgent.
/// The paper's configuration uses two levels (low/high); more levels are
/// the multi-level extension (§5 Discussions).
pub type Priority = u8;

/// Outcome of running a request's work closure.
#[derive(Clone, Copy, Debug)]
pub struct WorkOutcome {
    /// Times the transaction had to retry due to conflicts before
    /// committing (0 = first try). These are retries the closure absorbed
    /// internally, distinct from worker-level re-executions.
    pub retries: u64,
    /// Whether the work committed. `false` asks the worker to re-execute
    /// the closure (bounded by [`Request::max_retries`], with backoff)
    /// instead of recording a completion.
    pub committed: bool,
}

impl WorkOutcome {
    /// A committed outcome with `retries` internal retries.
    pub fn committed(retries: u64) -> WorkOutcome {
        WorkOutcome {
            retries,
            committed: true,
        }
    }

    /// An uncommitted outcome: the worker may re-execute the closure.
    pub fn failed(retries: u64) -> WorkOutcome {
        WorkOutcome {
            retries,
            committed: false,
        }
    }
}

impl Default for WorkOutcome {
    /// Committed on first try — what the overwhelming majority of
    /// closures return.
    fn default() -> WorkOutcome {
        WorkOutcome::committed(0)
    }
}

/// A transaction request as dispatched by the scheduling thread.
pub struct Request {
    /// Kind label ("neworder", "payment", "q2", ...), used for metrics.
    pub kind: &'static str,
    pub priority: Priority,
    /// Generation timestamp in cycles; the batch's shared start stamp
    /// (§6.1).
    pub created_at: u64,
    /// Absolute cycle deadline: a worker that reaches it before the work
    /// commits records a deadline abort instead of executing further.
    /// `None` = no deadline.
    pub deadline: Option<u64>,
    /// Worker-level re-execution budget when the closure reports
    /// `committed == false`. 0 = never re-execute.
    pub max_retries: u32,
    /// End-to-end request id for the provenance plane (wire-assigned by
    /// the server front door). 0 = unassigned; the worker synthesizes
    /// one so simulator workloads are attributable too.
    pub req_id: u64,
    /// Cycle timestamp the request entered the process (wire arrival),
    /// from which admission-wait is measured. 0 = no front door;
    /// admission attributes as zero.
    pub ingress: u64,
    /// The transaction logic, run to completion on a worker. `FnMut` so
    /// an uncommitted attempt can be re-executed under the retry budget.
    pub work: Box<dyn FnMut() -> WorkOutcome + Send>,
}

impl Request {
    pub fn new(
        kind: &'static str,
        priority: Priority,
        created_at: u64,
        work: impl FnMut() -> WorkOutcome + Send + 'static,
    ) -> Request {
        Request {
            kind,
            priority,
            created_at,
            deadline: None,
            max_retries: 0,
            req_id: 0,
            ingress: 0,
            work: Box::new(work),
        }
    }

    /// Binds the provenance identity: the wire request id and the
    /// ingress timestamp admission-wait is measured from.
    pub fn with_provenance(mut self, req_id: u64, ingress: u64) -> Request {
        self.req_id = req_id;
        self.ingress = ingress;
        self
    }

    /// Sets an absolute cycle deadline.
    pub fn with_deadline(mut self, deadline: u64) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the worker-level re-execution budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Request {
        self.max_retries = max_retries;
        self
    }
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("kind", &self.kind)
            .field("priority", &self.priority)
            .field("created_at", &self.created_at)
            .finish()
    }
}

/// A bounded lock-free dispatch queue (one per worker per priority),
/// backed by the sharded plane's [`StealDeque`]: the owner pops FIFO,
/// same-shard siblings may [`steal`](RequestQueue::steal) the newest
/// entry from the tail, and foreign schedulers may push (the
/// cross-shard shootdown path).
pub struct RequestQueue {
    q: StealDeque,
}

impl RequestQueue {
    pub fn new(capacity: usize) -> RequestQueue {
        RequestQueue {
            q: StealDeque::new(capacity.max(1)),
        }
    }

    /// Attempts to enqueue; returns the request back if full.
    pub fn push(&self, r: Request) -> Result<(), Request> {
        self.q.push(r)
    }

    pub fn pop(&self) -> Option<Request> {
        self.q.pop()
    }

    /// Removes the newest request from the tail (work stealing): the
    /// thief takes the most recently dispatched work, leaving the
    /// victim's oldest — and most latency-critical — entries in place.
    pub fn steal(&self) -> Option<Request> {
        self.q.steal()
    }

    /// Starts the cache misses the next [`push`](Self::push) would wait
    /// for (a hint): call it before building the request.
    #[inline]
    pub fn prefetch_push(&self) {
        self.q.prefetch_push()
    }

    /// As [`prefetch_push`](Self::prefetch_push), for [`pop`](Self::pop).
    #[inline]
    pub fn prefetch_pop(&self) {
        self.q.prefetch_pop()
    }

    pub fn len(&self) -> usize {
        self.q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.q.is_full()
    }

    pub fn capacity(&self) -> usize {
        self.q.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: &'static str) -> Request {
        Request::new(kind, 1, 0, WorkOutcome::default)
    }

    #[test]
    fn fifo_order() {
        let q = RequestQueue::new(4);
        q.push(req("a")).unwrap();
        q.push(req("b")).unwrap();
        assert_eq!(q.pop().unwrap().kind, "a");
        assert_eq!(q.pop().unwrap().kind, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn bounded_capacity_rejects_overflow() {
        let q = RequestQueue::new(2);
        q.push(req("a")).unwrap();
        q.push(req("b")).unwrap();
        assert!(q.is_full());
        let back = q.push(req("c")).unwrap_err();
        assert_eq!(back.kind, "c", "rejected request is returned intact");
        q.pop().unwrap();
        q.push(req("c")).unwrap();
    }

    #[test]
    fn work_closure_runs() {
        let q = RequestQueue::new(1);
        q.push(Request::new("w", 0, 42, || WorkOutcome::committed(3)))
            .unwrap();
        let mut r = q.pop().unwrap();
        assert_eq!(r.created_at, 42);
        assert_eq!((r.work)().retries, 3);
        assert!((r.work)().committed, "FnMut work is re-executable");
    }

    #[test]
    fn cross_thread_producer_consumer() {
        let q = std::sync::Arc::new(RequestQueue::new(8));
        let qp = q.clone();
        let producer = std::thread::spawn(move || {
            let mut pushed = 0;
            while pushed < 1000 {
                if qp.push(req("x")).is_ok() {
                    pushed += 1;
                }
            }
        });
        let mut popped = 0;
        while popped < 1000 {
            if q.pop().is_some() {
                popped += 1;
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty());
    }
}
