//! Transaction requests and per-worker dispatch queues.
//!
//! The scheduling thread dispatches [`Request`]s into per-worker,
//! per-priority lock-free queues (§4.1/§6.1: "lock-free high-priority
//! transaction queues"). A request carries the transaction closure, its
//! kind label, priority level, and the generation timestamp the latency
//! metrics are measured from.

use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};

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
    /// A request built by [`Request::new_inline`] whose closure fits
    /// [`INLINE_WORK_BYTES`] keeps the closure in the request itself, and
    /// `work` is then a placeholder that panics if called; the worker
    /// runs whichever holds the closure ([`Request::run`]).
    pub work: Box<dyn FnMut() -> WorkOutcome + Send>,
    /// The closure of an inline request (see `work`).
    inline: InlineWork,
}

/// Capacity of a request's inline closure slot: a closure of at most
/// this many bytes, aligned to at most 8, travels inside the request,
/// so submitting it allocates nothing and running it frees nothing.
pub const INLINE_WORK_BYTES: usize = 96;

/// How an inline slot calls and drops the closure type it holds.
struct InlineVTable {
    // SAFETY: takes a pointer to a live closure of the type the table
    // was made for (`VTableOf`).
    call: unsafe fn(*mut u8) -> WorkOutcome,
    // SAFETY: as `call`; the closure is dead afterwards.
    drop: unsafe fn(*mut u8),
}

/// The `InlineVTable` of closure type `F`, as a promotable constant.
struct VTableOf<F>(PhantomData<F>);

impl<F: FnMut() -> WorkOutcome> VTableOf<F> {
    const VTABLE: InlineVTable = InlineVTable {
        call: Self::call,
        drop: Self::drop,
    };

    /// SAFETY: `p` points at a live `F`.
    unsafe fn call(p: *mut u8) -> WorkOutcome {
        // SAFETY: the caller's contract.
        unsafe { (*p.cast::<F>())() }
    }

    /// SAFETY: `p` points at a live `F`, never used again.
    unsafe fn drop(p: *mut u8) {
        // SAFETY: the caller's contract.
        unsafe { p.cast::<F>().drop_in_place() }
    }
}

/// A closure stored by value: `vtable` is set exactly while `buf`
/// holds a live closure of the type it was made for.
struct InlineWork {
    buf: MaybeUninit<[u64; INLINE_WORK_BYTES / 8]>,
    vtable: Option<&'static InlineVTable>,
    /// The closure is `Send` but maybe not `Sync`; so is the slot.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

// SAFETY: only `Send` closures are stored (`Request::new_inline`).
unsafe impl Send for InlineWork {}

impl InlineWork {
    const EMPTY: InlineWork = InlineWork {
        buf: MaybeUninit::uninit(),
        vtable: None,
        _not_sync: PhantomData,
    };

    /// Stores `f` by value if it fits, else hands it back.
    fn store<F: FnMut() -> WorkOutcome + Send + 'static>(f: F) -> Result<InlineWork, F> {
        if size_of::<F>() > INLINE_WORK_BYTES || align_of::<F>() > align_of::<u64>() {
            return Err(f);
        }
        let mut slot = InlineWork {
            buf: MaybeUninit::uninit(),
            vtable: Some(&VTableOf::<F>::VTABLE),
            _not_sync: PhantomData,
        };
        // SAFETY: checked above that `F` fits the buffer's size and
        // alignment; `vtable` now names `F`.
        unsafe { slot.buf.as_mut_ptr().cast::<F>().write(f) };
        Ok(slot)
    }
}

impl Drop for InlineWork {
    fn drop(&mut self) {
        if let Some(vt) = self.vtable.take() {
            // SAFETY: `vtable` was set, so `buf` holds its live closure.
            unsafe { (vt.drop)(self.buf.as_mut_ptr().cast()) };
        }
    }
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
            inline: InlineWork::EMPTY,
        }
    }

    /// As [`new`](Self::new), but a closure that fits
    /// [`INLINE_WORK_BYTES`] is stored inside the request instead of a
    /// `Box`: the pool's submit path, which then neither allocates nor
    /// leaves the worker a free.
    pub fn new_inline(
        kind: &'static str,
        priority: Priority,
        created_at: u64,
        work: impl FnMut() -> WorkOutcome + Send + 'static,
    ) -> Request {
        match InlineWork::store(work) {
            Ok(inline) => Request {
                kind,
                priority,
                created_at,
                deadline: None,
                max_retries: 0,
                req_id: 0,
                ingress: 0,
                // A zero-sized closure: boxing it allocates nothing.
                work: Box::new(|| panic!("this request's work is inline: call Request::run")),
                inline,
            },
            Err(work) => Request::new(kind, priority, created_at, work),
        }
    }

    /// Runs the request's closure once, wherever it is stored.
    #[inline]
    pub fn run(&mut self) -> WorkOutcome {
        match self.inline.vtable {
            // SAFETY: `vtable` is set, so `buf` holds its live closure.
            Some(vt) => unsafe { (vt.call)(self.inline.buf.as_mut_ptr().cast()) },
            None => (self.work)(),
        }
    }

    /// Whether the closure is stored inline.
    pub(crate) fn is_inline(&self) -> bool {
        self.inline.vtable.is_some()
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
    #[allow(
        clippy::result_large_err,
        reason = "a full queue hands the request back unboxed"
    )]
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
    fn small_closures_are_stored_inline() {
        let n = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let n2 = n.clone();
        let mut r = Request::new_inline("i", 1, 7, move || {
            n2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            WorkOutcome::committed(2)
        });
        assert!(r.is_inline());
        assert_eq!(r.run().retries, 2);
        assert_eq!(r.run().retries, 2, "inline work is re-executable");
        assert_eq!(n.load(std::sync::atomic::Ordering::Relaxed), 2);
        drop(r);
        assert_eq!(
            std::sync::Arc::strong_count(&n),
            1,
            "dropping the request drops the closure"
        );

        let big = [7u64; INLINE_WORK_BYTES / 8 + 1];
        let mut r = Request::new_inline("b", 0, 0, move || WorkOutcome::committed(big[0]));
        assert!(!r.is_inline(), "a closure past the slot is boxed");
        assert_eq!(r.run().retries, 7);
        assert_eq!((r.work)().retries, 7);
    }

    #[test]
    fn queued_inline_closures_are_dropped_with_the_queue() {
        let n = std::sync::Arc::new(());
        let q = RequestQueue::new(2);
        let n2 = n.clone();
        q.push(Request::new_inline("i", 0, 0, move || {
            let _ = &n2;
            WorkOutcome::default()
        }))
        .unwrap();
        assert_eq!(std::sync::Arc::strong_count(&n), 2);
        drop(q);
        assert_eq!(std::sync::Arc::strong_count(&n), 1);
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
