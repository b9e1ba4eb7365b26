//! The per-worker level queue: a bounded lock-free MPMC FIFO ring of
//! [`Request`]s. The shard's scheduler pushes, the owning worker pops,
//! and on a sharded plane an idle same-shard sibling steals by popping
//! too, so every taker gets the *oldest* request and a low request's
//! queue wait is bounded by the ones ahead of it.
//!
//! ## Protocol
//!
//! All index state lives in one packed word, [`state`](RequestQueue):
//!
//! ```text
//! bits 63..32   head — *ticket* of the oldest element
//! bits 15..0    len  — number of live elements
//! ```
//!
//! A ticket is an absolute position counter, wrapping at the largest
//! multiple of the capacity that fits 32 bits so `ticket % capacity`
//! stays a consistent ring index across the wrap. Every operation
//! first *claims* a ticket with a single `compare_exchange` on the
//! word (a push claims the tail `head + len`, a pop the head), then
//! completes the element handoff through the claimed cell. Head and
//! tail only move forward, so each ticket is claimed by exactly one
//! push and one pop. The word CAS needs no ABA stamp: the transition
//! (new word, claimed ticket) is a pure function of the packed bits, so
//! a CAS that succeeds against a recurred bit pattern performs exactly
//! the transition a fresh snapshot would have.
//!
//! The handoff is paired to the claim by a per-cell **sequence stamp**
//! (`ticket << 1 | phase`, the discipline of crossbeam's `ArrayQueue`):
//!
//! * a **push** that claimed ticket `t` waits for `EMPTY(t)`, moves the
//!   request into the cell, then publishes `FULL(t)`;
//! * a **pop** that claimed ticket `t` waits for `FULL(t)`, moves the
//!   request out, then opens the cell for the push one lap later,
//!   `EMPTY(t + capacity)`.
//!
//! No two threads ever wait for the same stamp, so a plain load finds
//! it and a plain store passes the cell on: there is nothing left to
//! arbitrate. A push whose claim went round the ring while an earlier
//! lap's handoff on its cell is still in flight simply waits for its
//! own stamp. Stamps tell laps apart modulo the wrap: a stamp is
//! misread only when one cell has a push (or a pop) in flight on every
//! lap of the wrap and one more, so it is safe while no more threads
//! push, and no more pop, at once than the wrap has laps (2³² /
//! capacity in production; tests that shrink it keep to that).
//! The window between a claim and the stamp publication is the
//! queue's **non-preemptible region** — a fiber parked there stalls
//! every later operation on the same cell — so both operations hold a
//! `NonPreemptGuard` across their claim-to-handoff window;
//! preempt-lint's `shard-deque` protocol rows pin the orderings (see
//! `crates/analysis`'s spec table) and the loom models
//! `steal_deque_no_lost_or_duplicated_requests` and
//! `steal_deque_four_claims_complete` explore the claim/handoff split
//! exhaustively, spin-waits, cell reuse and the two-word payload
//! included.
//!
//! ## Layout (DESIGN.md §13.1)
//!
//! The request is stored *inline*, in the cell that carries its stamp:
//! no allocation per push, no pointer to chase per pop. A cell is
//! 64-byte aligned (a stamp plus a 184-byte `Request`, whose small
//! closures travel inside it: three lines) and
//! the packed word has a line to itself, so one hand-off moves the
//! `state` line and one cell between the two cores. The payload needs
//! no atomics of its own: it is written only between seeing `EMPTY(t)`
//! and publishing `FULL(t)`, read only between seeing `FULL(t)` and
//! publishing `EMPTY(t + capacity)`; the claim admits one thread to
//! each window, and the Release store that closes a window pairs with
//! the Acquire load that opens the next — the stamp is the payload's
//! lock. Those misses can be *started* early:
//! [`prefetch_push`](RequestQueue::prefetch_push) before the submitter
//! builds its request, [`prefetch_pop`](RequestQueue::prefetch_pop) from
//! the user-interrupt handler, a context switch ahead of the `pop`.
//! Neither waits on `state` to find its cell: each side keeps a *hint*
//! of the ticket its next operation will claim, on a line only that
//! side's operations write. A hint goes stale (a foreign pusher or a
//! thief moves the tail or head) and is then a wasted prefetch; it is
//! never used to find data.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use preempt_context::nonpreempt::NonPreemptGuard;
use preempt_uintr::prefetch_for_write;

use crate::request::Request;

const LEN_SHIFT: u32 = 0;
const HEAD_SHIFT: u32 = 32;
const FIELD_MASK: u64 = 0xFFFF;

/// Per-cell sequence phases (low bit of the stamp).
const EMPTY: u64 = 0;
const FULL: u64 = 1;

#[inline]
fn pack(head: u32, len: u16) -> u64 {
    (u64::from(head) << HEAD_SHIFT) | (u64::from(len) << LEN_SHIFT)
}

#[inline]
fn unpack(word: u64) -> (u32, u16) {
    (
        (word >> HEAD_SHIFT) as u32,
        ((word >> LEN_SHIFT) & FIELD_MASK) as u16,
    )
}

#[inline]
fn stamp(ticket: u32, phase: u64) -> u64 {
    (u64::from(ticket) << 1) | phase
}

/// One ring position: the stamp and, under it, the request itself.
#[repr(C, align(64))]
struct Cell {
    seq: AtomicU64,
    /// Initialised exactly from the push's write to the pop's read of
    /// the ticket `seq` names (see the module docs).
    val: UnsafeCell<MaybeUninit<Request>>,
}

/// The packed word, alone on its line: every operation writes it, so
/// nothing read-only may share it.
#[repr(align(64))]
struct StateLine {
    state: AtomicU64,
}

/// The ticket one side's next operation will probably claim, alone on
/// its line (see the module docs): a prefetch address, nothing more.
#[repr(align(64))]
struct HintLine {
    hint: AtomicU32,
}

/// A bounded lock-free dispatch queue (one per worker per priority):
/// `push` appends at the tail, `pop` takes the oldest element (FIFO —
/// per-level priority order within a shard is preserved). Any thread
/// may call either: foreign schedulers push on the cross-shard
/// shootdown path, and same-shard siblings pop to steal.
#[repr(C)]
pub struct RequestQueue {
    /// Packed `head | len` word; see the module docs.
    hot: StateLine,
    /// The tail after the last push; written by pushers only.
    push_hint: HintLine,
    /// The head after the last pop; written by poppers only.
    pop_hint: HintLine,
    /// The ring; see [`Cell`].
    cells: Box<[Cell]>,
    /// Tickets wrap at this multiple of the capacity (see module docs);
    /// test builds shrink it to exercise the wrap.
    ticket_limit: u64,
}

// SAFETY: requests are moved in and out whole; `Request` is `Send`, and
// the seq-stamp protocol hands each cell's payload to exactly one owner
// at a time (module docs, "Layout"). The other fields are atomics and
// values fixed at construction.
unsafe impl Send for RequestQueue {}
// SAFETY: as above — the payload is only touched inside a window its
// stamp grants exclusively; everything else goes through the atomics.
unsafe impl Sync for RequestQueue {}

impl RequestQueue {
    /// Creates a queue holding at most `capacity` requests (0 counts
    /// as 1; the ring index arithmetic needs `< u16::MAX`).
    pub fn new(capacity: usize) -> RequestQueue {
        let capacity = capacity.max(1);
        let limit = ((1u64 << 32) / capacity as u64) * capacity as u64;
        Self::with_ticket_limit(capacity, limit)
    }

    /// As [`new`](Self::new), with an explicit ticket wrap point —
    /// production uses the largest 32-bit multiple of the capacity;
    /// tests shrink it so the wrap is actually exercised.
    fn with_ticket_limit(capacity: usize, ticket_limit: u64) -> RequestQueue {
        assert!(
            capacity < u16::MAX as usize,
            "RequestQueue capacity must fit the packed index field"
        );
        assert!(
            ticket_limit >= capacity as u64 && ticket_limit.is_multiple_of(capacity as u64),
            "ticket limit must be a positive multiple of the capacity"
        );
        RequestQueue {
            hot: StateLine {
                state: AtomicU64::new(0),
            },
            push_hint: HintLine {
                hint: AtomicU32::new(0),
            },
            pop_hint: HintLine {
                hint: AtomicU32::new(0),
            },
            // Cell `j`'s first push claims ticket `j`.
            cells: (0..capacity)
                .map(|j| Cell {
                    seq: AtomicU64::new(stamp(j as u32, EMPTY)),
                    val: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            ticket_limit,
        }
    }

    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    pub fn len(&self) -> usize {
        let (_, len) = unpack(self.hot.state.load(Ordering::Acquire));
        len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// Starts fetching what the next [`push`](Self::push) writes: the
    /// `state` line and the tail cell the pushers' hint names. Call it
    /// before building the request.
    #[inline]
    pub fn prefetch_push(&self) {
        prefetch_for_write(&self.hot);
        prefetch_for_write(self.cell(self.push_hint.hint.load(Ordering::Relaxed)));
    }

    /// Starts fetching what the next [`pop`](Self::pop) writes: the
    /// `state` line and the head cell the poppers' hint names.
    #[inline]
    pub fn prefetch_pop(&self) {
        prefetch_for_write(&self.hot);
        prefetch_for_write(self.cell(self.pop_hint.hint.load(Ordering::Relaxed)));
    }

    /// The cell `ticket` maps to.
    #[inline]
    fn cell(&self, ticket: u32) -> &Cell {
        &self.cells[ticket as usize % self.capacity()]
    }

    /// Ticket arithmetic modulo the wrap point.
    #[inline]
    fn advance(&self, ticket: u32, by: usize) -> u32 {
        ((u64::from(ticket) + by as u64) % self.ticket_limit) as u32
    }

    /// Claims a transition of the packed word. `f` maps the current
    /// `(head, len)` to the claimed `(new_head, new_len, ticket)`, or
    /// `None` to abandon (empty/full). Returns the claimed ticket.
    #[inline]
    fn claim<F>(&self, f: F) -> Option<u32>
    where
        F: Fn(u32, u16) -> Option<(u32, u16, u32)>,
    {
        let state = &self.hot.state;
        let mut cur = state.load(Ordering::Acquire);
        loop {
            let (head, len) = unpack(cur);
            let (new_head, new_len, ticket) = f(head, len)?;
            let next = pack(new_head, new_len);
            match state.compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Some(ticket),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Waits for `ticket`'s cell to show phase `phase`, which makes the
    /// caller — the one thread holding that claim — the payload's only
    /// owner until it publishes the next phase. The cell may still be
    /// mid-handoff for the previous lap's ticket, or its push may have
    /// claimed but not yet deposited.
    #[inline]
    fn wait(&self, ticket: u32, phase: u64) -> &Cell {
        let cell = self.cell(ticket);
        let want = stamp(ticket, phase);
        while cell.seq.load(Ordering::Acquire) != want {
            std::hint::spin_loop();
        }
        cell
    }

    /// Appends a request at the tail; `Err` gives it back when full.
    #[allow(
        clippy::result_large_err,
        reason = "a full queue hands the request back unboxed"
    )]
    pub fn push(&self, req: Request) -> Result<(), Request> {
        let cap = self.capacity();
        // Claim-to-handoff is the non-preemptible window: a fiber
        // parked before the FULL publication stalls the pop that
        // waits on this cell (module docs).
        let _np = NonPreemptGuard::enter();
        let Some(ticket) = self.claim(|head, len| {
            if len as usize == cap {
                return None;
            }
            Some((head, len + 1, self.advance(head, len as usize)))
        }) else {
            return Err(req);
        };
        self.push_hint
            .hint
            .store(self.advance(ticket, 1), Ordering::Relaxed);
        let cell = self.wait(ticket, EMPTY);
        // SAFETY: only the push that claimed `ticket` waits for
        // `EMPTY(ticket)`, so this thread is the only one touching `val`
        // until the store below; the pop that published `EMPTY` left the
        // cell uninitialised.
        unsafe { (*cell.val.get()).write(req) };
        cell.seq.store(stamp(ticket, FULL), Ordering::Release);
        Ok(())
    }

    /// Removes the oldest request: the owner's FIFO dispatch path, and
    /// a same-shard thief's steal.
    pub fn pop(&self) -> Option<Request> {
        let _np = NonPreemptGuard::enter();
        let ticket = self.claim(|head, len| {
            if len == 0 {
                return None;
            }
            Some((self.advance(head, 1), len - 1, head))
        })?;
        self.pop_hint
            .hint
            .store(self.advance(ticket, 1), Ordering::Relaxed);
        let cell = self.wait(ticket, FULL);
        // SAFETY: `FULL(ticket)` was published after the push wrote the
        // request (Release, paired with the Acquire load in `wait`), and
        // only the pop that claimed `ticket` waits for it, so this thread
        // is the only one touching `val` until the store below, which
        // marks the cell uninitialised again — the value is moved out
        // exactly once.
        let req = unsafe { (*cell.val.get()).assume_init_read() };
        cell.seq.store(
            stamp(self.advance(ticket, self.capacity()), EMPTY),
            Ordering::Release,
        );
        // A boxed closure's captures, written by the submitter, are the
        // next miss the taker waits for (an inline one came with the cell).
        if !req.is_inline() {
            prefetch_for_write(&*req.work);
        }
        Some(req)
    }
}

impl Drop for RequestQueue {
    fn drop(&mut self) {
        // The queued requests live in the cells: take each out and
        // drop it (nothing is in flight under `&mut self`).
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WorkOutcome;
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    const LINE: usize = 64;

    fn req(tag: u64) -> Request {
        Request::new("t", 0, tag, WorkOutcome::default)
    }

    /// `created_at` doubles as the test payload tag.
    fn tag(r: &Request) -> u64 {
        r.created_at
    }

    #[test]
    fn pop_is_fifo() {
        let d = RequestQueue::new(4);
        for i in 0..4 {
            d.push(req(i)).unwrap();
        }
        for i in 0..4 {
            assert_eq!(tag(&d.pop().unwrap()), i);
        }
        assert!(d.pop().is_none());
    }

    #[test]
    fn bounded_capacity_rejects_overflow() {
        let d = RequestQueue::new(2);
        d.push(req(0)).unwrap();
        d.push(req(1)).unwrap();
        let back = d.push(req(2)).unwrap_err();
        assert_eq!(tag(&back), 2, "rejected request is returned intact");
        assert!(d.is_full());
        d.pop().unwrap();
        d.push(req(3)).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn wraparound_preserves_order() {
        let d = RequestQueue::new(3);
        // Drive head around the ring several times.
        let mut next = 0u64;
        let mut expect = 0u64;
        for _ in 0..10 {
            while d.push(req(next)).is_ok() {
                next += 1;
            }
            assert_eq!(tag(&d.pop().unwrap()), expect);
            expect += 1;
            assert_eq!(tag(&d.pop().unwrap()), expect);
            expect += 1;
        }
    }

    /// Ticket wrap: with the wrap point shrunk to two laps, the modular
    /// ticket arithmetic (claims, seq chaining) must stay consistent
    /// across many wraps, for the owner's pops and a thief's alike.
    #[test]
    fn ticket_wrap_preserves_fifo_and_steal_order() {
        let d = RequestQueue::with_ticket_limit(3, 6);
        let mut next = 0u64;
        let mut expect = 0u64;
        // 20 laps of push-to-full / owner pop / thief pop drive tickets
        // around the 6-ticket wrap repeatedly; both take the oldest.
        for _ in 0..20 {
            while d.push(req(next)).is_ok() {
                next += 1;
            }
            assert_eq!(tag(&d.pop().unwrap()), expect, "FIFO across ticket wrap");
            assert_eq!(tag(&d.pop().unwrap()), expect + 1, "steal across the wrap");
            expect += 2;
        }
    }

    /// Each side's hint names the ticket its next operation claims, across
    /// the ticket wrap.
    #[test]
    fn hints_name_the_next_tickets() {
        let d = RequestQueue::with_ticket_limit(3, 6);
        let tickets = |d: &RequestQueue| {
            let (head, len) = unpack(d.hot.state.load(Ordering::Relaxed));
            (d.advance(head, len as usize), head)
        };
        let hints = |d: &RequestQueue| {
            let load = |h: &HintLine| h.hint.load(Ordering::Relaxed);
            (load(&d.push_hint), load(&d.pop_hint))
        };
        for i in 0..20 {
            d.push(req(i)).unwrap();
            d.push(req(i)).unwrap();
            d.pop().unwrap();
            assert_eq!(hints(&d), tickets(&d), "lap {i}");
            d.pop().unwrap();
            assert_eq!(hints(&d), tickets(&d), "lap {i}, drained");
        }
    }

    /// A request whose header fields check each other and whose closure
    /// counts its runs and its drops under `tag`: a cell that handed out
    /// half of one request and half of another, twice the same one, or
    /// none at all shows up in one of the three.
    struct Ledger {
        runs: Vec<AtomicUsize>,
        drops: Vec<AtomicUsize>,
    }

    struct CountsDrop(Arc<Ledger>, u64);

    impl Drop for CountsDrop {
        fn drop(&mut self) {
            self.0.drops[self.1 as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn checksum(created_at: u64, req_id: u64) -> u64 {
        (created_at ^ req_id.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    impl Ledger {
        fn new(n: u64) -> Arc<Ledger> {
            let zeros = || (0..n).map(|_| AtomicUsize::new(0)).collect();
            Arc::new(Ledger {
                runs: zeros(),
                drops: zeros(),
            })
        }

        fn req(self: &Arc<Self>, tag: u64) -> Request {
            let token = CountsDrop(self.clone(), tag);
            let req_id = !tag.wrapping_mul(31);
            Request::new("t", 0, tag, move || {
                token.0.runs[token.1 as usize].fetch_add(1, Ordering::Relaxed);
                WorkOutcome::committed(token.1)
            })
            .with_provenance(req_id, checksum(tag, req_id))
        }

        /// Checks the header, runs the closure, drops the request.
        fn consume(mut r: Request) {
            assert_eq!(r.ingress, checksum(r.created_at, r.req_id), "torn header");
            let ran = (r.work)().retries;
            assert_eq!(ran, r.created_at, "closure of another request");
        }

        fn count(counters: &[AtomicUsize]) -> Vec<usize> {
            counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        }
    }

    /// `Drop` of a half-full queue whose head has moved and whose tail
    /// has wrapped drops exactly the requests still queued, each once
    /// (the payload is inline: nothing else frees it).
    #[test]
    fn drop_frees_live_elements() {
        let ledger = Ledger::new(6);
        let d = RequestQueue::with_ticket_limit(4, 8);
        for i in 0..4 {
            d.push(ledger.req(i)).unwrap();
        }
        Ledger::consume(d.pop().unwrap()); // 0
        Ledger::consume(d.pop().unwrap()); // 1
        d.push(ledger.req(4)).unwrap();
        d.push(ledger.req(5)).unwrap(); // wraps: queued 2, 3, 4, 5
        assert_eq!(Ledger::count(&ledger.drops), [1, 1, 0, 0, 0, 0]);
        drop(d);
        assert_eq!(Ledger::count(&ledger.drops), [1; 6], "dropped exactly once");
        assert_eq!(Ledger::count(&ledger.runs), [1, 1, 0, 0, 0, 0]);
    }

    /// The inline payload under real threads: two pushers and two
    /// poppers (the owner and a thief) on a capacity-4 ring whose tickets
    /// wrap every two laps — as many laps as pushers, the most the
    /// stamps tell apart. Every request is handed out whole, exactly
    /// once, and dropped exactly once — including the ones a full ring
    /// gave back to their pusher.
    #[test]
    fn inline_payload_survives_concurrent_handoffs() {
        const PER: u64 = 5_000;
        let ledger = Ledger::new(2 * PER);
        let d = Arc::new(RequestQueue::with_ticket_limit(4, 8));
        let left = Arc::new(AtomicUsize::new(2 * PER as usize));
        std::thread::scope(|s| {
            for p in 0..2 {
                let (d, ledger) = (d.clone(), ledger.clone());
                s.spawn(move || {
                    for tag in p * PER..(p + 1) * PER {
                        let mut r = ledger.req(tag);
                        while let Err(back) = d.push(r) {
                            r = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let (d, left) = (d.clone(), left.clone());
                s.spawn(move || {
                    while left.load(Ordering::Acquire) > 0 {
                        match d.pop() {
                            Some(r) => {
                                Ledger::consume(r);
                                left.fetch_sub(1, Ordering::AcqRel);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                });
            }
        });
        assert!(d.is_empty());
        let all_once = |counters: &[AtomicUsize]| Ledger::count(counters).iter().all(|&n| n == 1);
        assert!(all_once(&ledger.runs), "run exactly once");
        assert!(all_once(&ledger.drops), "dropped exactly once");
    }

    /// The line rule of the module docs: the packed word and each side's
    /// hint have a line to themselves, and cells start on line boundaries
    /// and fill whole lines, so a hand-off moves the `state` line and one
    /// cell, nothing else.
    #[test]
    fn state_and_cells_share_no_cache_line() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(offset_of!(RequestQueue, hot), 0);
        assert_eq!(size_of::<StateLine>(), LINE);
        assert_eq!(align_of::<StateLine>(), LINE);
        assert_eq!(
            (size_of::<HintLine>(), align_of::<HintLine>()),
            (LINE, LINE)
        );
        assert_eq!(offset_of!(RequestQueue, push_hint), LINE);
        assert_eq!(offset_of!(RequestQueue, pop_hint), 2 * LINE);
        assert!(offset_of!(RequestQueue, cells) >= 3 * LINE);
        assert_eq!(align_of::<Cell>(), LINE);
        assert_eq!(
            size_of::<Cell>(),
            3 * LINE,
            "a stamp and a request with its inline slot"
        );
        // An `Arc`'s counts in front of the queue are off the line too.
        let d = Arc::new(RequestQueue::new(3));
        let line = |p: *const u8| p as usize / LINE;
        let state = line(std::ptr::from_ref(&d.hot.state).cast());
        assert_ne!(state, line(Arc::as_ptr(&d).cast::<u8>().wrapping_sub(1)));
        for cell in d.cells.iter() {
            let first = std::ptr::from_ref(cell).cast::<u8>();
            assert_eq!(first as usize % LINE, 0);
            assert_ne!(state, line(first));
            assert_ne!(state, line(first.wrapping_add(size_of::<Cell>() - 1)));
        }
    }

    /// Concurrent owner + thief + two producers, each side prefetching
    /// through its hint before every operation while the others' pops
    /// and pushes keep making those hints stale: every pushed tag is
    /// consumed exactly once, across the owner's and the thief's pops
    /// combined, and each of them takes each producer's requests in the
    /// order they were pushed.
    #[test]
    fn concurrent_push_pop_steal_loses_nothing() {
        const N: u64 = 2_000;
        let d = Arc::new(RequestQueue::new(8));
        let popped = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
        let stolen = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
        let done = Arc::new(AtomicUsize::new(0));

        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let d = d.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while i < N {
                        d.prefetch_push();
                        if d.push(req(p * N + i)).is_ok() {
                            i += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    done.fetch_add(1, Ordering::AcqRel);
                })
            })
            .collect();
        let finished = move |d: &RequestQueue| done.load(Ordering::Acquire) == 2 && d.is_empty();
        let owner = {
            let d = d.clone();
            let popped = popped.clone();
            let finished = finished.clone();
            std::thread::spawn(move || loop {
                d.prefetch_pop();
                match d.pop() {
                    Some(r) => popped.lock().push(tag(&r)),
                    None if finished(&d) => break,
                    None => std::thread::yield_now(),
                }
            })
        };
        let thief = {
            let d = d.clone();
            let stolen = stolen.clone();
            std::thread::spawn(move || loop {
                match d.pop() {
                    Some(r) => stolen.lock().push(tag(&r)),
                    None if finished(&d) => break,
                    None => std::thread::yield_now(),
                }
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        owner.join().unwrap();
        thief.join().unwrap();

        let mut all: Vec<u64> = popped.lock().clone();
        all.extend(stolen.lock().iter().copied());
        all.sort_unstable();
        let want: Vec<u64> = (0..2 * N).collect();
        assert_eq!(all, want, "every request consumed exactly once");
        // Each taker's view alone is in FIFO order, per producer.
        for taken in [popped.lock(), stolen.lock()] {
            for producer in 0..2 {
                let mine: Vec<u64> = taken
                    .iter()
                    .copied()
                    .filter(|t| t / N == producer)
                    .collect();
                assert!(
                    mine.windows(2).all(|w| w[0] < w[1]),
                    "pops preserve FIFO order"
                );
            }
        }
    }

    /// Two producers and two consumers on a capacity-1 ring: every
    /// operation reuses the one cell, so a push whose claim has gone a
    /// lap ahead waits behind the previous lap's pop on the same cell.
    /// Every tag must come out exactly once.
    #[test]
    fn concurrent_producers_never_duplicate() {
        const PER: u64 = 1_000;
        let d = Arc::new(RequestQueue::new(1));
        let seen = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
        let consumed = Arc::new(AtomicUsize::new(0));
        let mut producers = Vec::new();
        for p in 0..2u64 {
            let d = d.clone();
            producers.push(std::thread::spawn(move || {
                let mut i = 0;
                while i < PER {
                    if d.push(req(p * PER + i)).is_ok() {
                        i += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let d = d.clone();
            let seen = seen.clone();
            let consumed = consumed.clone();
            consumers.push(std::thread::spawn(move || loop {
                if let Some(r) = d.pop() {
                    seen.lock().push(tag(&r));
                    if consumed.fetch_add(1, Ordering::AcqRel) + 1 == 2 * PER as usize {
                        break;
                    }
                } else if consumed.load(Ordering::Acquire) == 2 * PER as usize {
                    break;
                } else {
                    std::thread::yield_now();
                }
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        let mut all = seen.lock().clone();
        all.sort_unstable();
        let want: Vec<u64> = (0..2 * PER).collect();
        assert_eq!(all, want);
    }

    // ---- property tests (vendored proptest stub; deterministic) ----

    use proptest::prelude::*;

    /// 0 = push, 1 and 2 = pop (the owner's or a thief's: both take the
    /// head), 3 = prefetch either side (a hint that other sides' pops
    /// and pushes have made stale changes nothing).
    fn apply(
        d: &RequestQueue,
        model: &mut VecDeque<u64>,
        op: u8,
        next: &mut u64,
    ) -> Option<String> {
        match op % 4 {
            3 => {
                d.prefetch_push();
                d.prefetch_pop();
            }
            0 => {
                let r = d.push(req(*next));
                if model.len() < d.capacity() {
                    if r.is_err() {
                        return Some(format!("push of {next} rejected below capacity"));
                    }
                    model.push_back(*next);
                    *next += 1;
                } else if r.is_ok() {
                    return Some("push accepted past capacity".to_string());
                }
            }
            _ => {
                let got = d.pop().map(|r| tag(&r));
                let want = model.pop_front();
                if got != want {
                    return Some(format!("pop: got {got:?}, model says {want:?}"));
                }
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sequential linearizability against a `VecDeque` model: any
        /// interleaving of push/pop (and prefetches) matches push_back /
        /// pop_front exactly — no lost, duplicated, or reordered
        /// requests, and FIFO (priority) order is preserved. A shrunk
        /// ticket limit keeps the wrap in play.
        #[test]
        fn matches_vecdeque_model(
            cap in 1usize..9,
            laps in 1u64..4,
            ops in prop::collection::vec(0u8..4, 1..200),
        ) {
            let d = RequestQueue::with_ticket_limit(cap, cap as u64 * laps);
            let mut model = VecDeque::new();
            let mut next = 0u64;
            for op in ops {
                if let Some(err) = apply(&d, &mut model, op, &mut next) {
                    prop_assert!(false, "{}", err);
                }
                prop_assert_eq!(d.len(), model.len());
            }
            // Drain: the leftovers agree element-for-element.
            while let Some(want) = model.pop_front() {
                let got = d.pop().map(|r| tag(&r));
                prop_assert_eq!(got, Some(want));
            }
            prop_assert!(d.pop().is_none());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Concurrency property: one to four consumers (the owner and
        /// thieves, all popping) racing one or two producers consume
        /// every request exactly once (no lost or duplicated requests).
        #[test]
        fn concurrent_interleavings_conserve_requests(
            cap in 1usize..6,
            n in 50u64..300,
            producers in 1usize..3,
            consumers in 1usize..5,
        ) {
            let d = Arc::new(RequestQueue::new(cap));
            let produced = Arc::new(AtomicUsize::new(0));
            let consumed = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
            let mut prods = Vec::new();
            for p in 0..producers as u64 {
                let d = d.clone();
                let produced = produced.clone();
                prods.push(std::thread::spawn(move || {
                    let mut i = 0u64;
                    while i < n {
                        d.prefetch_push();
                        if d.push(req(p * n + i)).is_ok() {
                            i += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    produced.fetch_add(1, Ordering::AcqRel);
                }));
            }
            let mut takers = Vec::new();
            for _ in 0..consumers {
                let d = d.clone();
                let produced = produced.clone();
                let consumed = consumed.clone();
                takers.push(std::thread::spawn(move || loop {
                    d.prefetch_pop();
                    match d.pop() {
                        Some(r) => consumed.lock().push(tag(&r)),
                        None if produced.load(Ordering::Acquire) == producers
                            && d.is_empty() => break,
                        None => std::thread::yield_now(),
                    }
                }));
            }
            for p in prods {
                p.join().unwrap();
            }
            for c in takers {
                c.join().unwrap();
            }
            let mut all = consumed.lock().clone();
            all.sort_unstable();
            let want: Vec<u64> = (0..producers as u64).flat_map(|p| p * n..p * n + n).collect();
            prop_assert_eq!(all, want, "requests lost or duplicated");
        }
    }
}
