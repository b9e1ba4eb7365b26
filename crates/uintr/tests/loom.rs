//! Exhaustive interleaving checks for the two protocols the engine's
//! liveness rests on (run with `RUSTFLAGS="--cfg loom" cargo test -p
//! preempt-uintr --test loom`):
//!
//! 1. the UPID pending-bit post/take/repost handoff — no posted vector
//!    may ever be lost, including across a decline-and-repost cycle;
//! 2. the epoch/ack watchdog, with the epoch on the UPID's post line —
//!    in every schedule either the worker
//!    acked the delivery or the pending bit is still there for the
//!    watchdog to re-deliver (no lost wakeup), and the interrupt is
//!    handled exactly once (no double execution).
//!
//! The vendored `loom` stub explores all sequentially-consistent
//! interleavings; the stronger-than-SC ordering *requirements* (which
//! SC exploration cannot distinguish) are enforced statically by
//! preempt-lint's atomic-ordering policy table instead.

#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::thread;
use preempt_uintr::upid::Upid;
use std::sync::Arc;

/// A concurrently posted vector is visible to the receiver after the
/// sender finishes: nothing is lost, nothing is delivered twice.
#[test]
fn pending_bit_post_is_never_lost() {
    loom::model(|| {
        let upid = Upid::new();
        let tx = upid.clone();
        let sender = thread::spawn(move || {
            assert!(tx.post(5), "receiver is active");
        });

        // Receiver races one drain against the sender…
        let early = upid.take_pending();
        sender.join().unwrap();
        // …then drains deterministically after it finishes.
        let late = upid.take_pending();

        let seen = early | late;
        assert_eq!(seen, 1u64 << 5, "posted vector lost or duplicated");
        assert_eq!(early & late, 0, "same vector delivered by two drains");
    });
}

/// Decline-and-repost (the handler deferring delivery) never drops a
/// vector, even while another sender posts concurrently.
#[test]
fn repost_preserves_vectors_under_concurrency() {
    loom::model(|| {
        let upid = Upid::new();
        let tx = upid.clone();
        let sender = thread::spawn(move || {
            tx.post(5);
        });

        upid.post(3);
        let taken = upid.take_pending();
        assert_ne!(taken & (1 << 3), 0, "own post must be visible");
        // Decline: put everything back (receiver was non-preemptible).
        upid.repost(taken);

        sender.join().unwrap();
        let finally = upid.take_pending() | upid.take_pending();
        assert_eq!(
            finally,
            (1 << 3) | (1 << 5),
            "a declined or concurrent vector was lost"
        );
    });
}

/// Teeth check: with the protocol deliberately broken — posting the
/// UPID bit *before* bumping the epoch — the explorer must find the
/// interleaving where the worker handles and acks the stale epoch,
/// leaving the bump unacked with no bit left: a false "lost" delivery
/// the watchdog would re-send, i.e. the exactly-once property dies.
#[test]
#[should_panic(expected = "lost wakeup")]
fn explorer_catches_post_before_epoch_bump() {
    loom::model(|| {
        let upid = Upid::new();
        let ack = Arc::new(AtomicU64::new(0));

        let tx = upid.clone();
        let scheduler = thread::spawn(move || {
            tx.post(1); // BUG: post first…
            tx.bump_epoch(); // …bump after
        });

        let (rx, a) = (upid.clone(), ack.clone());
        let worker = thread::spawn(move || {
            if rx.take_pending() != 0 {
                a.store(rx.epoch(), Ordering::Release);
            }
        });

        scheduler.join().unwrap();
        worker.join().unwrap();

        if ack.load(Ordering::Acquire) < upid.epoch() {
            let pending = upid.take_pending();
            assert_ne!(
                pending, 0,
                "lost wakeup: epoch unacked but no pending bit left to re-deliver"
            );
        }
    });
}

/// The epoch/ack watchdog protocol, on the real descriptor: the epoch
/// sits on the UPID's post line; the scheduler bumps it (Release)
/// *before* posting; the worker takes the bit and acks (the epoch's
/// Acquire load) *before* handling. In every interleaving, `epoch > ack`
/// after quiescence implies the pending bit survived for the watchdog to
/// re-deliver — so a wakeup is never lost — and the total number of
/// executions is exactly one.
#[test]
fn epoch_ack_watchdog_has_no_lost_wakeup_or_double_execution() {
    loom::model(|| {
        let upid = Upid::new();
        let ack = Arc::new(AtomicU64::new(0));

        // Scheduler: epoch bump happens-before the UPID post.
        let tx = upid.clone();
        let scheduler = thread::spawn(move || {
            tx.bump_epoch();
            tx.post(1);
        });

        // Worker: one delivery attempt; may race ahead of the post and
        // see nothing (that is the "lost interrupt" the watchdog covers).
        let (rx, a) = (upid.clone(), ack.clone());
        let worker = thread::spawn(move || {
            if rx.take_pending() != 0 {
                // Ack before any decline path (worker.rs on_uintr).
                a.store(rx.epoch(), Ordering::Release);
                return 1u32; // handled
            }
            0u32
        });

        scheduler.join().unwrap();
        let mut handled = worker.join().unwrap();

        // Watchdog, after quiescence: epoch unacked ⇒ must re-deliver.
        if ack.load(Ordering::Acquire) < upid.epoch() {
            let pending = upid.take_pending();
            assert_ne!(
                pending, 0,
                "lost wakeup: epoch unacked but no pending bit left to re-deliver"
            );
            handled += 1;
        } else {
            assert!(
                !upid.has_pending(),
                "acked delivery must have consumed the pending bit"
            );
        }
        assert_eq!(handled, 1, "interrupt must be handled exactly once");
    });
}

// ─── Per-worker request queue (crates/sched/src/deque.rs) ──────────────
//
// Mirror of the queue's two-level protocol: a packed (head ticket, len)
// word claimed by CAS — a push claims the tail `head + len`, a pop (the
// owner's, or a same-shard thief's steal) the head — then a per-cell
// *sequence stamp* (`ticket << 1 | phase`, phases EMPTY→FULL) that
// pairs every deposit and every take with the exact claim that owns it.
// The request lives *inline* in the cell, under the stamp and with no
// atomics of its own; the replica models it as two plain words (`v` and
// `!v`, written and read one at a time with `Relaxed`, each access its
// own scheduling point), so a take that overlaps a deposit — or two
// deposits that overlap each other — reads a pair that does not match.
// The real queue's spin-waits — a pusher waiting for its cell's EMPTY
// stamp, a taker waiting for FULL — are modeled faithfully with
// `loom::thread::yield_waiting()`, which parks the spinner until
// another thread performs a write, so the explorer covers stalled
// pushers, cell reuse on full rings, and racing handoffs rather than
// only pre-stored cells. The spin window is exactly the region the
// queue's internal `NonPreemptGuard` keeps uintr-free; preempt-lint's
// non-preemptible-region rule pins that statically.

const DQ_EMPTY: u64 = 0;
const DQ_FULL: u64 = 1;

fn dq_pack(head: u64, len: u64) -> u64 {
    (head << 32) | len
}

fn dq_unpack(w: u64) -> (u64, u64) {
    (w >> 32, w & 0xFFFF)
}

fn dq_stamp(ticket: u64, phase: u64) -> u64 {
    (ticket << 1) | phase
}

/// The replica: `RequestQueue`'s `state` word and its ring of cells.
struct Dq {
    state: AtomicU64,
    seqs: Vec<AtomicU64>,
    /// Cell `j`'s inline payload, `[v, !v]`; `[0, 0]` = uninitialised
    /// (never written, or moved out by a take).
    payload: Vec<[AtomicU64; 2]>,
}

impl Dq {
    /// A fresh ring of `cap` cells with `init` already pushed: tickets
    /// `0..init.len()` are FULL and hold `init`, the rest are EMPTY.
    fn new(cap: u64, init: &[u64]) -> Arc<Dq> {
        let filled = init.len() as u64;
        Arc::new(Dq {
            state: AtomicU64::new(dq_pack(0, filled)),
            seqs: (0..cap)
                .map(|i| {
                    let phase = if i < filled { DQ_FULL } else { DQ_EMPTY };
                    AtomicU64::new(dq_stamp(i, phase))
                })
                .collect(),
            payload: (0..cap as usize)
                .map(|i| match init.get(i) {
                    Some(&v) => [AtomicU64::new(v), AtomicU64::new(!v)],
                    None => [AtomicU64::new(0), AtomicU64::new(0)],
                })
                .collect(),
        })
    }

    fn cap(&self) -> u64 {
        self.seqs.len() as u64
    }

    fn len(&self) -> u64 {
        dq_unpack(self.state.load(Ordering::Acquire)).1
    }
}

/// Mirrors `RequestQueue::claim`: CAS the packed (head ticket, len) word.
/// No ABA stamp — every transition is a pure function of the packed
/// bits, so a word that CASes back to an observed value carries the
/// same meaning. `f(head, len)` returns the new (head, len) and the
/// claimed ticket, or `None` to give up.
fn dq_claim(dq: &Dq, f: impl Fn(u64, u64) -> Option<(u64, u64, u64)>) -> Option<u64> {
    loop {
        let cur = dq.state.load(Ordering::Acquire);
        let (head, len) = dq_unpack(cur);
        let (new_head, new_len, ticket) = f(head, len)?;
        let next = dq_pack(new_head, new_len);
        if dq
            .state
            .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return Some(ticket);
        }
    }
}

/// The push's word claim alone: bumps len and returns the tail ticket.
fn dq_push_claim(dq: &Dq) -> Option<u64> {
    let cap = dq.cap();
    dq_claim(dq, |head, len| {
        if len == cap {
            None
        } else {
            Some((head, len + 1, head + len))
        }
    })
}

/// The pop's word claim alone (the owner's and a thief's alike):
/// advances the head and returns the ticket it passed.
fn dq_pop_claim(dq: &Dq) -> Option<u64> {
    dq_claim(dq, |head, len| {
        if len == 0 {
            None
        } else {
            Some((head + 1, len - 1, head))
        }
    })
}

/// Mirrors `RequestQueue::wait`: spin until ticket `t`'s cell shows
/// phase `phase`. Only the one claim holding `t` waits for its stamps,
/// so seeing the stamp is enough. Returns the cell's index.
fn dq_wait(dq: &Dq, t: u64, phase: u64) -> usize {
    let j = (t % dq.cap()) as usize;
    while dq.seqs[j].load(Ordering::Acquire) != dq_stamp(t, phase) {
        thread::yield_waiting();
    }
    j
}

/// Mirrors the push handoff: wait for EMPTY, write the payload word by
/// word, publish FULL.
fn dq_push_handoff(dq: &Dq, t: u64, v: u64) {
    let j = dq_wait(dq, t, DQ_EMPTY);
    dq.payload[j][0].store(v, Ordering::Relaxed);
    dq.payload[j][1].store(!v, Ordering::Relaxed);
    dq.seqs[j].store(dq_stamp(t, DQ_FULL), Ordering::Release);
}

/// Claim + handoff: the full push.
fn dq_push(dq: &Dq, v: u64) -> bool {
    let Some(t) = dq_push_claim(dq) else {
        return false;
    };
    dq_push_handoff(dq, t, v);
    true
}

/// Mirrors the pop handoff: wait for FULL, move the payload out word by
/// word — the `[0, 0]` written back stands for the `MaybeUninit` the
/// real `assume_init_read` leaves behind, so a second take of the same
/// cell is caught — and open the cell for the push one lap later. The
/// two words must be one request's.
fn dq_take(dq: &Dq, ticket: u64) -> u64 {
    let j = dq_wait(dq, ticket, DQ_FULL);
    let v = dq.payload[j][0].swap(0, Ordering::Relaxed);
    let check = dq.payload[j][1].swap(0, Ordering::Relaxed);
    assert_ne!((v, check), (0, 0), "claimed cell had no stored request");
    assert_eq!(check, !v, "torn payload: two words of different requests");
    dq.seqs[j].store(dq_stamp(ticket + dq.cap(), DQ_EMPTY), Ordering::Release);
    v
}

/// Claim + handoff: the full pop.
fn dq_pop(dq: &Dq) -> Option<u64> {
    let t = dq_pop_claim(dq)?;
    Some(dq_take(dq, t))
}

/// The sharded plane's two races, each explored exhaustively: a
/// shard-local owner pops its own queue while a same-shard sibling
/// steals by popping too; and a foreign owner drains its queue while
/// the wedged shard's scheduler shoots a starved request into it. In
/// every interleaving no request is lost, duplicated or torn, the owner
/// and the thief get the two oldest requests between them, and the
/// shot-down request survives to be drained exactly once. (Two separate
/// explorations rather than one four-thread model: the races touch
/// disjoint queues, so composing them only multiplies the state space
/// without adding interactions.)
#[test]
fn steal_deque_no_lost_or_duplicated_requests() {
    // Race 1: owner pop vs sibling steal on one shard's queue.
    loom::model(|| {
        // Requests 1, 2 (the two oldest) and 3 pre-stored.
        let dq = Dq::new(4, &[1, 2, 3]);

        let owner_dq = dq.clone();
        let owner = thread::spawn(move || dq_pop(&owner_dq));
        // Model closure = the same-shard sibling stealing.
        let stolen = dq_pop(&dq).expect("two requests for two takers");
        let popped = owner.join().unwrap().expect("two requests for two takers");

        let mut got = [popped, stolen];
        got.sort_unstable();
        assert_eq!(got, [1, 2], "owner and thief take the two oldest");
        assert_eq!(dq_pop(&dq), Some(3));
        assert!(dq_pop(&dq).is_none());
    });

    // Race 2: foreign owner pop vs cross-shard shootdown push.
    loom::model(|| {
        // The foreign queue holds request 3; the wedged shard's
        // scheduler shoots request 4 into it concurrently.
        let dq = Dq::new(4, &[3]);

        let owner_dq = dq.clone();
        let owner = thread::spawn(move || dq_pop(&owner_dq));
        assert!(
            dq_push(&dq, 4),
            "foreign queue had room for the shot-down request"
        );
        let popped = owner.join().unwrap();

        assert_eq!(popped, Some(3), "foreign owner drains its own head");
        // Quiescent drain: exactly the shot-down request remains.
        assert_eq!(
            dq_pop(&dq),
            Some(4),
            "shot-down request neither lost nor duplicated"
        );
        assert!(dq_pop(&dq).is_none());
    });
}

/// Explorer bound of the four-claim models: at most this many
/// involuntary switches (spin parks stay fully explored). The old
/// protocol livelocks within one; on the new one a bound of 2 also
/// passes but takes about 20 times as long.
const FOUR_CLAIMS_BOUND: usize = 1;

/// Four claims on a capacity-1 ring, taken up front in the model
/// closure — push A, a thief's steal, push B, the owner's pop — so that
/// every handoff shares the one cell, two laps deep: then the four
/// handoffs race. Push A and the steal hold ticket 0, push B and the
/// pop ticket 1, and each waits only for its own stamp. In every
/// explored interleaving all four complete (no livelock), the thief
/// gets A's request and the owner B's, each whole and exactly once, and
/// the ring ends quiescent.
#[test]
fn steal_deque_four_claims_complete() {
    loom::model_bounded(FOUR_CLAIMS_BOUND, || {
        let dq = Dq::new(1, &[]);

        let ta = dq_push_claim(&dq).expect("empty ring accepts a push");
        let ts = dq_pop_claim(&dq).expect("claimed entry is stealable");
        let tb = dq_push_claim(&dq).expect("stolen entry frees the ring");
        let tp = dq_pop_claim(&dq).expect("claimed entry is poppable");
        assert_eq!(
            (ta, ts, tb, tp),
            (0, 0, 1, 1),
            "one claim of each kind per ticket"
        );

        let a_dq = dq.clone();
        let a = thread::spawn(move || dq_push_handoff(&a_dq, ta, 1));
        let s_dq = dq.clone();
        let thief = thread::spawn(move || dq_take(&s_dq, ts));
        let b_dq = dq.clone();
        let b = thread::spawn(move || dq_push_handoff(&b_dq, tb, 2));
        let popped = dq_take(&dq, tp);

        a.join().unwrap();
        b.join().unwrap();
        let stolen = thief.join().unwrap();
        assert_eq!(
            (stolen, popped),
            (1, 2),
            "each take got its own ticket's request"
        );
        assert!(dq_pop(&dq).is_none());
        assert_eq!(dq.len(), 0, "ring quiescent after the four handoffs");
    });
}

// The protocol the ring replaced (teeth only): a steal claimed the
// *tail* and rolled it back, so two pushes could hold one ticket, and
// every phase change was a CAS between four phases
// (`ticket << 2 | EMPTY·STORING·FULL·TAKING`).

const OLD_EMPTY: u64 = 0;
const OLD_STORING: u64 = 1;
const OLD_FULL: u64 = 2;
const OLD_TAKING: u64 = 3;

fn old_stamp(ticket: u64, phase: u64) -> u64 {
    (ticket << 2) | phase
}

/// The old steal claim: drops len and returns the tail ticket, which
/// the next push claims again.
fn old_steal_claim(dq: &Dq) -> Option<u64> {
    dq_claim(dq, |head, len| {
        if len == 0 {
            None
        } else {
            Some((head, len - 1, head + len - 1))
        }
    })
}

/// The old handoff wait: see phase `from` on ticket `t`'s cell and win
/// the transition to `to` by CAS.
fn old_win(dq: &Dq, t: u64, from: u64, to: u64) -> usize {
    let j = (t % dq.cap()) as usize;
    let (from, to) = (old_stamp(t, from), old_stamp(t, to));
    while !(dq.seqs[j].load(Ordering::Acquire) == from
        && dq.seqs[j]
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
            .is_ok())
    {
        thread::yield_waiting();
    }
    j
}

fn old_push_handoff(dq: &Dq, t: u64, v: u64) {
    let j = old_win(dq, t, OLD_EMPTY, OLD_STORING);
    dq.payload[j][0].store(v, Ordering::Relaxed);
    dq.payload[j][1].store(!v, Ordering::Relaxed);
    dq.seqs[j].store(old_stamp(t, OLD_FULL), Ordering::Release);
}

/// The old take: a pop reopened `EMPTY(t + cap)`, a steal `EMPTY(t)`.
fn old_take(dq: &Dq, t: u64, next_empty: u64) -> u64 {
    let j = old_win(dq, t, OLD_FULL, OLD_TAKING);
    let v = dq.payload[j][0].swap(0, Ordering::Relaxed);
    dq.payload[j][1].swap(0, Ordering::Relaxed);
    dq.seqs[j].store(old_stamp(next_empty, OLD_EMPTY), Ordering::Release);
    v
}

/// Teeth check: the same four claims on the old protocol — push A, a
/// tail steal that rolls the ticket back, push B on the same ticket,
/// and the owner's pop of the head — all on ticket 0. The explorer must
/// find the schedule where the pop takes a deposit and reopens the cell
/// a lap later while the other push still waits for `EMPTY(0)` and the
/// steal for `FULL(0)`: every live thread spins forever. That is the
/// hang the ring's stress test used to show.
#[test]
#[should_panic(expected = "livelock")]
fn explorer_catches_tail_steal_livelock() {
    loom::model_bounded(FOUR_CLAIMS_BOUND, || {
        let dq = Dq::new(1, &[]);

        let ta = dq_push_claim(&dq).expect("empty ring accepts a push");
        let ts = old_steal_claim(&dq).expect("claimed entry is stealable");
        let tb = dq_push_claim(&dq).expect("stolen entry frees the ring");
        let tp = dq_pop_claim(&dq).expect("claimed entry is poppable");
        assert_eq!(
            (ta, ts, tb, tp),
            (0, 0, 0, 0),
            "all four claims share ticket 0"
        );

        let a_dq = dq.clone();
        let a = thread::spawn(move || old_push_handoff(&a_dq, ta, 1));
        let s_dq = dq.clone();
        let thief = thread::spawn(move || old_take(&s_dq, ts, ts));
        let b_dq = dq.clone();
        let b = thread::spawn(move || old_push_handoff(&b_dq, tb, 2));
        old_take(&dq, tp, tp + dq.cap());

        a.join().unwrap();
        b.join().unwrap();
        thief.join().unwrap();
    });
}

/// Teeth check for the inline payload: a push that publishes FULL after
/// the *first* payload word lets the owner's pop in while the second
/// word is still the previous lap's. The explorer must find the torn
/// read — the reason the payload may only be written between seeing
/// EMPTY and publishing FULL.
#[test]
#[should_panic(expected = "torn payload")]
fn explorer_catches_full_published_before_payload_complete() {
    loom::model(|| {
        let dq = Dq::new(1, &[]);
        let pusher_dq = dq.clone();
        let pusher = thread::spawn(move || {
            let t = dq_push_claim(&pusher_dq).expect("empty ring accepts a push");
            let j = dq_wait(&pusher_dq, t, DQ_EMPTY);
            pusher_dq.payload[j][0].store(5, Ordering::Relaxed);
            // BUG: FULL goes up with half the request still to write.
            pusher_dq.seqs[j].store(dq_stamp(t, DQ_FULL), Ordering::Release);
            pusher_dq.payload[j][1].store(!5, Ordering::Relaxed);
        });
        while dq_pop(&dq).is_none() {
            thread::yield_waiting();
        }
        pusher.join().unwrap();
    });
}

/// Teeth check: a thief that reads the cell *without* first claiming
/// the packed word — skipping the CAS — races the owner's pop of the
/// same cell. The explorer must find the interleaving where both take
/// request 7: the duplication the word-CAS claim exists to prevent.
#[test]
#[should_panic(expected = "duplicated")]
fn explorer_catches_unclaimed_slot_steal() {
    loom::model(|| {
        let dq = Dq::new(4, &[7]);

        let owner_dq = dq.clone();
        let owner = thread::spawn(move || dq_pop(&owner_dq));

        // BUG: take the head value without claiming the word first.
        let stolen = dq.payload[0][0].load(Ordering::Relaxed);

        let popped = owner.join().unwrap();
        // 0 = the owner had already moved the request out: no race in
        // this schedule, nothing to report.
        if stolen != 0 {
            assert_ne!(
                popped,
                Some(stolen),
                "request duplicated: unclaimed steal raced the owner pop"
            );
        }
    });
}

/// The pre-stamp push handoff (teeth only): the deposit waits for the
/// cell to *read* moved-out instead of for its claim's sequence stamp,
/// so it is not tied to any particular claim.
fn dq_push_handoff_unpaired(dq: &Dq, t: u64, v: u64) {
    let j = (t % dq.cap()) as usize;
    while dq.payload[j][0].load(Ordering::Relaxed) != 0 {
        thread::yield_waiting();
    }
    dq.payload[j][0].store(v, Ordering::Relaxed);
    dq.payload[j][1].store(!v, Ordering::Relaxed);
}

/// The pre-stamp take handoff (teeth only): spin until a request
/// appears — any request, not necessarily the claimed ticket's — and
/// move it out.
fn dq_take_unpaired(dq: &Dq, t: u64) -> u64 {
    let j = (t % dq.cap()) as usize;
    loop {
        let v = dq.payload[j][0].swap(0, Ordering::Relaxed);
        if v != 0 {
            dq.payload[j][1].swap(0, Ordering::Relaxed);
            return v;
        }
        thread::yield_waiting();
    }
}

/// Teeth check: with null-probe handoffs in place of the sequence
/// stamps, the explorer must find the push-push overwrite. On a
/// capacity-1 ring push A claims ticket 0, a pop claims it too, and
/// push B claims ticket 1 — the same cell, one lap later — while A's
/// deposit is still in flight. Both deposits observe the cell moved-out
/// and both write, so one request is overwritten. After the pop's take
/// the word says one request is still queued; in the losing schedule
/// its cell is empty instead, or holds half of each.
#[test]
#[should_panic(expected = "overwrote")]
fn explorer_catches_push_push_slot_overwrite() {
    loom::model(|| {
        let dq = Dq::new(1, &[]);

        let ta = dq_push_claim(&dq).expect("empty ring accepts a push");
        let tp = dq_pop_claim(&dq).expect("claimed entry is poppable");
        let tb = dq_push_claim(&dq).expect("popped entry frees the ring");

        let a_dq = dq.clone();
        let a = thread::spawn(move || dq_push_handoff_unpaired(&a_dq, ta, 1));
        let b_dq = dq.clone();
        let b = thread::spawn(move || dq_push_handoff_unpaired(&b_dq, tb, 2));
        let _popped = dq_take_unpaired(&dq, tp);

        a.join().unwrap();
        b.join().unwrap();

        assert_eq!(dq.len(), 1, "one pop from two pushes leaves one request queued");
        let v = dq.payload[0][0].load(Ordering::Relaxed);
        let check = dq.payload[0][1].load(Ordering::Relaxed);
        assert!(
            v != 0 && check == !v,
            "request lost: a second push overwrote an undeposited cell"
        );
    });
}

/// Degraded-mode entry: the scheduler configures the wake fallback
/// (modeled by one word) before the `Release` store of the degraded
/// flag; a worker that observes the flag with `Acquire` must also
/// observe the fallback configuration. Observing the flag down is
/// always fine — the worker just keeps using UIPI delivery.
#[test]
fn degraded_entry_publishes_wake_fallback() {
    loom::model(|| {
        let degraded = Arc::new(AtomicU64::new(0));
        let fallback_ready = Arc::new(AtomicU64::new(0));

        let (d, f) = (degraded.clone(), fallback_ready.clone());
        let scheduler = thread::spawn(move || {
            f.store(1, Ordering::Release); // configure the fallback…
            d.store(1, Ordering::Release); // …then publish degraded mode
        });

        if degraded.load(Ordering::Acquire) == 1 {
            assert_eq!(
                fallback_ready.load(Ordering::Acquire),
                1,
                "worker entered degraded mode before the wake fallback was configured"
            );
        }
        scheduler.join().unwrap();
    });
}
