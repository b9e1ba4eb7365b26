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

/// A replacement descriptor starts where its predecessor's epoch
/// stopped, and the replacement worker starts with that epoch acked: a
/// respawned incarnation is fully acknowledged until the next send.
#[test]
fn respawned_descriptor_starts_fully_acknowledged() {
    loom::model(|| {
        let old = Upid::new();
        old.bump_epoch();
        old.post(1);
        // The incarnation dies with the interrupt unacknowledged; the
        // supervisor carries the epoch over as the new ack.
        let ack = Arc::new(AtomicU64::new(old.epoch()));
        let fresh = Upid::starting_at(ack.load(Ordering::Acquire));
        assert_eq!(fresh.epoch(), ack.load(Ordering::Acquire));

        let tx = fresh.clone();
        let scheduler = thread::spawn(move || {
            tx.bump_epoch();
            tx.post(1);
        });
        let (rx, a) = (fresh.clone(), ack.clone());
        let worker = thread::spawn(move || {
            if rx.take_pending() != 0 {
                a.store(rx.epoch(), Ordering::Release);
            }
        });
        scheduler.join().unwrap();
        worker.join().unwrap();
        if ack.load(Ordering::Acquire) < fresh.epoch() {
            assert!(fresh.has_pending(), "lost wakeup after a respawn");
        }
    });
}

/// The PR 6 terminate / exit-flag / orphan-sweep handoff. The worker
/// observes the terminate order at a preemption point, releases every
/// resource it owns (modeled by one latch word), and only then raises
/// the exit flag with `Release` (the `ExitFlag` RAII drop). The
/// supervisor sweeps orphans only after observing the flag with
/// `Acquire`: in every interleaving where the sweep runs, the worker's
/// releases are already visible — the sweep never runs before the exit
/// flag is observed, and never sees a half-released record.
#[test]
fn terminate_exit_flag_gates_orphan_sweep() {
    loom::model(|| {
        let terminated = Arc::new(AtomicU64::new(0));
        let exited = Arc::new(AtomicU64::new(0));
        // 1 = the worker still holds its record latch.
        let record_held = Arc::new(AtomicU64::new(1));

        let (t, e, r) = (terminated.clone(), exited.clone(), record_held.clone());
        let worker = thread::spawn(move || {
            // Preemption point: the terminate order may or may not be
            // visible yet; the exit path is the same either way.
            let _saw_terminate = t.load(Ordering::Acquire) == 1;
            r.store(0, Ordering::Release); // release owned resources…
            e.store(1, Ordering::Release); // …then ExitFlag raises exited
        });

        // Supervisor: raise the terminate order, then decide on a sweep.
        terminated.store(1, Ordering::Release);
        let sweep_allowed = exited.load(Ordering::Acquire) == 1;
        if sweep_allowed {
            // Sweep path: the flag was observed, so every release the
            // worker performed before raising it must be visible.
            assert_eq!(
                record_held.load(Ordering::Acquire),
                0,
                "orphan sweep observed the exit flag but not the release \
                 that happened-before it"
            );
        }
        // (exited == 0 ⇒ the supervisor must NOT sweep this incarnation;
        // there is nothing to assert — not sweeping is the safe branch.)

        worker.join().unwrap();
        assert_eq!(exited.load(Ordering::Acquire), 1, "exit flag must be raised on every path");
    });
}

/// Teeth check: with the exit protocol deliberately inverted — raising
/// the exit flag *before* releasing the record — the explorer must find
/// the interleaving where the sweep observes the flag while the record
/// is still held: exactly the torn handoff the `ExitFlag`-last ordering
/// (and the `exited` store/load spec rows) exists to prevent.
#[test]
#[should_panic(expected = "sweep raced the release")]
fn explorer_catches_exit_flag_before_release() {
    loom::model(|| {
        let exited = Arc::new(AtomicU64::new(0));
        let record_held = Arc::new(AtomicU64::new(1));

        let (e, r) = (exited.clone(), record_held.clone());
        let worker = thread::spawn(move || {
            e.store(1, Ordering::Release); // BUG: flag first…
            r.store(0, Ordering::Release); // …release after
        });

        if exited.load(Ordering::Acquire) == 1 {
            assert_eq!(record_held.load(Ordering::Acquire), 0, "sweep raced the release");
        }
        worker.join().unwrap();
    });
}

// ─── Sharded-plane steal deque (crates/sched/src/deque.rs) ──────────────
//
// Mirror of the deque's two-level protocol: a packed (head ticket, len)
// word claimed by CAS, then a per-cell *sequence stamp*
// (`ticket << 2 | phase`, phases EMPTY→STORING→FULL→TAKING) that pairs
// every deposit and every take with the exact claim that owns it.
// The request lives *inline* in the cell, under the stamp and with no
// atomics of its own; the replica models it as two plain words (`v` and
// `!v`, written and read one at a time with `Relaxed`, each access its
// own scheduling point), so a take that overlaps a deposit — or two
// deposits that overlap each other — reads a pair that does not match.
// The real deque's spin-waits — a pusher waiting for its cell's EMPTY
// stamp, a consumer waiting for FULL — are modeled faithfully with
// `loom::thread::yield_waiting()`, which parks the spinner until
// another thread performs a write, so the explorer covers stalled
// pushers, cell reuse on full rings, and racing handoffs rather than
// only pre-stored cells. The spin window is exactly the region the
// deque's internal `NonPreemptGuard` keeps uintr-free; preempt-lint's
// non-preemptible-region rule pins that statically.

const DQ_EMPTY: u64 = 0;
const DQ_STORING: u64 = 1;
const DQ_FULL: u64 = 2;
const DQ_TAKING: u64 = 3;

fn dq_pack(head: u64, len: u64) -> u64 {
    (head << 32) | len
}

fn dq_unpack(w: u64) -> (u64, u64) {
    (w >> 32, w & 0xFFFF)
}

fn dq_stamp(ticket: u64, phase: u64) -> u64 {
    (ticket << 2) | phase
}

/// The replica: `StealDeque`'s `state` word and its ring of cells.
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

/// Mirrors `StealDeque::claim`: CAS the packed (head ticket, len) word.
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

/// The steal's word claim alone: drops len and returns the tail ticket
/// (rolled back — the next push reuses the position).
fn dq_steal_claim(dq: &Dq) -> Option<u64> {
    dq_claim(dq, |head, len| {
        if len == 0 {
            None
        } else {
            Some((head, len - 1, head + len - 1))
        }
    })
}

/// Mirrors `StealDeque::win`: wait for ticket `t`'s cell to show phase
/// `from` and win the transition to `to` by CAS (a steal rolls its
/// ticket back, so two pushes can legitimately hold the same ticket —
/// the CAS admits one at a time). Returns the cell's index.
fn dq_win(dq: &Dq, t: u64, from: u64, to: u64) -> usize {
    let j = (t % dq.cap()) as usize;
    loop {
        if dq.seqs[j].load(Ordering::Acquire) == dq_stamp(t, from)
            && dq.seqs[j]
                .compare_exchange(
                    dq_stamp(t, from),
                    dq_stamp(t, to),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
        {
            return j;
        }
        thread::yield_waiting();
    }
}

/// Mirrors the push handoff: win STORING, write the payload word by
/// word, publish FULL.
fn dq_push_handoff(dq: &Dq, t: u64, v: u64) {
    let j = dq_win(dq, t, DQ_EMPTY, DQ_STORING);
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

/// Mirrors the take handoff shared by pop and steal: win TAKING, move
/// the payload out word by word — the `[0, 0]` written back stands for
/// the `MaybeUninit` the real `assume_init_read` leaves behind, so a
/// second take of the same cell is caught — and open the cell for
/// `next_empty` (pop: `ticket + cap`, the position one lap later;
/// steal: `ticket` itself, rolled back for the next push). The two
/// words must be one request's.
fn dq_take(dq: &Dq, ticket: u64, next_empty: u64) -> u64 {
    let j = dq_win(dq, ticket, DQ_FULL, DQ_TAKING);
    let v = dq.payload[j][0].swap(0, Ordering::Relaxed);
    let check = dq.payload[j][1].swap(0, Ordering::Relaxed);
    assert_ne!((v, check), (0, 0), "claimed cell had no stored request");
    assert_eq!(check, !v, "torn payload: two words of different requests");
    dq.seqs[j].store(dq_stamp(next_empty, DQ_EMPTY), Ordering::Release);
    v
}

/// Owner pop: claim the FIFO head ticket, then take its cell.
fn dq_pop(dq: &Dq) -> Option<u64> {
    let t = dq_claim(dq, |head, len| {
        if len == 0 {
            None
        } else {
            Some((head + 1, len - 1, head))
        }
    })?;
    Some(dq_take(dq, t, t + dq.cap()))
}

/// Sibling steal: claim the newest tail ticket, then take its cell,
/// rolling the ticket back so the next push reuses the position.
fn dq_steal(dq: &Dq) -> Option<u64> {
    let t = dq_steal_claim(dq)?;
    Some(dq_take(dq, t, t))
}

/// The sharded plane's two races, each explored exhaustively: a
/// shard-local owner pops FIFO from its own queue while a same-shard
/// sibling steals the newest tail entry; and a foreign owner drains its
/// queue while the wedged shard's scheduler shoots a starved request
/// into it. In every interleaving no request is lost, duplicated or
/// torn, the owner gets the FIFO head, the thief gets the newest tail,
/// and the shot-down request survives to be drained exactly once. (Two
/// separate explorations rather than one four-thread model: the races
/// touch disjoint deques, so composing them only multiplies the state
/// space without adding interactions.)
#[test]
fn steal_deque_no_lost_or_duplicated_requests() {
    // Race 1: owner pop vs sibling steal on one shard's queue.
    loom::model(|| {
        // Requests 1 (oldest) and 2 (newest) pre-stored.
        let dq = Dq::new(4, &[1, 2]);

        let owner_dq = dq.clone();
        let owner = thread::spawn(move || dq_pop(&owner_dq));
        // Model closure = the same-shard sibling stealing the tail.
        let stolen = dq_steal(&dq);
        let popped = owner.join().unwrap();

        assert_eq!(popped, Some(1), "owner pop takes the FIFO head");
        assert_eq!(stolen, Some(2), "steal takes the newest tail entry");
        assert!(dq_pop(&dq).is_none());
        assert!(dq_steal(&dq).is_none());
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

/// The review's high-severity scenario, explored exhaustively on a
/// capacity-1 ring: a push's handoff stalls while a steal's claim
/// rolls the tail ticket back and a second push claims the *same
/// cell*. The three claims are taken up front in the model closure —
/// exactly the "claims advance around the ring while a deposit is in
/// flight" window, and it keeps the DFS small — then both deposits and
/// the steal's take race freely under a preemption bound of 4 (spin
/// parks are voluntary and stay fully explored; four involuntary
/// switches cover a deposit stalled at any point across both of the
/// other threads' critical windows). The sequence stamps must pair
/// every deposit and take with its own claim: in every explored
/// interleaving both requests survive whole — the two payload words
/// of each take belong together — are consumed exactly once, and the
/// ring ends quiescent: no overwrite, no duplication, no stuck cell.
#[test]
fn steal_deque_slot_reuse_pairs_handoffs() {
    loom::model_bounded(4, || {
        let dq = Dq::new(1, &[]);

        // Claims, in ring order: push A (ticket 0), steal (ticket 0,
        // rolled back), push B (ticket 0 again — the reused cell).
        let ta = dq_push_claim(&dq).expect("empty ring accepts a push");
        let ts = dq_steal_claim(&dq).expect("claimed entry is stealable");
        let tb = dq_push_claim(&dq).expect("stolen entry frees the ring");
        assert_eq!((ta, ts, tb), (0, 0, 0), "all three claims share the cell");

        // Both deposits race each other and the steal's take.
        let a_dq = dq.clone();
        let a = thread::spawn(move || dq_push_handoff(&a_dq, ta, 1));
        let b_dq = dq.clone();
        let b = thread::spawn(move || dq_push_handoff(&b_dq, tb, 2));
        let stolen = dq_take(&dq, ts, ts);

        a.join().unwrap();
        b.join().unwrap();
        let popped = dq_pop(&dq).expect("second deposit still queued");

        let mut got = [stolen, popped];
        got.sort_unstable();
        assert_eq!(got, [1, 2], "cell reuse lost or duplicated a request");
        assert!(dq_pop(&dq).is_none());
        assert_eq!(dq.len(), 0, "ring quiescent after both handoffs");
    });
}

/// Teeth check for the inline payload: a push that publishes FULL after
/// the *first* payload word lets the owner's pop in while the second
/// word is still the previous lap's. The explorer must find the torn
/// read — the reason the payload may only be written between STORING
/// and FULL.
#[test]
#[should_panic(expected = "torn payload")]
fn explorer_catches_full_published_before_payload_complete() {
    loom::model(|| {
        let dq = Dq::new(1, &[]);
        let pusher_dq = dq.clone();
        let pusher = thread::spawn(move || {
            let t = dq_push_claim(&pusher_dq).expect("empty ring accepts a push");
            let j = dq_win(&pusher_dq, t, DQ_EMPTY, DQ_STORING);
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

/// Teeth check: a stealer that reads the cell *without* first claiming
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

        // BUG: take the tail value without claiming the word first.
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
/// cell to *read* moved-out instead of winning its claim's sequence
/// stamp, so it is not tied to any particular claim.
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

/// Teeth check: with the *old* null-probe handoff in place of the
/// sequence stamps, the explorer must find the push-push overwrite the
/// review flagged. Same claim layout as
/// `steal_deque_slot_reuse_pairs_handoffs`: on a capacity-1 ring a
/// steal's claim reuses the stalled pusher's cell for a second push.
/// Both deposits observe the cell moved-out and both write, so one
/// request is overwritten. After the steal's take, the word says one
/// request is still queued — in the losing schedule its cell is empty
/// instead, or holds half of each.
#[test]
#[should_panic(expected = "overwrote")]
fn explorer_catches_push_push_slot_overwrite() {
    loom::model(|| {
        let dq = Dq::new(1, &[]);

        let ta = dq_push_claim(&dq).expect("empty ring accepts a push");
        let ts = dq_steal_claim(&dq).expect("claimed entry is stealable");
        let tb = dq_push_claim(&dq).expect("stolen entry frees the ring");

        let a_dq = dq.clone();
        let a = thread::spawn(move || dq_push_handoff_unpaired(&a_dq, ta, 1));
        let b_dq = dq.clone();
        let b = thread::spawn(move || dq_push_handoff_unpaired(&b_dq, tb, 2));
        let _stolen = dq_take_unpaired(&dq, ts);

        a.join().unwrap();
        b.join().unwrap();

        assert_eq!(dq.len(), 1, "one steal from two pushes leaves one request queued");
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
