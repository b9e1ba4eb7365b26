//! User posted-interrupt descriptors (UPID) and sender tables (UITT).
//!
//! Hardware UINTR posts interrupts by setting a bit in the receiver's UPID
//! and (optionally) notifying the target CPU; the sender finds the UPID
//! through its user-interrupt target table (UITT) and the `senduipi`
//! instruction's operand is an index into that table (paper §2.3).
//!
//! This module reproduces the model in software: a [`Upid`] is a shared
//! pending-bit word, a [`UipiSender`] posts bits into it with a release
//! store, and a [`Uitt`] is the per-sender table indexed by `senduipi`.
//! Delivery to the receiving code happens when the receiver's thread
//! executes a preemption point (see `receiver.rs` and DESIGN.md §1.1).

// Under `--cfg loom` the pending/active words become loom atomics so the
// model checker in tests/loom.rs can exhaust every interleaving of the
// post/take/repost protocol. Production builds keep std atomics.
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(loom)]
use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::cycles::rdtsc;

/// Number of user-interrupt vectors, matching the hardware's UIRR width.
pub const NUM_VECTORS: u8 = 64;

/// What a send writes, on one cache line: the pending word the receiver
/// polls at every preemption point, the sender's stamp and count, and
/// the delivery epoch. The sender writes all four back to back under one
/// ownership of the line, and the receiver that takes the bit gets the
/// stamp and the epoch with it. Nothing the *receiver* or a third party
/// writes may share the line — it would keep pulling the polled word out
/// of the receiver's cache.
#[derive(Debug)]
#[repr(C, align(64))]
struct PostLine {
    /// Posted-interrupt requests, one bit per vector (the UIRR analog).
    pending: AtomicU64,
    /// TSC stamp of the most recent post, for delivery-latency accounting.
    last_post_tsc: AtomicU64,
    /// Total posts (senduipi executions) targeting this descriptor.
    posts: AtomicU64,
    /// The delivery epoch: bumped by a scheduler before each interrupt it
    /// posts here, and copied by the receiver's handler into its
    /// acknowledgement (the scheduler's delivery watchdog, DESIGN §11).
    epoch: AtomicU64,
}

/// User posted-interrupt descriptor: one per receiver thread.
///
/// Sharable across threads; senders hold `Arc<Upid>` through their UITT.
#[derive(Debug)]
#[repr(C)] // `post` first: the `Arc` counts end up on the line before it
pub struct Upid {
    post: PostLine,
    // Read by every post, written at set-up and tear-down only: the line
    // after `post`, so senders keep it in shared state.
    /// Suppress-notification analog: `false` once the receiver tears down.
    active: AtomicBool,
    /// Owning worker id for trace attribution (`u16::MAX` = unattributed).
    owner: AtomicU64,
}

impl Upid {
    pub fn new() -> Arc<Upid> {
        Arc::new(Upid {
            post: PostLine {
                pending: AtomicU64::new(0),
                last_post_tsc: AtomicU64::new(0),
                posts: AtomicU64::new(0),
                epoch: AtomicU64::new(0),
            },
            active: AtomicBool::new(true),
            owner: AtomicU64::new(u64::from(u16::MAX)),
        })
    }

    /// Tags this descriptor with the receiving worker's id so that trace
    /// records of sends can name their target.
    pub fn set_owner(&self, worker: u16) {
        self.owner.store(u64::from(worker), Ordering::Relaxed);
    }

    /// The receiving worker's id (`u16::MAX` until [`Upid::set_owner`]).
    pub fn owner(&self) -> u16 {
        self.owner.load(Ordering::Relaxed) as u16
    }

    /// Posts vector `vector` (the core of `senduipi`). Returns `false` if
    /// the receiver has shut down.
    #[inline]
    pub fn post(&self, vector: u8) -> bool {
        debug_assert!(vector < NUM_VECTORS);
        if !self.active.load(Ordering::Acquire) {
            return false;
        }
        // Sender-side stamps first: once the bit is up the receiver may be
        // in its handler reading them.
        self.post.last_post_tsc.store(rdtsc(), Ordering::Relaxed);
        self.post.posts.fetch_add(1, Ordering::Relaxed);
        // Release pairs with the Acquire swap in the receiver so that
        // everything the sender wrote (e.g. the enqueued transaction)
        // happens-before the handler observing the vector.
        let bit = 1u64 << vector;
        self.post.pending.fetch_or(bit, Ordering::Release);
        true
    }

    /// Sender-side: bumps the delivery epoch, before posting the
    /// interrupt it stands for; returns the new epoch. An acknowledgement
    /// of this epoch or a later one proves the interrupt reached the
    /// handler. Release pairs with [`epoch`](Self::epoch)'s Acquire.
    #[inline]
    pub fn bump_epoch(&self) -> u64 {
        self.post.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// The delivery epoch. In the handler, after taking the pending bit,
    /// it is no older than the post delivered, and is read from the line
    /// the take has just fetched.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.post.epoch.load(Ordering::Acquire)
    }

    /// Receiver-side: atomically takes all pending vectors (returns the
    /// bitmask and clears it). Acquire pairs with [`Upid::post`].
    #[inline]
    pub fn take_pending(&self) -> u64 {
        // Fast path for the overwhelmingly common empty case: a single
        // relaxed load — this runs at *every* preemption point.
        if self.post.pending.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        self.post.pending.swap(0, Ordering::Acquire)
    }

    /// Whether any vector is pending (no side effects).
    #[inline]
    pub fn has_pending(&self) -> bool {
        self.post.pending.load(Ordering::Relaxed) != 0
    }

    /// Re-posts vectors that could not be delivered (deferral by a
    /// non-preemptible region or masked UIF).
    #[inline]
    pub fn repost(&self, vectors: u64) {
        self.post.pending.fetch_or(vectors, Ordering::Release);
    }

    /// Marks the receiver as gone; subsequent posts fail.
    pub fn deactivate(&self) {
        self.active.store(false, Ordering::Release);
    }

    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// TSC stamp of the most recent post.
    pub fn last_post_tsc(&self) -> u64 {
        self.post.last_post_tsc.load(Ordering::Relaxed)
    }

    /// Total number of posts so far.
    pub fn posts(&self) -> u64 {
        self.post.posts.load(Ordering::Relaxed)
    }
}

/// A sending endpoint: one UITT entry (target UPID + vector).
#[derive(Clone, Debug)]
pub struct UipiSender {
    upid: Arc<Upid>,
    vector: u8,
}

impl UipiSender {
    pub fn new(upid: Arc<Upid>, vector: u8) -> UipiSender {
        assert!(vector < NUM_VECTORS, "vector out of range");
        UipiSender { upid, vector }
    }

    /// Sends the user interrupt (the `senduipi` analog). Returns `false`
    /// if the receiver has shut down.
    ///
    /// Consults the fault injector when a plan is installed: a dropped
    /// send reports success (the sender cannot observe a lost
    /// notification — re-delivery is the scheduler watchdog's job), a
    /// duplicated send posts twice (coalesced by the edge-triggered
    /// pending word), and a spurious send posts an extra unrelated
    /// vector. Injected delays are only meaningful under the simulator's
    /// timed sender; here they deliver immediately.
    #[inline]
    pub fn send(&self) -> bool {
        use preempt_faults::SendFault;
        preempt_trace::emit(preempt_trace::TraceEvent::UipiSent {
            target: self.upid.owner(),
            vector: self.vector,
        });
        match preempt_faults::on_uipi_send() {
            SendFault::Deliver | SendFault::Delay(_) => self.upid.post(self.vector),
            SendFault::Drop => self.upid.is_active(),
            SendFault::Duplicate => {
                let ok = self.upid.post(self.vector);
                self.upid.post(self.vector);
                ok
            }
            SendFault::Spurious(v) => {
                let ok = self.upid.post(self.vector);
                self.upid.post(v % NUM_VECTORS);
                ok
            }
        }
    }

    /// Starts fetching the line [`send`](Self::send) writes — the target's
    /// pending word with its stamp and count — without waiting for it, so
    /// a caller can overlap the miss with the work it does before sending.
    #[inline]
    pub fn prefetch(&self) {
        crate::prefetch_for_write(&self.upid.post);
    }

    /// The target descriptor (for tests and stats).
    pub fn upid(&self) -> &Arc<Upid> {
        &self.upid
    }

    pub fn vector(&self) -> u8 {
        self.vector
    }
}

/// User-interrupt target table: the sender-side register file of
/// [`UipiSender`] entries, indexed like the operand of `senduipi`.
#[derive(Default, Debug)]
pub struct Uitt {
    entries: Vec<UipiSender>,
}

impl Uitt {
    pub fn new() -> Uitt {
        Uitt::default()
    }

    /// Registers a target; returns its UITT index.
    pub fn register(&mut self, upid: Arc<Upid>, vector: u8) -> usize {
        self.entries.push(UipiSender::new(upid, vector));
        self.entries.len() - 1
    }

    /// `senduipi(index)`: posts the interrupt described by entry `index`.
    #[inline]
    pub fn senduipi(&self, index: usize) -> bool {
        self.entries[index].send()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entry(&self, index: usize) -> &UipiSender {
        &self.entries[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// To itself among *writers*: the line holds the sender's bit, stamp,
    /// count and epoch and nothing anyone else writes; `active`/`owner` (read
    /// by every post) and the `Arc` counts are on other lines.
    #[test]
    fn pending_word_has_a_cache_line_to_itself() {
        let upid = Upid::new();
        let line = |p: *const u8| p as usize / 64;
        let of = |a: &AtomicU64| line(std::ptr::from_ref(a).cast());
        let pending = of(&upid.post.pending);
        assert_eq!(std::mem::size_of::<PostLine>(), 64);
        assert_eq!(pending, of(&upid.post.last_post_tsc));
        assert_eq!(pending, of(&upid.post.posts));
        assert_eq!(pending, of(&upid.post.epoch));
        assert_ne!(pending, line(std::ptr::from_ref(&upid.active).cast()));
        assert_ne!(pending, of(&upid.owner));
        // The `Arc` counts sit on the line in front of the descriptor.
        assert_eq!(pending, line(Arc::as_ptr(&upid).cast()));
        let counts = Arc::as_ptr(&upid).cast::<u8>().wrapping_sub(16);
        assert_ne!(pending, line(counts));
    }

    #[test]
    fn post_and_take_round_trip() {
        let upid = Upid::new();
        assert_eq!(upid.take_pending(), 0);
        assert!(upid.post(3));
        assert!(upid.post(10));
        assert!(upid.has_pending());
        assert_eq!(upid.take_pending(), (1 << 3) | (1 << 10));
        assert_eq!(upid.take_pending(), 0, "cleared after take");
    }

    #[test]
    fn epoch_counts_sends_from_its_start() {
        let upid = Upid::new();
        assert_eq!(upid.epoch(), 0);
        assert_eq!(upid.bump_epoch(), 1);
        assert_eq!(upid.epoch(), 1);
    }

    #[test]
    fn duplicate_posts_coalesce() {
        let upid = Upid::new();
        upid.post(5);
        upid.post(5);
        upid.post(5);
        assert_eq!(upid.posts(), 3);
        assert_eq!(upid.take_pending(), 1 << 5, "edge-triggered: one bit");
    }

    #[test]
    fn deactivated_receiver_rejects_posts() {
        let upid = Upid::new();
        upid.deactivate();
        assert!(!upid.post(0));
        assert_eq!(upid.take_pending(), 0);
    }

    #[test]
    fn repost_restores_bits() {
        let upid = Upid::new();
        upid.post(1);
        let taken = upid.take_pending();
        upid.repost(taken);
        assert_eq!(upid.take_pending(), 1 << 1);
    }

    #[test]
    fn uitt_indexes_targets() {
        let a = Upid::new();
        let b = Upid::new();
        let mut uitt = Uitt::new();
        let ia = uitt.register(a.clone(), 0);
        let ib = uitt.register(b.clone(), 7);
        assert_eq!((ia, ib), (0, 1));
        uitt.senduipi(ib);
        assert_eq!(a.take_pending(), 0);
        assert_eq!(b.take_pending(), 1 << 7);
    }

    #[test]
    fn cross_thread_post_is_visible() {
        let upid = Upid::new();
        let sender = UipiSender::new(upid.clone(), 9);
        std::thread::spawn(move || sender.send()).join().unwrap();
        assert_eq!(upid.take_pending(), 1 << 9);
    }

    #[test]
    #[should_panic(expected = "vector out of range")]
    fn vector_range_checked() {
        let _ = UipiSender::new(Upid::new(), 64);
    }
}
