//! The atomics the memory protocol is built from, plus the per-thread
//! striping of the engine's hot counters.
//!
//! Under `--cfg loom` the protocol atomics (`Record.head`,
//! `Version.{next,begin}`, registry slots, the commit clock, the limbo,
//! every field of an index node and hash shard) become the vendored loom
//! stub's, so `src/loom_tests.rs` can exhaust the interleavings of
//! reader-walk vs install/unlink/trim/reclaim and of optimistic index
//! reads vs splits and shard growth. Production builds use `std`.

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use std::sync::atomic::{
    AtomicU32 as OwnerBits, AtomicU64 as Counter, AtomicUsize as ThreadIds,
    Ordering::{Acquire, Relaxed, Release},
};

/// One turn of a wait for another thread's store. The model checker has
/// to be told (it parks the spinner until somebody writes).
#[inline]
pub(crate) fn spin_wait() {
    #[cfg(loom)]
    loom::thread::yield_waiting();
    #[cfg(not(loom))]
    std::hint::spin_loop();
}

/// Stripes per striped structure. More threads than this share stripes,
/// which costs contention, never correctness.
pub(crate) const STRIPES: usize = 16;

/// The calling thread's stripe in every striped structure: threads are
/// numbered in order of first use (never reused) and the number wraps at
/// [`STRIPES`]. Contexts multiplexed on one thread share it.
#[inline]
pub(crate) fn stripe_index() -> usize {
    static NEXT: ThreadIds = ThreadIds::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Relaxed) % STRIPES;
    }
    INDEX.with(|i| *i)
}

/// Single-writer slots per structure that keeps one (the tables' OID
/// blocks). Unlike a stripe, a slot is never shared: a thread claims a
/// free one on first use and hands it back when it exits.
pub(crate) const OWNER_SLOTS: usize = STRIPES;

/// The calling thread's owner slot, or `None` if every slot is held by a
/// live thread (or this thread is already tearing down its locals): the
/// caller then takes its shared path. The lowest free slot goes first, so
/// a thread that exits leaves its slot, and what it holds there, to the
/// next thread that needs one. Contexts multiplexed on one thread share
/// it; the caller keeps preemption points out of what it does in there.
#[inline]
pub(crate) fn owner_slot() -> Option<usize> {
    static CLAIMED: OwnerBits = OwnerBits::new(0);
    const _: () = assert!(OWNER_SLOTS <= 32);

    struct Claim(Option<usize>);
    impl Drop for Claim {
        fn drop(&mut self) {
            if let Some(i) = self.0 {
                // Release: the next owner sees what this one wrote.
                CLAIMED.fetch_and(!(1 << i), Release);
            }
        }
    }
    fn claim() -> Claim {
        let mut bits = CLAIMED.load(Relaxed);
        loop {
            let free = !bits & (u32::MAX >> (32 - OWNER_SLOTS));
            if free == 0 {
                return Claim(None);
            }
            let i = free.trailing_zeros();
            match CLAIMED.compare_exchange_weak(bits, bits | 1 << i, Acquire, Relaxed) {
                Ok(_) => return Claim(Some(i as usize)),
                Err(now) => bits = now,
            }
        }
    }
    thread_local! {
        static SLOT: Claim = claim();
    }
    SLOT.try_with(|c| c.0).ok().flatten()
}

/// Gives `T` a cache line of its own.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// `K` monotonic counters, striped per thread so that bumping one touches
/// only a cache line the bumping thread (almost always) owns. Reads sum
/// the stripes.
pub(crate) struct Striped<const K: usize> {
    stripes: [CachePadded<[Counter; K]>; STRIPES],
}

impl<const K: usize> Striped<K> {
    pub(crate) fn new() -> Striped<K> {
        Striped {
            stripes: std::array::from_fn(|_| CachePadded(std::array::from_fn(|_| Counter::new(0)))),
        }
    }

    /// The calling thread's stripe; bump its counters with a relaxed
    /// `fetch_add` (contexts sharing the thread share the stripe).
    #[inline]
    pub(crate) fn local(&self) -> &[Counter; K] {
        &self.stripes[stripe_index()].0
    }

    pub(crate) fn sum(&self, field: usize) -> u64 {
        self.stripes.iter().map(|s| s.0[field].load(Relaxed)).sum()
    }
}
