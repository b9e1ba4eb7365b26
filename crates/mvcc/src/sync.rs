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

use std::sync::atomic::{AtomicU64 as Counter, AtomicUsize as ThreadIds, Ordering::Relaxed};

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

/// Gives `T` a cache line of its own.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct CachePadded<T>(pub(crate) T);

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
