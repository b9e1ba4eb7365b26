//! The limbo: unlinked versions waiting for their last possible reader.
//!
//! Readers walk version chains without latches or reference counts, so a
//! version a writer unlinks (abort, trim) may still be
//! under a reader's feet. The writer therefore *retires* the detached run
//! here, stamped with the commit clock read **after** the unlink, and the
//! run is freed once `stamp < watermark`, where the watermark is the
//! minimum begin timestamp in [`crate::registry::ActiveTxns`] as scanned
//! by a *registered* transaction (so it is at most the clock at the start
//! of the scan). The registry is the epoch:
//!
//! * a transaction with `begin_ts <= stamp` may have loaded a pointer
//!   into the run before the unlink; while it is registered the
//!   watermark cannot pass the stamp;
//! * a transaction with `begin_ts > stamp` read the clock after the
//!   retiring writer did, hence after the unlink store (all `SeqCst`), so
//!   its chain walks — which start after its clock read — see the
//!   unlinked pointer and never reach the run;
//! * a scan that missed a transaction registering behind it started
//!   before that registration, and `stamp < watermark <=` clock at scan
//!   start puts the unlink before the scan too: same conclusion.
//!
//! The condition is monotonic (once true it stays true), so a cached
//! watermark is as good as a fresh one, only later. DESIGN.md §2.2 has
//! the full argument, including why it covers read-committed readers and
//! aborted pending versions.
//!
//! Runs queue in per-thread stripes; a stripe is a linked list (one small
//! node per retirement, never a large block) behind a mutex that is only
//! touched when the stripe's length word says there is something to do.
//! Freeing is paced: a transaction end frees a bounded number of versions
//! from its own thread's stripe, so the work a trim defers is spread over
//! the transactions that follow instead of landing on one of them
//! (draining every stripe at each scan doubles TPC-C Payment's p99).

use std::collections::LinkedList;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::sync::{stripe_index, CachePadded, STRIPES};
use crate::version::{Detached, Timestamp};

/// Versions freed per paced drain (whole runs: the run that takes the
/// total past the budget is the last). About one trimmed hot chain; a
/// thread retires far less than this per transaction on average, so the
/// queue cannot grow without bound.
pub(crate) const DRAIN_VERSIONS: usize = 64;

struct Retired {
    stamp: Timestamp,
    run: Detached,
}

#[derive(Default)]
struct Stripe {
    /// Length of `queue`, readable without the lock.
    len: AtomicUsize,
    queue: Mutex<LinkedList<Retired>>,
}

pub(crate) struct Limbo {
    stripes: [CachePadded<Stripe>; STRIPES],
}

impl Limbo {
    pub(crate) fn new() -> Limbo {
        Limbo {
            stripes: std::array::from_fn(|_| CachePadded::default()),
        }
    }

    /// Queues a detached run on the calling thread's stripe. `stamp` is
    /// the commit clock read (`SeqCst`) after the store that unlinked the
    /// run.
    pub(crate) fn retire(&self, run: Detached, stamp: Timestamp) {
        let stripe = &self.stripes[stripe_index()].0;
        let mut queue = stripe.queue.lock();
        queue.push_back(Retired { stamp, run });
        stripe.len.store(queue.len(), Ordering::Release);
    }

    /// Whether stripe `stripe` (taken modulo the stripe count) has
    /// anything queued: one relaxed load, of a line the calling thread
    /// owns if the stripe is its own.
    #[inline]
    pub(crate) fn has_work(&self, stripe: usize) -> bool {
        self.stripes[stripe % STRIPES].0.len.load(Ordering::Relaxed) != 0
    }

    /// Frees runs of stripe `stripe` (taken modulo the stripe count) that
    /// `watermark` allows, oldest first, until `budget` versions are
    /// freed.
    ///
    /// # Safety
    /// `watermark` is a registry minimum that is at most the commit clock
    /// at the start of its scan (see the module docs).
    pub(crate) unsafe fn drain(&self, stripe: usize, watermark: Timestamp, budget: usize) {
        let stripe = &self.stripes[stripe % STRIPES].0;
        // Stamps are near-monotonic per stripe; stopping at the first
        // ineligible run only ever delays a free. The runs are freed
        // after the lock is dropped.
        let eligible = {
            let mut queue = stripe.queue.lock();
            let mut left = budget;
            let n = queue
                .iter()
                .take_while(|r| {
                    let take = left > 0 && r.stamp < watermark;
                    left = left.saturating_sub(r.run.count());
                    take
                })
                .count();
            let rest = queue.split_off(n);
            stripe.len.store(rest.len(), Ordering::Release);
            std::mem::replace(&mut *queue, rest)
        };
        for retired in eligible {
            // SAFETY: `stamp < watermark` and the watermark is legitimate
            // (this fn's contract) — see the module docs: every
            // transaction that could hold a pointer into the run has left
            // the registry, and none that registers later can reach it.
            unsafe { retired.run.free() };
        }
    }

    /// Frees every run in every stripe that `watermark` allows.
    ///
    /// # Safety
    /// As for [`Limbo::drain`]; or no transaction of the owning engine
    /// exists or can start, and `watermark` is `Timestamp::MAX`.
    pub(crate) unsafe fn drain_all(&self, watermark: Timestamp) {
        for stripe in (0..STRIPES).filter(|&s| self.has_work(s)) {
            // SAFETY: forwarded from this fn's contract.
            unsafe { self.drain(stripe, watermark, usize::MAX) };
        }
    }

    /// Runs currently queued (diagnostics).
    pub(crate) fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.0.len.load(Ordering::Relaxed))
            .sum()
    }
}
