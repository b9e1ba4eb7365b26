//! Database latches with same-thread deadlock detection.
//!
//! Latches are the synchronization primitives the paper's §4.4 worries
//! about: they "do not have built-in deadlock detection", and with
//! preemption two transaction contexts *on the same worker thread* can
//! deadlock even under a perfect lock-ordering discipline — the preempted
//! context holds a latch its sibling spins on, and the sibling never
//! yields the CPU back. PreemptDB's answer is to wrap latch-holding code
//! in non-preemptible regions.
//!
//! This latch is a reader-writer spinlock whose spin loops (a) execute
//! preemption points so that, under the virtual-time simulator, waiting
//! burns virtual cycles and other cores keep running, and (b) trip a spin
//! bound that converts the otherwise-silent same-thread deadlock into a
//! diagnosable panic — which the §4.4 regression tests assert when the
//! non-preemptible region is deliberately omitted.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use preempt_context::runtime::preempt_point;
use preempt_trace::TraceEvent;

use crate::orphan;
use crate::sync::spin_wait;

/// Writer-held marker in the state word.
const WRITER: u32 = 1 << 31;

/// Trace payload for shared acquisition.
const MODE_READ: u8 = 0;
/// Trace payload for exclusive acquisition.
const MODE_WRITE: u8 = 1;

/// Spin iterations before declaring a suspected deadlock. Latches here
/// are held for nanoseconds inside non-preemptible regions; tens of
/// millions of spins means the holder is never coming back.
const SPIN_BOUND: u64 = 64_000_000;

/// Virtual cycles charged per spin iteration (a pause + reload).
const SPIN_COST: u64 = 4;

/// One bounded wait for somebody else's store: a record latch to come
/// free, an index node or hash shard to be unlocked. Every waiter in this crate spins through
/// [`turn`](Self::turn), so every wait lets virtual time pass under the
/// simulator and every wait on a holder that can never run again — a
/// context preempted on this very thread — ends in the same diagnosis.
/// Dropping a wait that spun at all records the contention.
pub(crate) struct BoundedSpin {
    spins: u64,
}

impl BoundedSpin {
    pub(crate) const fn new() -> BoundedSpin {
        BoundedSpin { spins: 0 }
    }

    /// One turn of the wait.
    ///
    /// # Panics
    /// After `SPIN_BOUND` turns, with a same-thread-deadlock diagnosis
    /// (see module docs).
    pub(crate) fn turn(&mut self) {
        spin_wait();
        // Let virtual time pass (and real preemption fire if the waiter is
        // itself preemptible) while waiting.
        preempt_point(SPIN_COST);
        self.spins += 1;
        if self.spins >= SPIN_BOUND {
            panic!(
                "latch spin bound exceeded: suspected same-thread deadlock \
                 (a preempted context is holding this latch; is the \
                 critical section missing a non-preemptible region? \
                 paper §4.4)"
            );
        }
    }
}

impl Drop for BoundedSpin {
    /// Records a contended acquisition (any wait that spun at least
    /// once) in the metrics registry: one `LatchWaits` count plus the
    /// approximate cycles burned waiting. Handler-safe — both emits are
    /// relaxed `fetch_add`s on the caller's shard.
    fn drop(&mut self) {
        if self.spins > 0 {
            preempt_metrics::counter_inc(preempt_metrics::Counter::LatchWaits);
            preempt_metrics::hist_record(
                preempt_metrics::FixedHist::LatchWaitCycles,
                self.spins * SPIN_COST,
            );
            // Provenance: the running transaction's latch-stall phase
            // (same approximation as the histogram; handler-safe add).
            preempt_prov::latch_stall_add(self.spins * SPIN_COST);
        }
    }
}

/// A reader-writer spin latch.
#[derive(Debug, Default)]
pub struct Latch {
    /// 0 = free; `WRITER` = exclusively held; otherwise reader count.
    state: AtomicU32,
    /// Owner tag (worker id + 1, 0 = untagged) of the current exclusive
    /// holder, recorded so a supervisor can force-release the write
    /// latches of a worker it has declared dead (see [`crate::orphan`]).
    /// Shared holders are not tracked: read-latched sections are
    /// non-preemptible and release on unwind, so they cannot outlive
    /// their worker.
    holder: AtomicU64,
}

impl Latch {
    pub const fn new() -> Latch {
        Latch {
            state: AtomicU32::new(0),
            holder: AtomicU64::new(0),
        }
    }

    /// Acquires shared access, spinning until available.
    ///
    /// # Panics
    /// After `SPIN_BOUND` iterations, with a same-thread-deadlock
    /// diagnosis (see module docs).
    pub fn read(&self) -> ReadGuard<'_> {
        let mut wait = BoundedSpin::new();
        loop {
            let s = self.state.load(Ordering::Relaxed);
            if s & WRITER == 0
                && self
                    .state
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                preempt_trace::emit(TraceEvent::LatchAcquire { mode: MODE_READ });
                return ReadGuard { latch: self };
            }
            wait.turn();
        }
    }

    /// Acquires exclusive access, spinning until available.
    pub fn write(&self) -> WriteGuard<'_> {
        let mut wait = BoundedSpin::new();
        loop {
            if self
                .state
                .compare_exchange_weak(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                self.holder.store(orphan::current_owner_tag(), Ordering::Relaxed);
                preempt_trace::emit(TraceEvent::LatchAcquire { mode: MODE_WRITE });
                let guard = WriteGuard { latch: self };
                // Chaos injection: panic *while holding* the latch, after
                // the guard exists, so the unwind exercises the release
                // path the worker's panic firewall depends on. Suppressed
                // mid-unwind (aborts would mask the original panic).
                if preempt_faults::on_latch_acquire() && !std::thread::panicking() {
                    panic!("injected: panic while holding a write latch");
                }
                return guard;
            }
            wait.turn();
        }
    }

    /// Tries to acquire exclusive access without spinning.
    pub fn try_write(&self) -> Option<WriteGuard<'_>> {
        self.state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| {
                self.holder.store(orphan::current_owner_tag(), Ordering::Relaxed);
                preempt_trace::emit(TraceEvent::LatchAcquire { mode: MODE_WRITE });
                WriteGuard { latch: self }
            })
    }

    /// Force-releases the latch if it is write-held by `owner` (as
    /// tagged by [`crate::orphan::set_current_owner`]). Returns whether
    /// a release happened.
    ///
    /// # Safety contract (not enforced by types)
    /// Only sound once `owner` can never execute again: the abandoned
    /// `WriteGuard` in its dead frames must never drop, or it would
    /// zero a state word a new holder owns. The supervisor guarantees
    /// this by sweeping only after the worker's exit is observed.
    pub fn force_release_write_held_by(&self, owner: u64) -> bool {
        if self.holder.load(Ordering::Acquire) != owner + 1 {
            return false;
        }
        if self
            .state
            .compare_exchange(WRITER, 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            self.holder.store(0, Ordering::Release);
            preempt_trace::emit(TraceEvent::LatchRelease { mode: MODE_WRITE });
            return true;
        }
        false
    }

    /// Whether the latch is currently held in any mode (diagnostics).
    pub fn is_held(&self) -> bool {
        self.state.load(Ordering::Relaxed) != 0
    }
}

/// Shared guard; releases on drop.
pub struct ReadGuard<'a> {
    latch: &'a Latch,
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        preempt_trace::emit(TraceEvent::LatchRelease { mode: MODE_READ });
        self.latch.state.fetch_sub(1, Ordering::Release);
    }
}

/// Exclusive guard; releases on drop.
pub struct WriteGuard<'a> {
    latch: &'a Latch,
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        preempt_trace::emit(TraceEvent::LatchRelease { mode: MODE_WRITE });
        self.latch.holder.store(0, Ordering::Relaxed);
        self.latch.state.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exclusive_excludes() {
        let l = Latch::new();
        let g = l.write();
        assert!(l.try_write().is_none());
        drop(g);
        assert!(l.try_write().is_some());
    }

    #[test]
    fn readers_share() {
        let l = Latch::new();
        let r1 = l.read();
        let r2 = l.read();
        assert!(l.try_write().is_none());
        drop(r1);
        assert!(l.try_write().is_none());
        drop(r2);
        assert!(l.try_write().is_some());
    }

    #[test]
    fn cross_thread_handoff() {
        let l = Arc::new(Latch::new());
        let counter = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = l.clone();
            let c = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let _g = l.write();
                    // Non-atomic RMW protected by the latch.
                    let v = c.load(Ordering::Relaxed);
                    c.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn is_held_reflects_state() {
        let l = Latch::new();
        assert!(!l.is_held());
        let g = l.read();
        assert!(l.is_held());
        drop(g);
        assert!(!l.is_held());
    }

    #[test]
    fn force_release_frees_only_the_owners_write_latch() {
        let l = Latch::new();
        crate::orphan::set_current_owner(7);
        let g = l.write();
        // Wrong owner: no-op.
        assert!(!l.force_release_write_held_by(3));
        assert!(l.is_held());
        // Simulate an abandoned frame: the guard never drops.
        std::mem::forget(g);
        crate::orphan::clear_current_owner();
        assert!(l.force_release_write_held_by(7));
        assert!(!l.is_held());
        // Idempotent once released.
        assert!(!l.force_release_write_held_by(7));
        assert!(l.try_write().is_some());
    }

    #[test]
    fn untagged_write_holds_are_not_force_releasable() {
        let l = Latch::new();
        crate::orphan::clear_current_owner();
        let _g = l.write();
        for owner in 0..4 {
            assert!(!l.force_release_write_held_by(owner));
        }
        assert!(l.is_held());
    }
}
