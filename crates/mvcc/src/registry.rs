//! Active-transaction registry: the snapshot watermark for version GC.
//!
//! Memory-optimized MVCC engines reclaim versions no active snapshot can
//! see (§2.2). This registry tracks the begin timestamps of in-flight
//! transactions in a fixed array of slots (one CAS to enter, one store to
//! leave — no locks on the transaction critical path) and computes the
//! minimum as the GC watermark. The same watermark gates the limbo
//! ([`crate::limbo`]): the registry is the engine's reclamation epoch.
//!
//! A slot is one cache line holding a begin timestamp, and each thread
//! starts probing at its own offset, so concurrent `begin`s on different
//! threads never write the same line.

use crate::sync::{stripe_index, AtomicU64, AtomicUsize, Ordering, STRIPES};
use crate::version::Timestamp;

/// Maximum simultaneously active transactions (workers × contexts is far
/// below this in every configuration the paper evaluates). Model-checked
/// builds shrink it so a watermark scan is a handful of steps.
pub const MAX_ACTIVE: usize = if cfg!(loom) { 3 } else { 512 };

/// Slots reserved per thread stripe by the starting hint: a worker's
/// contexts land next to each other, and because thread numbers wrap at
/// [`STRIPES`] the claimed prefix — all a scan walks — stays short however
/// many threads come and go.
const HINT_STRIDE: usize = 8;
const _: () = assert!(cfg!(loom) || STRIPES * HINT_STRIDE <= MAX_ACTIVE);

#[repr(align(64))]
#[derive(Default)]
struct Slot {
    /// 0 = free; otherwise `begin_ts + 1` (so ts 0 is storable).
    ts: AtomicU64,
}

pub struct ActiveTxns {
    slots: Box<[Slot]>,
    /// One past the highest slot index ever claimed; scans stop here. It
    /// is raised *before* the claiming CAS, so a scan that reads it too
    /// low precedes that CAS and may ignore the claimant like any other
    /// transaction that begins behind the scan.
    high: AtomicUsize,
}

impl ActiveTxns {
    pub fn new() -> ActiveTxns {
        ActiveTxns {
            slots: (0..MAX_ACTIVE).map(|_| Slot::default()).collect(),
            high: AtomicUsize::new(0),
        }
    }

    /// Registers an active transaction; the guard unregisters on drop.
    pub fn enter(&self, begin_ts: Timestamp) -> ActiveSlot<'_> {
        let encoded = begin_ts + 1;
        let start = slot_hint();
        for i in 0..MAX_ACTIVE {
            let idx = (start + i) % MAX_ACTIVE;
            let slot = &self.slots[idx];
            // Cheap pre-check keeps the probe from writing lines that
            // other transactions own.
            if slot.ts.load(Ordering::Relaxed) != 0 {
                continue;
            }
            // SeqCst load: reading a raised mark orders its raise, and so
            // any scan that missed it, before the CAS below.
            if idx >= self.high.load(Ordering::SeqCst) {
                self.high.fetch_max(idx + 1, Ordering::SeqCst);
            }
            if slot
                .ts
                .compare_exchange(0, encoded, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                set_slot_hint(idx);
                return ActiveSlot { slot };
            }
        }
        panic!("more than {MAX_ACTIVE} concurrently active transactions");
    }

    fn scanned(&self) -> &[Slot] {
        &self.slots[..self.high.load(Ordering::SeqCst)]
    }

    /// Oldest active begin timestamp, or `fallback` when none are active.
    /// Versions committed at or before this are the newest any snapshot
    /// can require; older ones may be trimmed.
    pub fn watermark(&self, fallback: Timestamp) -> Timestamp {
        self.scanned()
            .iter()
            .map(|s| s.ts.load(Ordering::SeqCst))
            .filter(|&v| v != 0)
            .min()
            .map_or(fallback, |v| v - 1)
    }

    /// Number of currently active transactions (diagnostics).
    pub fn active_count(&self) -> usize {
        self.scanned()
            .iter()
            .filter(|s| s.ts.load(Ordering::Relaxed) != 0)
            .count()
    }
}

impl Default for ActiveTxns {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Where this thread's next `enter` starts probing: its own stride of
    /// slots at first, then wherever it last found room. (Model-checked
    /// builds start at 0: thread numbers differ from one explored
    /// execution to the next, and a model must replay exactly.)
    static SLOT_HINT: std::cell::Cell<usize> = std::cell::Cell::new(if cfg!(loom) {
        0
    } else {
        stripe_index() * HINT_STRIDE
    });
}

fn slot_hint() -> usize {
    SLOT_HINT.with(|h| h.get())
}

fn set_slot_hint(idx: usize) {
    SLOT_HINT.with(|h| h.set(idx));
}

/// RAII registration of an active transaction.
pub struct ActiveSlot<'r> {
    slot: &'r Slot,
}

impl ActiveSlot<'_> {
    /// Replaces the registered begin timestamp. Used by `Engine::begin`,
    /// which registers a provisional ts-0 slot *before* reading the
    /// snapshot timestamp (pinning the watermark at 0 for the window) and
    /// publishes the real snapshot here once it is known.
    ///
    /// `Release` is enough: the `SeqCst` CAS in `enter` is what orders this
    /// transaction against scans, and a scan that does not see this store
    /// yet reads the provisional 0 — a lower watermark, which only trims
    /// and reclaims less.
    pub fn publish(&self, begin_ts: Timestamp) {
        self.slot.ts.store(begin_ts + 1, Ordering::Release);
    }
}

impl Drop for ActiveSlot<'_> {
    fn drop(&mut self) {
        self.slot.ts.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_is_min_active() {
        let r = ActiveTxns::new();
        assert_eq!(r.watermark(42), 42, "no active txns: fallback");
        let _a = r.enter(10);
        let b = r.enter(5);
        let _c = r.enter(20);
        assert_eq!(r.watermark(99), 5);
        assert_eq!(r.active_count(), 3);
        drop(b);
        assert_eq!(r.watermark(99), 10);
    }

    #[test]
    fn zero_timestamp_is_representable() {
        let r = ActiveTxns::new();
        let _a = r.enter(0);
        assert_eq!(r.watermark(99), 0);
    }

    #[test]
    fn slots_are_reusable() {
        let r = ActiveTxns::new();
        for i in 0..MAX_ACTIVE * 3 {
            let g = r.enter(i as u64);
            drop(g);
        }
        assert_eq!(r.active_count(), 0);
    }

    #[test]
    fn concurrent_enter_leave() {
        let r = std::sync::Arc::new(ActiveTxns::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    let g = r.enter(t * 1000 + i);
                    std::hint::black_box(&g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.active_count(), 0);
    }
}
