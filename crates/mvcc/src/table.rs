//! Tables: indirection arrays mapping OIDs to records.
//!
//! Mirrors ERMIA's object model — a table is an array of record heads
//! (indirection slots); indexes map keys to OIDs, and the OID dereference
//! plus version-chain search is the actual "read".
//!
//! The array is a two-level directory of fixed-size segments that hold
//! the [`Record`]s inline. Directory blocks and segments are installed
//! once (CAS from null) and never move or shrink until the table drops,
//! so an OID lookup is two `Acquire` loads and an index: no lock, no
//! reference count. Both block and segment are 32 KiB — far below the
//! allocator's mmap threshold, so loading and dropping databases in a
//! loop recycles heap memory instead of faulting fresh pages in.

use std::ptr;

use crate::sync::{AtomicPtr, AtomicU64, CachePadded, Ordering};
use crate::version::{Oid, Record};

/// Table identifier (position in the engine's catalog).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TableId(pub u32);

/// Records per segment (32-byte records: 32 KiB).
const SEG_LEN: usize = 1 << SEG_BITS;
const SEG_BITS: u32 = 10;
/// Segment pointers per directory block (32 KiB).
const BLOCK_LEN: usize = 1 << BLOCK_BITS;
const BLOCK_BITS: u32 = 12;
/// Directory blocks per table, inline in the `Table`.
const ROOT_LEN: usize = 64;

/// Most records one table can hold (2^28).
pub const MAX_RECORDS: u64 = (ROOT_LEN * BLOCK_LEN * SEG_LEN) as u64;

type SegmentPtr = AtomicPtr<Record>;

/// An in-memory table: a lazily grown indirection array of records.
pub struct Table {
    id: TableId,
    name: String,
    /// The engine whose registry guards this table's versions.
    engine_id: u64,
    root: [AtomicPtr<SegmentPtr>; ROOT_LEN],
    /// Versions unlinked by GC trims on this table.
    trimmed_versions: AtomicU64,
    /// The OID allocator, bumped by every insert: kept off the cache
    /// lines the read-mostly directory lives on.
    next_oid: CachePadded<AtomicU64>,
}

/// Allocates a boxed slice of `len` elements and leaks it as a thin
/// pointer; [`free_slice`] is its inverse.
fn leak_slice<T>(len: usize, init: impl FnMut() -> T) -> *mut T {
    let mut v = Vec::with_capacity(len);
    v.resize_with(len, init);
    Box::into_raw(v.into_boxed_slice()).cast::<T>()
}

/// # Safety
/// `p` came from `leak_slice::<T>(len, _)` and is not used afterwards.
unsafe fn free_slice<T>(p: *mut T, len: usize) {
    // SAFETY: forwarded from this fn's contract.
    drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(p, len)) });
}

/// Returns the pointer in `slot`, installing `leak_slice(len, init)` if
/// it is still null. A racing loser frees its own allocation.
fn get_or_install<T>(slot: &AtomicPtr<T>, len: usize, init: impl FnMut() -> T) -> *mut T {
    let cur = slot.load(Ordering::Acquire);
    if !cur.is_null() {
        return cur;
    }
    let fresh = leak_slice(len, init);
    // AcqRel: Release publishes the initialized slice; Acquire on failure
    // makes the winner's slice visible to us.
    match slot.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => fresh,
        Err(winner) => {
            // SAFETY: `fresh` was never published.
            unsafe { free_slice(fresh, len) };
            winner
        }
    }
}

fn split(oid: Oid) -> (usize, usize, usize) {
    let i = oid as usize;
    (
        i >> (BLOCK_BITS + SEG_BITS),
        (i >> SEG_BITS) & (BLOCK_LEN - 1),
        i & (SEG_LEN - 1),
    )
}

impl Table {
    pub(crate) fn new(id: TableId, name: impl Into<String>, engine_id: u64) -> Table {
        Table {
            id,
            name: name.into(),
            engine_id,
            root: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            trimmed_versions: AtomicU64::new(0),
            next_oid: CachePadded(AtomicU64::new(0)),
        }
    }

    pub fn id(&self) -> TableId {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn engine_id(&self) -> u64 {
        self.engine_id
    }

    /// Number of allocated OIDs (includes records whose versions may all
    /// be invisible).
    pub fn len(&self) -> usize {
        self.next_oid.0.load(Ordering::Acquire) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The record slot for `oid`, if its segment exists. A slot that has
    /// not been handed out yet (or was skipped by recovery) is an empty
    /// record and reads as absent.
    #[inline]
    pub fn record(&self, oid: Oid) -> Option<&Record> {
        if oid >= MAX_RECORDS {
            return None;
        }
        let (b, s, r) = split(oid);
        let slot = &self.root[b];
        let block = slot.load(Ordering::Acquire);
        if block.is_null() {
            return None;
        }
        // SAFETY: a non-null directory pointer was published by
        // `get_or_install` (Release) as a `BLOCK_LEN` slice that lives
        // until `Table::drop`; `s < BLOCK_LEN`.
        let slot = unsafe { &*block.add(s) };
        let segment = slot.load(Ordering::Acquire);
        if segment.is_null() {
            return None;
        }
        // SAFETY: likewise a `SEG_LEN` slice of records; `r < SEG_LEN`.
        Some(unsafe { &*segment.add(r) })
    }

    /// Every allocated record slot whose segment exists, in OID order
    /// (diagnostics and audits).
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        (0..self.len() as Oid).filter_map(|oid| self.record(oid))
    }

    /// The slot for `oid`, materializing its directory block and segment.
    fn materialize(&self, oid: Oid) -> &Record {
        assert!(oid < MAX_RECORDS, "table '{}' is full", self.name);
        let (b, s, r) = split(oid);
        let block = get_or_install(
            &self.root[b],
            BLOCK_LEN,
            || SegmentPtr::new(ptr::null_mut()),
        );
        // SAFETY: see `record`.
        let segment = get_or_install(unsafe { &*block.add(s) }, SEG_LEN, Record::new);
        // SAFETY: see `record`.
        unsafe { &*segment.add(r) }
    }

    /// Allocates a fresh record slot.
    pub(crate) fn create_record(&self) -> (Oid, &Record) {
        let oid = self.next_oid.0.fetch_add(1, Ordering::AcqRel);
        (oid, self.materialize(oid))
    }

    /// Recovery: materializes the record slot for `oid` and extends the
    /// OID range up to it, so the indirection array matches the pre-crash
    /// one (skipped OIDs read as absent).
    pub(crate) fn ensure_oid(&self, oid: Oid) -> &Record {
        let rec = self.materialize(oid);
        self.next_oid.0.fetch_max(oid + 1, Ordering::AcqRel);
        rec
    }

    /// Cumulative number of versions trimmed from this table's chains.
    pub fn trimmed_versions(&self) -> u64 {
        self.trimmed_versions.load(Ordering::Relaxed)
    }

    pub(crate) fn note_trimmed(&self, n: usize) {
        self.trimmed_versions.fetch_add(n as u64, Ordering::Relaxed);
    }
}

impl Drop for Table {
    fn drop(&mut self) {
        for slot in &self.root {
            let block = slot.load(Ordering::Relaxed);
            if block.is_null() {
                continue;
            }
            for s in 0..BLOCK_LEN {
                // SAFETY: `&mut self` — no other thread; see `record`.
                let slot = unsafe { &*block.add(s) };
                let segment = slot.load(Ordering::Relaxed);
                if !segment.is_null() {
                    // SAFETY: installed by `get_or_install(_, SEG_LEN, _)`;
                    // dropping the records frees their linked versions.
                    unsafe { free_slice(segment, SEG_LEN) };
                }
            }
            // SAFETY: installed by `get_or_install(_, BLOCK_LEN, _)`.
            unsafe { free_slice(block, BLOCK_LEN) };
        }
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("id", &self.id.0)
            .field("name", &self.name)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn table() -> Table {
        Table::new(TableId(0), "t", 0)
    }

    #[test]
    fn oids_are_dense_and_stable() {
        let t = table();
        let (o1, r1) = t.create_record();
        let (o2, r2) = t.create_record();
        assert_eq!((o1, o2), (0, 1));
        assert!(ptr::eq(t.record(0).unwrap(), r1));
        assert!(ptr::eq(t.record(1).unwrap(), r2));
        assert!(
            t.record(SEG_LEN as Oid).is_none(),
            "segment not materialized"
        );
        assert!(t.record(MAX_RECORDS).is_none());
        assert_eq!(t.len(), 2);
        assert_eq!(t.records().count(), 2);
    }

    #[test]
    fn segments_and_blocks_are_32_kib() {
        assert_eq!(SEG_LEN * std::mem::size_of::<Record>(), 32 << 10);
        assert_eq!(BLOCK_LEN * std::mem::size_of::<SegmentPtr>(), 32 << 10);
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// A burst of `create_record` calls.
        Create(usize),
        /// A recovery-style `ensure_oid` jump.
        Ensure(Oid),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Jumps land in the first few segments, or (less often: iterating
        // up to there is slow) either side of the first directory-block
        // edge.
        const EDGE: Oid = (BLOCK_LEN * SEG_LEN) as Oid;
        prop_oneof![
            (1usize..40).prop_map(Op::Create),
            (1usize..40).prop_map(Op::Create),
            (0..5 * SEG_LEN as Oid).prop_map(Op::Ensure),
            (0..5 * SEG_LEN as Oid).prop_map(Op::Ensure),
            (EDGE - 2..EDGE + 2).prop_map(Op::Ensure),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Against a model: after any mix of creates and jumps, `len` is
        /// one past the highest OID handed out, creates were dense from
        /// the then-current `len`, every slot handed out still resolves to
        /// the same address, a slot resolves iff its segment was touched
        /// (gaps read as absent), and `records()` visits exactly the
        /// resolvable slots below `len`.
        #[test]
        fn directory_matches_a_model(ops in prop::collection::vec(op(), 1..12)) {
            let t = table();
            let mut len: Oid = 0;
            let mut segments = BTreeSet::new();
            let mut handed_out = Vec::new();
            for op in ops {
                match op {
                    Op::Create(n) => {
                        for _ in 0..n {
                            let (oid, rec) = t.create_record();
                            prop_assert_eq!(oid, len, "creates are dense");
                            len += 1;
                            segments.insert(oid >> SEG_BITS);
                            handed_out.push((oid, rec as *const Record));
                        }
                    }
                    Op::Ensure(oid) => {
                        let rec = t.ensure_oid(oid) as *const Record;
                        len = len.max(oid + 1);
                        segments.insert(oid >> SEG_BITS);
                        handed_out.push((oid, rec));
                    }
                }
            }
            prop_assert_eq!(t.len() as Oid, len);
            for (oid, rec) in handed_out {
                prop_assert!(ptr::eq(t.record(oid).unwrap(), rec), "slot {} moved", oid);
            }
            for segment in 0..(len >> SEG_BITS) + 2 {
                let first = segment << SEG_BITS;
                prop_assert_eq!(t.record(first).is_some(), segments.contains(&segment));
            }
            let resolvable: Oid = segments
                .iter()
                .map(|s| ((s + 1) << SEG_BITS).min(len) - (s << SEG_BITS).min(len))
                .sum();
            prop_assert_eq!(t.records().count() as Oid, resolvable);
        }

        /// Racing creators get dense, unique OIDs, and each sees its slot
        /// at once through `record`.
        #[test]
        fn concurrent_creates_get_dense_unique_oids(threads in 2usize..5, each in 1usize..1500) {
            let t = table();
            let barrier = std::sync::Barrier::new(threads);
            let mut all: Vec<Oid> = std::thread::scope(|scope| {
                let creators: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            (0..each)
                                .map(|_| {
                                    let (oid, rec) = t.create_record();
                                    assert!(ptr::eq(t.record(oid).unwrap(), rec));
                                    oid
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                creators.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
            all.sort_unstable();
            prop_assert!(all.iter().copied().eq(0..(threads * each) as Oid), "dense, no duplicates");
            prop_assert_eq!(t.len(), threads * each);
        }
    }
}
