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
//!
//! OIDs are handed out ERMIA-style from per-thread blocks: a thread
//! reserves [`OID_BLOCK`] OIDs with one `fetch_add` on the table's
//! reservation bound and then hands them out with plain stores to a word
//! only it writes, so two inserting threads write no common cache line,
//! and each thread's records sit together. A single thread still gets
//! `0, 1, 2, …`.

use std::ptr;

use crate::sync::{owner_slot, AtomicPtr, AtomicU64, CachePadded, Ordering, OWNER_SLOTS};
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

/// OIDs a thread reserves per visit to the table's shared bound.
pub const OID_BLOCK: u64 = 64;

type SegmentPtr = AtomicPtr<Record>;

/// An in-memory table: a lazily grown indirection array of records.
///
/// Laid out by writer: the words every access reads (`engine_id`, the
/// directory `root`) share no cache line with the shared words inserts
/// and trims write (`reserved`, `trimmed_versions`), nor with the OID
/// blocks, each of which has a line of its own.
pub struct Table {
    id: TableId,
    name: String,
    /// The engine whose registry guards this table's versions.
    engine_id: u64,
    root: [AtomicPtr<SegmentPtr>; ROOT_LEN],
    /// The OID reservation bound: every OID below it has been handed out,
    /// skipped by recovery, or is waiting in some thread's block. Bumped
    /// once per block.
    reserved: CachePadded<AtomicU64>,
    /// Versions unlinked by GC trims on this table.
    trimmed_versions: CachePadded<AtomicU64>,
    /// Each owner slot's OID block, `[next, end)` packed as
    /// `end << 32 | next`, written only by the slot's owner.
    blocks: [CachePadded<AtomicU64>; OWNER_SLOTS],
}

fn pack(next: Oid, end: Oid) -> u64 {
    end << 32 | next
}

fn unpack(block: u64) -> (Oid, Oid) {
    (block & u32::MAX as u64, block >> 32)
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
            reserved: CachePadded(AtomicU64::new(0)),
            trimmed_versions: CachePadded(AtomicU64::new(0)),
            blocks: std::array::from_fn(|_| CachePadded(AtomicU64::new(0))),
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

    /// Number of OIDs handed out (includes records whose versions may all
    /// be invisible, and OIDs recovery skipped). Exact while no insert
    /// runs; during inserts, at least the OIDs handed out before the call
    /// and at most the reservation bound.
    pub fn len(&self) -> usize {
        let waiting: Oid = self.waiting().map(|(next, end)| end - next).sum();
        // Read after the blocks: a block seen was reserved before it was
        // published (Release), so the bound covers it.
        (self.reserved.load(Ordering::Relaxed) - waiting) as usize
    }

    /// The live OID blocks, `[next, end)`, not yet handed out.
    fn waiting(&self) -> impl Iterator<Item = (Oid, Oid)> + '_ {
        self.blocks
            .iter()
            .map(|block| unpack(block.load(Ordering::Acquire)))
            .filter(|(next, end)| next < end)
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

    /// Every OID below the reservation bound that no block is still
    /// waiting to hand out, in order: the OIDs handed out, and those
    /// recovery skipped (recovery's scans and audits).
    pub fn oids(&self) -> impl Iterator<Item = Oid> {
        let mut waiting = [(0, 0); OWNER_SLOTS];
        for (w, block) in waiting.iter_mut().zip(self.waiting()) {
            *w = block;
        }
        let bound = self.reserved.load(Ordering::Relaxed);
        let waits = move |oid: &Oid| {
            waiting
                .iter()
                .any(|(next, end)| (*next..*end).contains(oid))
        };
        (0..bound).filter(move |oid| !waits(oid))
    }

    /// The slots of [`oids`](Self::oids) whose segment exists, in OID
    /// order (diagnostics and audits).
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.oids().filter_map(|oid| self.record(oid))
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

    /// Hands out a fresh record slot: the next OID of the calling
    /// thread's block, reserving a new block when it runs out. Without an
    /// owner slot, one OID straight from the bound.
    pub(crate) fn create_record(&self) -> (Oid, &Record) {
        let oid = match owner_slot() {
            Some(slot) => {
                // Only this thread writes the block, and no preemption
                // point falls in here, so contexts sharing the thread
                // cannot interleave.
                let block = &self.blocks[slot];
                let (mut next, mut end) = unpack(block.load(Ordering::Relaxed));
                if next == end {
                    next = self.reserved.fetch_add(OID_BLOCK, Ordering::Relaxed);
                    end = next + OID_BLOCK;
                }
                // Release: a reader of this block also sees the bound
                // that covers it (see `len`).
                block.store(pack(next + 1, end), Ordering::Release);
                next
            }
            None => self.reserved.fetch_add(1, Ordering::Relaxed),
        };
        let rec = self.materialize(oid);
        rec.mark_issued();
        (oid, rec)
    }

    /// Recovery: materializes the record slot for `oid` and extends the
    /// OID range up to it, so the indirection array matches the pre-crash
    /// one (skipped OIDs read as absent). The calling thread's block
    /// moves past `oid`. No other thread may have inserted into the table.
    pub(crate) fn ensure_oid(&self, oid: Oid) -> &Record {
        let rec = self.materialize(oid);
        rec.mark_issued();
        self.reserved.fetch_max(oid + 1, Ordering::Relaxed);
        let mine = owner_slot();
        if let Some(block) = mine.map(|slot| &self.blocks[slot]) {
            let (next, end) = unpack(block.load(Ordering::Relaxed));
            if next <= oid {
                block.store(pack((oid + 1).min(end), end), Ordering::Release);
            }
        }
        debug_assert!(
            (0..OWNER_SLOTS)
                .filter(|&slot| Some(slot) != mine)
                .all(|slot| {
                    let (next, end) = unpack(self.blocks[slot].load(Ordering::Acquire));
                    !(next..end).contains(&oid)
                }),
            "recovery into table '{}' collides with another thread's OID block",
            self.name
        );
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

    /// Laid out by writer: no word every access reads shares a cache
    /// line with a word inserts or trims write.
    #[test]
    fn shared_state_is_grouped_by_writer() {
        use std::collections::BTreeSet;
        use std::mem::{align_of, offset_of};
        assert_eq!(align_of::<Table>(), 64);
        let t = table();
        macro_rules! lines {
            ($($f:ident),*) => {{
                let mut lines = BTreeSet::new();
                $(
                    let (at, len) = (offset_of!(Table, $f), std::mem::size_of_val(&t.$f));
                    lines.extend(at / 64..=(at + len - 1) / 64);
                )*
                lines
            }};
        }
        let read = lines!(engine_id, root);
        let written = lines!(reserved, trimmed_versions, blocks);
        assert!(
            read.is_disjoint(&written),
            "read {read:?}, written {written:?}"
        );
        // Each owner's block, and each shared counter, is a line of its own.
        assert_eq!(std::mem::size_of_val(&t.blocks[0]), 64);
        assert_eq!(std::mem::size_of_val(&t.reserved), 64);
        assert_eq!(std::mem::size_of_val(&t.trimmed_versions), 64);
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

        /// Racing creators get unique OIDs, and each sees its slot at once
        /// through `record`; `len` and `records` count every one.
        #[test]
        fn concurrent_creates_get_unique_oids(threads in 2usize..5, each in 1usize..1500) {
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
            all.dedup();
            prop_assert_eq!(all.len(), threads * each, "no duplicates");
            prop_assert!(t.oids().eq(all.iter().copied()));
            prop_assert_eq!(t.records().count(), threads * each);
            prop_assert_eq!(t.len(), threads * each);
        }
    }
}
