//! Multi-version records (paper §2.2, the ERMIA data model).
//!
//! Each record is an ordered new-to-old chain of versions, each tagged
//! with the global commit timestamp of the transaction that created it.
//! Readers traverse the chain with plain atomic loads: no latch, no
//! reference count, no write to shared memory — the property that makes
//! pausing a long reader harmless and preemption viable (§1.2). Writers
//! install a *pending* version at the head (first-updater-wins) and stamp
//! it with the commit timestamp at commit.
//!
//! A [`Version`] is one allocation: a fixed header followed by the
//! payload bytes. `head`/`next` are only *written* under the record's
//! write [`Latch`] (install, abort-unlink, trim), which also serializes
//! first-updater-wins checks and serializable validation. A version
//! that a writer unlinks may still be under a reader's feet, so it is
//! never freed in place: the writer hands the detached chain
//! ([`Detached`]) to the engine's [`crate::limbo::Limbo`], which frees
//! it once the active-transaction registry proves that every
//! transaction alive at unlink time has ended (DESIGN.md §2.2).

#[cfg_attr(loom, allow(unused_imports))]
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::{self, NonNull};
use std::sync::atomic::AtomicBool;

use crate::error::TxError;
use crate::latch::Latch;
use crate::sync::{AtomicPtr, AtomicU64, Ordering};

/// Object identifier: index into a table's indirection array.
pub type Oid = u64;

/// Global commit timestamp.
pub type Timestamp = u64;

/// High bit marks an uncommitted version; the low bits then hold the
/// writer's transaction id.
pub const PENDING_BIT: u64 = 1 << 63;

/// Set alongside [`PENDING_BIT`] by a committing writer on every version
/// it wrote, *before* it draws its commit timestamp. The timestamp is
/// public (a new snapshot may include it) from the moment it is drawn,
/// but the versions only carry it a few stores later; a reader that meets
/// a version in that window waits for the stamp instead of guessing. A
/// pending version without the mark is safe to skip: its writer draws its
/// timestamp after the reader saw it unmarked, hence after the reader
/// took its snapshot.
pub const COMMITTING_BIT: u64 = 1 << 62;

const FLAG_BITS: u64 = PENDING_BIT | COMMITTING_BIT;

/// `len` value marking a tombstone (the record was deleted).
const TOMBSTONE: u32 = u32::MAX;

/// Begin word of a freed version. Only `--cfg loom` builds write it (they
/// poison and leak instead of freeing, so a model can detect a read of
/// reclaimed memory without undefined behaviour).
#[cfg(loom)]
const FREED: u64 = u64::MAX;

/// Header of one version; the payload bytes follow it in the same
/// allocation.
#[repr(C)]
pub struct Version {
    /// Commit timestamp, or `PENDING_BIT | txid` while uncommitted.
    begin: AtomicU64,
    /// Next-older version. Written only under the record's write latch.
    next: AtomicPtr<Version>,
    /// Payload length in bytes, or [`TOMBSTONE`].
    len: u32,
}

const HEADER: usize = std::mem::size_of::<Version>();

impl Version {
    fn layout(len: u32) -> Layout {
        let bytes = if len == TOMBSTONE { 0 } else { len as usize };
        Layout::from_size_align(HEADER + bytes, std::mem::align_of::<Version>())
            .expect("version layout: header + u32 payload fits isize")
    }

    /// Allocates an unlinked pending version for `txid` holding a copy of
    /// `data` (`None` = tombstone).
    fn alloc_pending(txid: u64, data: Option<&[u8]>) -> NonNull<Version> {
        let len = match data {
            Some(d) => {
                assert!(d.len() < TOMBSTONE as usize, "payload too large");
                d.len() as u32
            }
            None => TOMBSTONE,
        };
        let layout = Self::layout(len);
        // SAFETY: `layout` has non-zero size (the header).
        let raw = unsafe { alloc(layout) }.cast::<Version>();
        let Some(v) = NonNull::new(raw) else {
            handle_alloc_error(layout)
        };
        // SAFETY: `raw` is a fresh allocation of `layout`, exclusively
        // ours: the header write and the payload copy stay inside it.
        unsafe {
            raw.write(Version {
                begin: AtomicU64::new(PENDING_BIT | txid),
                next: AtomicPtr::new(ptr::null_mut()),
                len,
            });
            if let Some(d) = data {
                ptr::copy_nonoverlapping(d.as_ptr(), raw.cast::<u8>().add(HEADER), d.len());
            }
        }
        v
    }

    /// Frees one version.
    ///
    /// # Safety
    /// `v` came from [`Version::alloc_pending`], is unreachable from any
    /// record, and no thread can still hold a pointer to it.
    unsafe fn free(v: *mut Version) {
        // SAFETY: per the contract `v` is a live, exclusively owned
        // allocation whose layout is a function of its `len`.
        #[cfg(not(loom))]
        unsafe {
            dealloc(v.cast::<u8>(), Self::layout((*v).len));
        }
        // SAFETY: as above; the model build poisons the header and payload
        // and leaks, so a racing reader trips an assertion instead of UB.
        #[cfg(loom)]
        unsafe {
            if let Some(d) = Self::payload(v) {
                ptr::write_bytes(v.cast::<u8>().add(HEADER), 0xDD, d.len());
            }
            (*v).begin.store(FREED, Ordering::SeqCst);
        }
    }

    /// Frees up to `count` versions from `v` along `next`, stopping early
    /// at the end of the chain.
    ///
    /// # Safety
    /// As for [`Version::free`], for each of those versions.
    unsafe fn free_chain(mut v: *mut Version, count: usize) {
        for _ in 0..count {
            if v.is_null() {
                break;
            }
            // SAFETY: forwarded from this fn's contract.
            unsafe {
                let next = (*v).next.load(Ordering::Relaxed);
                Version::free(v);
                v = next;
            }
        }
    }

    /// Payload bytes of `v` (`None` for tombstones).
    ///
    /// # Safety
    /// `v` points at a live version carrying the provenance of its whole
    /// allocation, and stays live for `'a`.
    unsafe fn payload<'a>(v: *const Version) -> Option<&'a [u8]> {
        // SAFETY: forwarded from this fn's contract; `len` bytes follow
        // the header in the same allocation and are immutable.
        unsafe {
            let len = (*v).len;
            (len != TOMBSTONE)
                .then(|| std::slice::from_raw_parts(v.cast::<u8>().add(HEADER), len as usize))
        }
    }

    /// Raw begin word (timestamp or pending marker).
    #[inline]
    pub fn begin_word(&self) -> u64 {
        let w = self.begin.load(Ordering::Acquire);
        #[cfg(loom)]
        assert_ne!(w, FREED, "read of a freed version");
        w
    }

    /// Commit timestamp, if committed.
    #[inline]
    pub fn commit_ts(&self) -> Option<Timestamp> {
        let w = self.begin_word();
        (w & PENDING_BIT == 0).then_some(w)
    }

    /// The uncommitted writer's txid, if pending.
    #[inline]
    pub fn pending_txid(&self) -> Option<u64> {
        let w = self.begin_word();
        (w & PENDING_BIT != 0).then_some(w & !FLAG_BITS)
    }

    /// The begin word once it can be compared with a snapshot: waits out
    /// the few stores between a committing writer's timestamp draw and its
    /// stamp (see [`COMMITTING_BIT`]). The writer is inside a
    /// non-preemptible region for that stretch, so this never waits on a
    /// context parked on the caller's own thread.
    #[inline]
    fn settled_word(&self) -> u64 {
        let mut w = self.begin_word();
        while w & FLAG_BITS == FLAG_BITS {
            crate::sync::spin_wait();
            w = self.begin_word();
        }
        w
    }

    /// Announces that `txid` is about to draw its commit timestamp (called
    /// by the owning transaction on all its versions, after validation).
    pub(crate) fn mark_committing(&self, txid: u64) {
        debug_assert_eq!(self.begin_word(), PENDING_BIT | txid, "not ours, or marked twice");
        // Release is enough on this side: the `SeqCst` timestamp draw that
        // follows orders the mark before it for every snapshot that
        // includes the timestamp.
        self.begin.store(FLAG_BITS | txid, Ordering::Release);
    }

    /// Stamps the version with its commit timestamp (called by the owning
    /// transaction at commit; needs no latch).
    pub(crate) fn stamp(&self, ts: Timestamp) {
        debug_assert!(ts & PENDING_BIT == 0);
        debug_assert!(self.begin_word() & PENDING_BIT != 0, "double stamp");
        self.begin.store(ts, Ordering::Release);
    }
}

impl std::fmt::Debug for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let w = self.begin_word();
        if w & PENDING_BIT != 0 {
            write!(f, "Version(pending txid={})", w & !FLAG_BITS)
        } else {
            write!(f, "Version(ts={w})")
        }
    }
}

/// A version not yet linked into any chain: freed on drop (write
/// conflict, or a panic injected while the latch is held), forgotten
/// once published.
struct Unpublished(NonNull<Version>);

impl Drop for Unpublished {
    fn drop(&mut self) {
        // SAFETY: never published, so exclusively ours.
        unsafe { Version::free(self.0.as_ptr()) };
    }
}

/// A row as a transaction reads it: the visible version's payload,
/// borrowed in place (no copy, no reference count). Dereferences to
/// `[u8]`. A type of its own rather than a bare slice so that callers
/// written against the old owned payload (`row.as_ref()`) stay as they
/// are and lint-clean.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row<'a>(pub(crate) &'a [u8]);

impl std::ops::Deref for Row<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.0
    }
}

impl AsRef<[u8]> for Row<'_> {
    fn as_ref(&self) -> &[u8] {
        self.0
    }
}

/// Outcome of a visibility search.
#[derive(Debug)]
pub struct VisibleRead<'a> {
    /// The visible payload; `None` if the record does not exist in the
    /// snapshot (never inserted, or tombstoned).
    pub data: Option<&'a [u8]>,
    /// Commit timestamp of the visible version (0 for own pending writes
    /// and non-existent records). Used by serializable validation.
    pub observed_ts: Timestamp,
    /// Version-chain hops performed (for cost accounting).
    pub hops: u64,
}

/// A run of versions a writer has unlinked from a record: `count`
/// versions starting at `first`, following `next`. Readers that were
/// already inside the run may still be walking it, so the only thing to
/// do with it is [`crate::limbo::Limbo::retire`].
#[must_use = "a detached run leaks unless it is retired to the limbo"]
pub struct Detached {
    first: NonNull<Version>,
    count: usize,
}

// SAFETY: a `Detached` is the unique owner of its unlinked versions (the
// unlinking writer gave up the only chain reference); readers only ever
// load from them.
unsafe impl Send for Detached {}

impl Detached {
    /// Number of versions in the run.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Frees the run.
    ///
    /// # Safety
    /// No thread can still hold a pointer into the run: every transaction
    /// that was registered when it was unlinked has ended.
    pub(crate) unsafe fn free(self) {
        // SAFETY: the run's `next` links are frozen at unlink time (only
        // latch holders write `next`, and the run is off the chain), so
        // `count` hops stay inside it; exclusivity is the caller's
        // contract.
        unsafe { Version::free_chain(self.first.as_ptr(), self.count) };
    }
}

/// A record: one indirection-array slot holding the latch that serializes
/// writers, whether its OID has been handed out, and the head of the
/// version chain. Sized so that records never straddle a cache line and a
/// segment of 1024 is exactly 32 KiB.
#[repr(align(32))]
pub struct Record {
    latch: Latch,
    /// Set once when the table hands this slot's OID out (or recovery
    /// replays into it). A slot reserved in some thread's OID block but
    /// not handed out yet is not writable.
    issued: AtomicBool,
    head: AtomicPtr<Version>,
}

impl Record {
    pub fn new() -> Record {
        Record {
            latch: Latch::new(),
            issued: AtomicBool::new(false),
            head: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Whether this slot's OID has been handed out.
    #[inline]
    pub(crate) fn is_issued(&self) -> bool {
        // Acquire: pairs with `mark_issued`, although whoever learned the
        // OID learned it through a publication of its own.
        self.issued.load(Ordering::Acquire)
    }

    pub(crate) fn mark_issued(&self) {
        self.issued.store(true, Ordering::Release);
    }

    /// The record-head latch; serializable validation latches read-set
    /// records in address order through this (paper §4.4).
    pub fn latch(&self) -> &Latch {
        &self.latch
    }

    /// Finds the version visible to a reader.
    ///
    /// * `snapshot_ts` — the reader's snapshot (`u64::MAX` for
    ///   read-committed, which takes the newest committed version).
    /// * `txid` — the reader's transaction id, so it sees its own
    ///   uncommitted writes.
    ///
    /// A walk of atomic loads: no latch, no reference count, nothing
    /// written — the optimistic read the whole paper builds on. `head`
    /// and `next` are loaded `SeqCst` (a plain load on x86-64, `ldar` on
    /// aarch64, same as `Acquire`): the reclamation argument needs a
    /// reader that registered after an unlink to see the unlinked
    /// pointer, which takes a total order over the unlink store, the
    /// registry scan, the reader's registration and this load.
    ///
    /// # Safety
    /// The caller is registered in the owning engine's
    /// [`crate::registry::ActiveTxns`] (or otherwise excludes reclamation
    /// on this record) from before the call until it last uses the
    /// returned borrow, whose lifetime is the caller's to choose.
    pub unsafe fn visible<'a>(&self, snapshot_ts: Timestamp, txid: u64) -> VisibleRead<'a> {
        let mut hops = 0u64;
        let mut cursor = self.head.load(Ordering::SeqCst);
        // SAFETY (both derefs): a version reached from `head` by `next`
        // links was linked when the pointer was loaded; if it has been
        // unlinked since, the limbo keeps it allocated while the caller
        // stays registered (this fn's contract).
        while let Some(v) = unsafe { cursor.as_ref() } {
            let w = v.settled_word();
            let observed_ts = if w & PENDING_BIT != 0 {
                // Read-your-own-writes; others' pending versions are skipped.
                (w & !PENDING_BIT == txid).then_some(0)
            } else {
                (w <= snapshot_ts).then_some(w)
            };
            if let Some(observed_ts) = observed_ts {
                return VisibleRead {
                    // SAFETY: as above; chain pointers carry whole-
                    // allocation provenance.
                    data: unsafe { Version::payload(cursor) },
                    observed_ts,
                    hops,
                };
            }
            hops += 1;
            cursor = v.next.load(Ordering::SeqCst);
        }
        VisibleRead {
            data: None,
            observed_ts: 0,
            hops,
        }
    }

    /// Newest committed timestamp on the chain (0 if none), counting a
    /// version whose writer is drawing its timestamp right now as newer
    /// than any snapshot. Used by serializable validation.
    ///
    /// # Safety
    /// As for [`Record::visible`].
    pub unsafe fn newest_committed_ts(&self) -> Timestamp {
        let mut cursor = self.head.load(Ordering::SeqCst);
        // SAFETY: see `visible`.
        while let Some(v) = unsafe { cursor.as_ref() } {
            let w = v.begin_word();
            if w & PENDING_BIT == 0 {
                return w;
            }
            if w & COMMITTING_BIT != 0 {
                return Timestamp::MAX;
            }
            cursor = v.next.load(Ordering::SeqCst);
        }
        0
    }

    /// Installs a pending version for `txid` (update/insert/delete all
    /// flow through here; `data = None` is a delete).
    ///
    /// Conflict rules at the head:
    /// * pending by another transaction → [`TxError::WriteConflict`]
    ///   (first-updater-wins);
    /// * committed after `snapshot_ts` and `si_writes` → conflict
    ///   (snapshot-isolation first-committer-wins); read-committed passes
    ///   `si_writes = false` and may overwrite any committed version.
    ///
    /// The caller must be inside a non-preemptible region (§4.4); debug
    /// builds assert it. The returned version stays linked, and therefore
    /// valid, until its owner stamps it or unlinks it.
    pub(crate) fn install(
        &self,
        txid: u64,
        snapshot_ts: Timestamp,
        si_writes: bool,
        data: Option<&[u8]>,
    ) -> Result<&Version, TxError> {
        debug_assert!(
            preempt_context::tcb::with_current(|t| t.is_nonpreemptible()),
            "Record::install outside a non-preemptible region"
        );
        // Allocate and copy before latching: the latch covers only the
        // conflict check and two stores.
        let new = Unpublished(Version::alloc_pending(txid, data));
        let _g = self.latch.write();
        let head = self.head.load(Ordering::Relaxed);
        // SAFETY: under the write latch nothing unlinks, so whatever
        // `head` points at stays linked and allocated.
        if let Some(h) = unsafe { head.as_ref() } {
            let w = h.begin_word();
            // Our own pending version may be stacked upon (newest wins).
            let conflict = if w & PENDING_BIT != 0 {
                w & !FLAG_BITS != txid
            } else {
                si_writes && w > snapshot_ts
            };
            if conflict {
                return Err(TxError::WriteConflict);
            }
        }
        // SAFETY: `new` is still exclusively ours until the head store.
        let v = unsafe { new.0.as_ref() };
        v.next.store(head, Ordering::Relaxed);
        // Release publishes the header, payload and `next` to readers.
        self.head.store(new.0.as_ptr(), Ordering::Release);
        std::mem::forget(new);
        Ok(v)
    }

    /// Unlinks `txid`'s pending versions from the head of the chain
    /// (the abort path). The caller must be inside a
    /// non-preemptible region.
    pub(crate) fn unlink_pending(&self, txid: u64) -> Option<Detached> {
        let _g = self.latch.write();
        let first = self.head.load(Ordering::Relaxed);
        let (mut cursor, mut count) = (first, 0);
        // SAFETY: under the write latch the chain is frozen and linked.
        while let Some(v) = unsafe { cursor.as_ref() } {
            if v.pending_txid() != Some(txid) {
                break;
            }
            count += 1;
            cursor = v.next.load(Ordering::Relaxed);
        }
        let first = NonNull::new(first).filter(|_| count > 0)?;
        // The run keeps its `next` links: a reader paused on one of its
        // versions walks on into the live chain. SeqCst: see `visible`.
        self.head.store(cursor, Ordering::SeqCst);
        Some(Detached { first, count })
    }

    /// Unlinks the versions no active snapshot can see: keeps everything
    /// newer than `watermark` plus the first committed version at/below
    /// it, and detaches the rest.
    pub(crate) fn trim(&self, watermark: Timestamp) -> Option<Detached> {
        let _g = self.latch.write();
        let mut cursor = self.head.load(Ordering::Relaxed);
        // SAFETY: under the write latch the chain is frozen and linked.
        while let Some(v) = unsafe { cursor.as_ref() } {
            let next = v.next.load(Ordering::Relaxed);
            if v.commit_ts().is_some_and(|ts| ts <= watermark) {
                // `v` is the horizon version: everything older is
                // invisible to all current and future snapshots.
                let first = NonNull::new(next)?;
                v.next.store(ptr::null_mut(), Ordering::SeqCst);
                let mut count = 0;
                let mut tail = next;
                // SAFETY: the tail was linked until the store above and
                // only this latch holder could have unlinked it.
                while let Some(t) = unsafe { tail.as_ref() } {
                    count += 1;
                    tail = t.next.load(Ordering::Relaxed);
                }
                return Some(Detached { first, count });
            }
            cursor = next;
        }
        None
    }

    /// Number of versions currently linked (diagnostics/tests). Takes the
    /// write latch, under which nothing can be unlinked, so it needs no
    /// registration.
    pub fn chain_len(&self) -> usize {
        let _g = self.latch.write();
        let mut n = 0;
        let mut cursor = self.head.load(Ordering::Relaxed);
        // SAFETY: under the write latch the chain is frozen and linked.
        while let Some(v) = unsafe { cursor.as_ref() } {
            n += 1;
            cursor = v.next.load(Ordering::Relaxed);
        }
        n
    }
}

impl Default for Record {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Record {
    fn drop(&mut self) {
        // SAFETY: `&mut self` excludes every reader and writer, and
        // linked versions are owned by the chain (unlinked ones by the
        // limbo, never both).
        unsafe { Version::free_chain(self.head.load(Ordering::Relaxed), usize::MAX) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preempt_context::nonpreempt::NonPreemptGuard;

    fn install<'r>(r: &'r Record, txid: u64, snap: u64, data: &[u8]) -> Result<&'r Version, TxError> {
        let _np = NonPreemptGuard::enter();
        r.install(txid, snap, true, Some(data))
    }

    /// Nothing in these tests frees a version while a borrow is live.
    fn read(r: &Record, snap: u64, txid: u64) -> VisibleRead<'_> {
        // SAFETY: detached runs are only freed at the end of a test.
        unsafe { r.visible(snap, txid) }
    }

    fn free(d: Option<Detached>) -> usize {
        d.map_or(0, |d| {
            let n = d.count();
            // SAFETY: no reader is running when the tests call this.
            unsafe { d.free() };
            n
        })
    }

    #[test]
    fn record_fills_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<Record>(), 32);
        assert_eq!(HEADER, 24);
    }

    #[test]
    fn empty_record_is_invisible() {
        let r = Record::new();
        let vis = read(&r, 100, 1);
        assert!(vis.data.is_none());
        assert_eq!(vis.hops, 0);
    }

    #[test]
    fn pending_version_visible_only_to_owner() {
        let r = Record::new();
        let v = install(&r, 7, 0, b"x").unwrap();
        assert!(read(&r, u64::MAX, 7).data.is_some(), "owner sees it");
        assert!(read(&r, u64::MAX, 8).data.is_none(), "others do not");
        v.stamp(5);
        assert!(read(&r, u64::MAX, 8).data.is_some(), "committed: visible");
    }

    #[test]
    fn snapshot_reads_pick_correct_version() {
        let r = Record::new();
        install(&r, 1, 0, b"v1").unwrap().stamp(10);
        install(&r, 2, 10, b"v2").unwrap().stamp(20);
        install(&r, 3, 20, b"v3").unwrap().stamp(30);

        let at = |snap: u64| read(&r, snap, 999).data;
        assert_eq!(at(5), None, "before first commit");
        assert_eq!(at(10), Some(b"v1".as_ref()));
        assert_eq!(at(25), Some(b"v2".as_ref()));
        assert_eq!(at(u64::MAX), Some(b"v3".as_ref()));
        assert_eq!(read(&r, 10, 999).hops, 2);
    }

    #[test]
    fn write_write_conflict_first_updater_wins() {
        let r = Record::new();
        let _v = install(&r, 1, 0, b"a").unwrap();
        let err = install(&r, 2, 0, b"b").unwrap_err();
        assert_eq!(err, TxError::WriteConflict);
    }

    #[test]
    fn si_conflict_on_newer_committed_version() {
        let r = Record::new();
        install(&r, 1, 0, b"a").unwrap().stamp(50);
        // Tx with snapshot 40 cannot overwrite a version committed at 50.
        let err = install(&r, 2, 40, b"b").unwrap_err();
        assert_eq!(err, TxError::WriteConflict);
        // But a read-committed writer can.
        let _np = NonPreemptGuard::enter();
        assert!(r.install(3, 40, false, Some(b"c")).is_ok());
    }

    #[test]
    fn unlink_pending_restores_previous_head() {
        let r = Record::new();
        install(&r, 1, 0, b"committed").unwrap().stamp(10);
        install(&r, 2, 10, b"dirty").unwrap();
        assert_eq!(r.chain_len(), 2);
        let detached = {
            let _np = NonPreemptGuard::enter();
            r.unlink_pending(2)
        };
        assert_eq!(r.chain_len(), 1);
        assert_eq!(read(&r, u64::MAX, 99).data.unwrap(), b"committed");
        assert_eq!(free(detached), 1);
    }

    #[test]
    fn tombstone_reads_as_absent() {
        let r = Record::new();
        install(&r, 1, 0, b"x").unwrap().stamp(10);
        {
            let _np = NonPreemptGuard::enter();
            r.install(2, 10, true, None).unwrap().stamp(20);
        }
        assert!(read(&r, 15, 99).data.is_some(), "old snapshot still sees");
        assert!(read(&r, 25, 99).data.is_none(), "new snapshot sees delete");
    }

    #[test]
    fn trim_detaches_invisible_tail() {
        let r = Record::new();
        for (i, ts) in [(1u64, 10u64), (2, 20), (3, 30), (4, 40)] {
            install(&r, i, ts.saturating_sub(10), b"v").unwrap().stamp(ts);
        }
        assert_eq!(r.chain_len(), 4);
        // Watermark 25: keep 40, 30, and the horizon version 20.
        let detached = r.trim(25);
        assert_eq!(r.chain_len(), 3);
        // A snapshot at 25 still reads correctly.
        assert!(read(&r, 25, 99).data.is_some());
        // Everything visible at watermark stays intact.
        // SAFETY: nothing is freed concurrently.
        assert_eq!(unsafe { r.newest_committed_ts() }, 40);
        assert_eq!(free(detached), 1);
        assert!(r.trim(25).is_none(), "nothing left below the horizon");
    }

    #[test]
    fn own_double_update_stacks_and_newest_wins() {
        let r = Record::new();
        install(&r, 1, 0, b"first").unwrap();
        install(&r, 1, 0, b"second").unwrap();
        assert_eq!(read(&r, u64::MAX, 1).data.unwrap(), b"second");
        let detached = {
            let _np = NonPreemptGuard::enter();
            r.unlink_pending(1)
        };
        assert_eq!(r.chain_len(), 0, "abort removes both pendings");
        assert_eq!(free(detached), 2);
    }

    #[test]
    fn a_reader_paused_on_an_unlinked_version_walks_on() {
        let r = Record::new();
        install(&r, 1, 0, b"base").unwrap().stamp(10);
        let doomed = install(&r, 2, 10, b"dirty").unwrap();
        let detached = {
            let _np = NonPreemptGuard::enter();
            r.unlink_pending(2)
        };
        // The unlinked version still leads into the live chain.
        let next = doomed.next.load(Ordering::SeqCst);
        // SAFETY: `base` is linked and nothing is freed yet.
        assert_eq!(unsafe { (*next).commit_ts() }, Some(10));
        assert_eq!(free(detached), 1);
    }

    #[test]
    fn concurrent_readers_while_writer_installs() {
        // Readers never block and never write; writers get brief
        // exclusive windows. Smoke test with real threads (no unlinks, so
        // nothing to reclaim).
        let r = std::sync::Arc::new(Record::new());
        install(&r, 1, 0, b"base").unwrap().stamp(1);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5000 {
                    assert!(read(&r, u64::MAX, 0).data.is_some());
                }
            }));
        }
        for i in 0..100u64 {
            let _np = NonPreemptGuard::enter();
            let v = r.install(100 + i, i + 1, true, Some(b"newer")).unwrap();
            v.stamp(i + 2);
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn trim_with_concurrent_readers() {
        let r = std::sync::Arc::new(Record::new());
        for i in 1..=50u64 {
            install(&r, i, i.saturating_sub(1), b"v").unwrap().stamp(i);
        }
        let mut handles = Vec::new();
        for _ in 0..2 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for snap in (30..=50u64).cycle().take(2000) {
                    assert!(read(&r, snap, 0).data.is_some());
                }
            }));
        }
        // Detached tails are held (the limbo's job) until readers finish.
        let detached: Vec<_> = [10u64, 20, 30].into_iter().map(|wm| r.trim(wm)).collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(r.chain_len() <= 21);
        assert_eq!(detached.into_iter().map(free).sum::<usize>(), 29);
    }
}
