//! Key → OID indexes: a sharded hash index for point access and an
//! ordered index (a B+-tree) for range scans.
//!
//! Both are built on one idea, optimistic version-validated reads. Every
//! tree node and every hash shard carries an [`OptLatch`]: a version word
//! whose counter moves on every modification. A reader takes no latch: it
//! notes the version, reads what it needs with plain atomic loads, and
//! checks that the version is still the one it noted; if not, it starts
//! over. Only a *writer* latches — a tree `insert`/`remove` the one or two
//! nodes it changes, a hash `insert`/`remove` its shard — so only index
//! writes remain among the paper's non-preemptible "index APIs" (§4.4):
//! they run inside a [`NonPreemptGuard`], because a context preempted
//! while holding a node would leave its sibling on the same worker
//! spinning on it for ever. `get` and `range_scan` hold nothing, may be
//! preempted anywhere, and enter no region.
//!
//! A range scan is preemptible at record granularity, which is what keeps
//! a multi-millisecond TPC-H Q2 scan interruptible: it copies one leaf's
//! in-range entries to the stack, validates the leaf, and then runs the
//! callbacks — one preemption point per entry — with nothing held, before
//! descending again for the next leaf. Across a concurrent split (or any
//! other change) it therefore observes each leaf either wholly before or
//! wholly after the change, never half of one: keys come strictly
//! ascending, no key twice, and every key present for the whole scan is
//! seen exactly once. A key inserted or removed while the scan runs may
//! or may not be seen, like under any ERMIA scan; MVCC visibility, not the
//! index, decides what the transaction reads.
//!
//! Nothing is freed while an index lives (DESIGN.md §2.3): a reader may
//! stand on a node or a hash array long after it left the structure, and
//! there is no reader registration to wait for. Drained leaves are
//! unlinked and retired but stay allocated, superseded hash arrays stay
//! chained behind their successors, and `Drop` frees it all.

use std::ptr;

use preempt_context::nonpreempt::NonPreemptGuard;
use preempt_context::runtime::preempt_point;

use crate::costs;
use crate::latch::BoundedSpin;
use crate::sync::Ordering::{Acquire, Relaxed, Release};
use crate::sync::{fence, AtomicPtr, AtomicU64, AtomicUsize, CachePadded};
use crate::version::Oid;

/// How a scan callback steers the scan.
pub use std::ops::ControlFlow;

// ── The optimistic latch ─────────────────────────────────────────────

/// Set in a version while a writer holds the latch.
const LOCKED: u64 = 1;
/// One modification.
const STEP: u64 = 2;

/// A version word readers validate against and writers latch.
///
/// A writer sets `LOCKED` (acquire, then a release fence before its first
/// store), modifies with relaxed stores, and unlocks by storing the next
/// version (release). A reader loads an unlocked version (acquire), reads
/// with relaxed loads, then fences (acquire) and reloads the version: if
/// it is unchanged, none of the writer's stores can have been among what
/// it read.
struct OptLatch {
    version: AtomicU64,
}

impl OptLatch {
    fn new() -> OptLatch {
        OptLatch {
            version: AtomicU64::new(0),
        }
    }

    /// The current version, once no writer holds the latch. The wait is
    /// bounded (see [`BoundedSpin`]).
    #[inline]
    fn snapshot(&self) -> u64 {
        let mut v = self.version.load(Acquire);
        if v & LOCKED != 0 {
            let mut wait = BoundedSpin::new();
            while v & LOCKED != 0 {
                wait.turn();
                v = self.version.load(Acquire);
            }
        }
        v
    }

    /// Whether nothing was modified since `snapshot` returned `v`.
    #[inline]
    fn validate(&self, v: u64) -> bool {
        fence(Acquire);
        self.version.load(Relaxed) == v
    }

    /// Latches for writing if the version is still `v`; never waits.
    #[inline]
    fn upgrade(&self, v: u64) -> Option<WriteGuard<'_>> {
        self.version
            .compare_exchange(v, v | LOCKED, Acquire, Relaxed)
            .ok()?;
        fence(Release);
        Some(WriteGuard {
            latch: self,
            unlock_to: v,
        })
    }

    /// Latches for writing, waiting (bounded) for the current holder.
    fn write(&self) -> WriteGuard<'_> {
        let mut wait = BoundedSpin::new();
        loop {
            let v = self.version.load(Relaxed);
            if v & LOCKED == 0 {
                if let Some(guard) = self.upgrade(v) {
                    return guard;
                }
            }
            wait.turn();
        }
    }
}

/// A held write latch; released on drop, so also on unwind. Unlocks to
/// the version it was taken at unless the holder declared a change.
struct WriteGuard<'a> {
    latch: &'a OptLatch,
    unlock_to: u64,
}

impl WriteGuard<'_> {
    /// Declares a modification (before making it): readers that overlap
    /// the hold will fail validation.
    #[inline]
    fn dirty(&mut self) {
        self.unlock_to += STEP;
    }
}

impl Drop for WriteGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.latch.version.store(self.unlock_to, Release);
    }
}

// ── Hash index ───────────────────────────────────────────────────────

pub(crate) const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

/// Slots in a shard's first array (a power of two).
const MIN_SLOTS_BITS: u32 = if cfg!(loom) { 1 } else { 4 };

/// The OID of a vacant slot, which is why no entry may map to it.
const VACANT: Oid = Oid::MAX;

/// Fibonacci hashing: the high bits of the product depend on every bit
/// of the key, and consecutive keys land far apart.
#[inline]
pub(crate) fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

struct Slot {
    key: AtomicU64,
    oid: AtomicU64,
}

/// One open-addressed, linearly probed array of a shard.
struct SlotArray {
    /// `slots.len() == 1 << bits`.
    bits: u32,
    slots: Box<[Slot]>,
    /// The array this one superseded, kept for the readers still on it.
    prev: *mut SlotArray,
}

impl SlotArray {
    fn new(bits: u32, prev: *mut SlotArray) -> SlotArray {
        SlotArray {
            bits,
            slots: (0..1usize << bits)
                .map(|_| Slot {
                    key: AtomicU64::new(0),
                    oid: AtomicU64::new(VACANT),
                })
                .collect(),
            prev,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot a hash probes first: the bits below the shard's.
    #[inline]
    fn home(&self, h: u64) -> usize {
        ((h << SHARD_BITS) >> (64 - self.bits)) as usize
    }

    /// Probes for `key`: the slot holding it and its OID, or the vacant
    /// slot that ends its probe sequence and [`VACANT`]. A reader racing
    /// a writer may be sent anywhere (its validation will fail); the
    /// probe is bounded so that it comes back at all.
    #[inline]
    fn find(&self, h: u64, key: u64) -> (usize, Oid) {
        let mut i = self.home(h);
        for _ in 0..self.slots.len() {
            let slot = &self.slots[i];
            let oid = slot.oid.load(Relaxed);
            if oid == VACANT || slot.key.load(Relaxed) == key {
                return (i, oid);
            }
            i = (i + 1) & self.mask();
        }
        (i, VACANT)
    }

    /// Writer only.
    fn put(&self, i: usize, key: u64, oid: Oid) {
        self.slots[i].key.store(key, Relaxed);
        self.slots[i].oid.store(oid, Relaxed);
    }
}

struct Shard {
    latch: OptLatch,
    array: AtomicPtr<SlotArray>,
    /// Entries in `array`; written under the latch.
    len: AtomicUsize,
}

impl Shard {
    #[inline]
    fn array(&self) -> &SlotArray {
        // SAFETY: `array` always points at a `SlotArray` leaked by `new`
        // or `grow`, and no array is freed before the index drops
        // (superseded ones stay chained through `prev`).
        unsafe { &*self.array.load(Acquire) }
    }

    /// Replaces the array by one twice its size; writer only. The old one
    /// is left intact for the readers still probing it.
    fn grow(&self) -> &SlotArray {
        let superseded = self.array.load(Relaxed);
        let old = self.array();
        let new = SlotArray::new(old.bits + 1, superseded);
        for slot in &old.slots {
            let oid = slot.oid.load(Relaxed);
            if oid != VACANT {
                let key = slot.key.load(Relaxed);
                new.put(new.find(hash(key), key).0, key, oid);
            }
        }
        self.array.store(Box::into_raw(Box::new(new)), Release);
        self.array()
    }
}

/// A sharded hash index for point lookups (primary keys).
///
/// Each shard is an open-addressed array of atomic `(key, oid)` slots
/// under an [`OptLatch`]: lookups probe it latch-free and validate,
/// writers are serialised per shard, and a full array is replaced by one
/// twice its size.
pub struct HashIndex {
    name: String,
    shards: Box<[CachePadded<Shard>]>,
}

impl HashIndex {
    pub fn new(name: impl Into<String>) -> HashIndex {
        HashIndex {
            name: name.into(),
            shards: (0..SHARDS)
                .map(|_| {
                    let first = SlotArray::new(MIN_SLOTS_BITS, ptr::null_mut());
                    CachePadded(Shard {
                        latch: OptLatch::new(),
                        array: AtomicPtr::new(Box::into_raw(Box::new(first))),
                        len: AtomicUsize::new(0),
                    })
                })
                .collect(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn shard(&self, h: u64) -> &Shard {
        &self.shards[(h >> (64 - SHARD_BITS)) as usize].0
    }

    /// Point lookup. Takes no latch and is preemptible throughout.
    pub fn get(&self, key: u64) -> Option<Oid> {
        preempt_point(costs::HASH_LOOKUP);
        let h = hash(key);
        let shard = self.shard(h);
        loop {
            let v = shard.latch.snapshot();
            let (_, oid) = shard.array().find(h, key);
            if shard.latch.validate(v) {
                return (oid != VACANT).then_some(oid);
            }
        }
    }

    /// Inserts a mapping; `false` if the key already exists.
    ///
    /// # Panics
    /// If `oid` is `Oid::MAX`, which marks a vacant slot.
    pub fn insert(&self, key: u64, oid: Oid) -> bool {
        assert!(oid != VACANT, "Oid::MAX cannot be indexed");
        preempt_point(costs::HASH_WRITE);
        let h = hash(key);
        let shard = self.shard(h);
        let _np = NonPreemptGuard::enter();
        let mut guard = shard.latch.write();
        let mut array = shard.array();
        let (mut i, found) = array.find(h, key);
        if found != VACANT {
            return false;
        }
        guard.dirty();
        let len = shard.len.load(Relaxed);
        // Three quarters full at most, so every probe ends.
        if (len + 1) * 4 > array.slots.len() * 3 {
            array = shard.grow();
            i = array.find(h, key).0;
        }
        array.put(i, key, oid);
        shard.len.store(len + 1, Relaxed);
        true
    }

    /// Removes a mapping, returning the OID if present.
    pub fn remove(&self, key: u64) -> Option<Oid> {
        preempt_point(costs::HASH_WRITE);
        let h = hash(key);
        let shard = self.shard(h);
        let _np = NonPreemptGuard::enter();
        let mut guard = shard.latch.write();
        let array = shard.array();
        let (mut hole, found) = array.find(h, key);
        if found == VACANT {
            return None;
        }
        guard.dirty();
        // Backward-shift deletion: close the hole with the entries behind
        // it that probed past it, so that no tombstone is needed.
        let mask = array.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let oid = array.slots[j].oid.load(Relaxed);
            if oid == VACANT {
                break;
            }
            let moved = array.slots[j].key.load(Relaxed);
            let from_home = j.wrapping_sub(array.home(hash(moved))) & mask;
            if from_home >= (j.wrapping_sub(hole) & mask) {
                array.put(hole, moved, oid);
                hole = j;
            }
        }
        array.slots[hole].oid.store(VACANT, Relaxed);
        shard.len.store(shard.len.load(Relaxed) - 1, Relaxed);
        Some(found)
    }

    /// Total number of entries (diagnostics; a sum of per-shard counts,
    /// not a snapshot).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.0.len.load(Relaxed)).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Test hook (`tests/tests/mechanism_regressions.rs`): runs `f` while
    /// holding the write latch of `key`'s shard *without* entering a
    /// non-preemptible region — the paper's §4.4 bug, on demand.
    #[doc(hidden)]
    pub fn with_write_latch_held(&self, key: u64, f: impl FnOnce()) {
        let _guard = self.shard(hash(key)).latch.write();
        f();
    }
}

impl Drop for HashIndex {
    fn drop(&mut self) {
        for shard in self.shards.iter() {
            let mut array = shard.0.array.load(Relaxed);
            while !array.is_null() {
                // SAFETY: every array in the chain was leaked by `new` or
                // `grow` and is freed nowhere else; `&mut self` says no
                // reader is left.
                let boxed = unsafe { Box::from_raw(array) };
                array = boxed.prev;
            }
        }
    }
}

// ── Ordered index ────────────────────────────────────────────────────

/// Keys per node. Small under the model checker (every atomic access is
/// a scheduling point) and in unit tests (so that modest key counts build
/// deep trees).
const FANOUT: usize = if cfg!(loom) {
    4
} else if cfg!(test) {
    8
} else {
    64
};

/// Inner levels a descent can record. Nodes split in half, so it takes
/// `(FANOUT / 2) ^ MAX_HEIGHT` leaves to grow a tree this deep.
const MAX_HEIGHT: usize = 12;

/// A tree node: `count` slots, each under a key, keys ascending. A
/// leaf's slot is the key's OID. An inner node's is a child (the exposed
/// address of a `Node` from [`OrderedIndex::new_node`]) and its key the
/// largest that child may hold, so the child for a key is found the way
/// a key is found in a leaf: the first `i` with `keys[i] >= key` — except
/// that the last child takes whatever is left, up to the node's own
/// fence, and the key stored over it means nothing. (That is what lets a
/// neighbour absorb the range of an unlinked child without anything
/// below it being told.)
struct Node {
    latch: OptLatch,
    count: AtomicUsize,
    is_leaf: bool,
    /// Next in the index's list of every node it ever allocated.
    next_alloc: AtomicPtr<Node>,
    keys: [AtomicU64; FANOUT],
    slots: [AtomicU64; FANOUT],
}

impl Node {
    /// The first position whose key is not below `key`, among the first
    /// `count` (which a racing reader may have read torn: it is clamped).
    ///
    /// Two rounds of independent loads instead of a binary search's six
    /// dependent ones: the last key of every cache line's worth of keys
    /// picks the line, then the line is counted through. A lookup's keys
    /// are random, so a binary search mispredicts every other probe and a
    /// branch-free one waits out each load before issuing the next.
    #[inline]
    fn lower_bound(&self, key: u64, count: usize) -> usize {
        const LINE: usize = 8;
        let count = count.min(FANOUT);
        let below = |i: usize| usize::from(self.keys[i].load(Relaxed) < key);
        let start = LINE
            * (0..count / LINE)
                .map(|line| below(line * LINE + LINE - 1))
                .sum::<usize>();
        start + (start..count.min(start + LINE)).map(below).sum::<usize>()
    }

    #[inline]
    fn entry(&self, i: usize) -> (u64, u64) {
        (self.keys[i].load(Relaxed), self.slots[i].load(Relaxed))
    }

    /// Writer only.
    #[inline]
    fn set_entry(&self, i: usize, (key, slot): (u64, u64)) {
        self.keys[i].store(key, Relaxed);
        self.slots[i].store(slot, Relaxed);
    }

    /// Opens a gap at `at` in the first `count` entries and fills it;
    /// writer only.
    fn insert_at(&self, at: usize, count: usize, entry: (u64, u64)) {
        for i in (at..count).rev() {
            self.set_entry(i + 1, self.entry(i));
        }
        self.set_entry(at, entry);
        self.count.store(count + 1, Relaxed);
    }

    /// Closes the gap at `at` in the first `count` entries; writer only.
    fn remove_at(&self, at: usize, count: usize) {
        for i in at + 1..count {
            self.set_entry(i - 1, self.entry(i));
        }
        self.count.store(count - 1, Relaxed);
    }
}

/// The slot an inner node keeps for `child`.
fn child_slot(child: *mut Node) -> u64 {
    child.expose_provenance() as u64
}

/// One inner node of a descent: what was read from it, and at which
/// version.
#[derive(Clone, Copy)]
struct Step<'a> {
    node: &'a Node,
    version: u64,
    /// The child taken.
    idx: usize,
    count: usize,
    /// The largest key the child may hold.
    fence: u64,
}

/// The inner nodes of one descent, root first.
struct Path<'a> {
    steps: [Option<Step<'a>>; MAX_HEIGHT],
    len: usize,
}

impl<'a> Path<'a> {
    fn new() -> Path<'a> {
        Path {
            steps: [None; MAX_HEIGHT],
            len: 0,
        }
    }

    /// The `trail` of a descent that wants its path recorded.
    fn trail(&mut self, step: Option<Step<'a>>) {
        match step {
            None => self.len = 0,
            Some(_) => {
                assert!(
                    self.len < MAX_HEIGHT,
                    "ordered index deeper than MAX_HEIGHT"
                );
                self.steps[self.len] = step;
                self.len += 1;
            }
        }
    }

    fn step(&self, level: usize) -> Step<'a> {
        self.steps[level].expect("recorded level")
    }
}

#[cfg(test)]
thread_local! {
    /// Nodes this thread's descents have looked at.
    static NODE_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// An ordered index: a B+-tree with optimistic lock coupling.
///
/// Readers descend latch-free, validating each node's version against
/// its parent's, and restart from the root on a mismatch; writers
/// descend the same way and latch only the leaf they change, plus its
/// ancestors for a split or an unlink (always by `upgrade`, so no writer
/// ever waits while holding a node, and there is no latch order to get
/// wrong).
pub struct OrderedIndex {
    name: String,
    root: AtomicPtr<Node>,
    /// Every node ever allocated, live or retired, for `Drop`.
    nodes: AtomicPtr<Node>,
    /// Model-checker teeth: accept every validation.
    #[cfg(loom)]
    trusting: bool,
}

impl OrderedIndex {
    pub fn new(name: impl Into<String>) -> OrderedIndex {
        let index = OrderedIndex {
            name: name.into(),
            root: AtomicPtr::new(ptr::null_mut()),
            nodes: AtomicPtr::new(ptr::null_mut()),
            #[cfg(loom)]
            trusting: false,
        };
        index.root.store(index.new_node(true), Release);
        index
    }

    /// An index whose readers skip version validation: the bug the loom
    /// models must be able to catch.
    #[cfg(loom)]
    pub(crate) fn without_validation(name: &str) -> OrderedIndex {
        let mut index = OrderedIndex::new(name);
        index.trusting = true;
        index
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Allocates an empty node and links it into the allocation list,
    /// which is what frees it, in `Drop` and not before.
    fn new_node(&self, is_leaf: bool) -> *mut Node {
        let node = Box::into_raw(Box::new(Node {
            latch: OptLatch::new(),
            count: AtomicUsize::new(0),
            is_leaf,
            next_alloc: AtomicPtr::new(ptr::null_mut()),
            keys: std::array::from_fn(|_| AtomicU64::new(0)),
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }));
        let mut head = self.nodes.load(Relaxed);
        loop {
            // SAFETY: leaked just above, and not freed before the index
            // drops.
            unsafe { &*node }.next_alloc.store(head, Relaxed);
            match self.nodes.compare_exchange(head, node, Release, Relaxed) {
                Ok(_) => return node,
                Err(current) => head = current,
            }
        }
    }

    #[inline]
    fn validate(&self, node: &Node, v: u64) -> bool {
        #[cfg(loom)]
        if self.trusting {
            return true;
        }
        node.latch.validate(v)
    }

    /// Descends to the leaf responsible for `key`, returning it and the
    /// version at which it was. `trail` is told each inner node passed
    /// (`Some`), and `None` whenever the descent starts over.
    #[inline]
    fn descend<'a>(&'a self, key: u64, mut trail: impl FnMut(Option<Step<'a>>)) -> (&'a Node, u64) {
        'restart: loop {
            trail(None);
            let root = self.root.load(Acquire);
            // SAFETY: `root` came from `new_node`, and no node is freed
            // before the index drops.
            let mut node = unsafe { &*root };
            let mut v = node.latch.snapshot();
            // A root that was split since is only the left half now.
            if self.root.load(Acquire) != root {
                continue;
            }
            let mut fence = u64::MAX;
            loop {
                #[cfg(test)]
                NODE_VISITS.with(|n| n.set(n.get() + 1));
                if node.is_leaf {
                    return (node, v);
                }
                let count = node.count.load(Relaxed).min(FANOUT);
                let idx = node.lower_bound(key, count.saturating_sub(1));
                let (separator, child) = node.entry(idx);
                if count == 0 || !self.validate(node, v) {
                    continue 'restart;
                }
                if idx + 1 < count {
                    fence = separator;
                }
                // SAFETY: an inner node's slot, read at a validated
                // version, is a child put there by `make_room`: a node
                // from `new_node`, not freed before the index drops.
                let child = unsafe { &*ptr::with_exposed_provenance::<Node>(child as usize) };
                let child_v = child.latch.snapshot();
                // Still its parent's child for `key` when it was at
                // `child_v`: whatever moves the key elsewhere afterwards
                // (a split, an unlink) also moves `child`'s version on.
                if !self.validate(node, v) {
                    continue 'restart;
                }
                trail(Some(Step {
                    node,
                    version: v,
                    idx,
                    count,
                    fence,
                }));
                (node, v) = (child, child_v);
            }
        }
    }

    /// Point lookup. Takes no latch and is preemptible throughout.
    pub fn get(&self, key: u64) -> Option<Oid> {
        preempt_point(costs::BTREE_LOOKUP);
        loop {
            let (leaf, v) = self.descend(key, |_| {});
            let count = leaf.count.load(Relaxed).min(FANOUT);
            let pos = leaf.lower_bound(key, count);
            let (found, oid) = leaf.entry(pos.min(FANOUT - 1));
            if self.validate(leaf, v) {
                return (pos < count && found == key).then_some(oid);
            }
        }
    }

    /// Inserts a mapping; `false` if the key already exists.
    pub fn insert(&self, key: u64, oid: Oid) -> bool {
        preempt_point(costs::BTREE_WRITE);
        loop {
            let (leaf, v) = self.descend(key, |_| {});
            let count = leaf.count.load(Relaxed).min(FANOUT);
            if count == FANOUT {
                // If that was a torn read, a needless split is attempted
                // and fails on the version.
                self.make_room(key);
                continue;
            }
            let _np = NonPreemptGuard::enter();
            let Some(mut guard) = leaf.latch.upgrade(v) else {
                continue;
            };
            // Latched at `v`: `count` was not torn after all.
            let pos = leaf.lower_bound(key, count);
            if pos < count && leaf.keys[pos].load(Relaxed) == key {
                return false;
            }
            guard.dirty();
            leaf.insert_at(pos, count, (key, oid));
            return true;
        }
    }

    /// Splits one node on the way to `key`'s full leaf: the topmost of
    /// the full nodes that end at the leaf, whose parent therefore has
    /// room for the new sibling. Gives up silently if anything moved; the
    /// caller descends again either way.
    fn make_room(&self, key: u64) {
        let mut path = Path::new();
        let (leaf, leaf_v) = self.descend(key, |step| path.trail(step));
        if leaf.count.load(Relaxed) < FANOUT {
            return;
        }
        let mut level = path.len;
        while level > 0 && path.step(level - 1).count == FANOUT {
            level -= 1;
        }
        let (node, v) = if level == path.len {
            (leaf, leaf_v)
        } else {
            (path.step(level).node, path.step(level).version)
        };

        let _np = NonPreemptGuard::enter();
        // Parent first, then the node; both or neither.
        let parent = match level {
            0 => None,
            _ => {
                let above = path.step(level - 1);
                let Some(guard) = above.node.latch.upgrade(above.version) else {
                    return;
                };
                Some((above, guard))
            }
        };
        let Some(mut guard) = node.latch.upgrade(v) else {
            return;
        };
        guard.dirty();

        // A key beyond a full leaf's last opens an empty leaf to its
        // right instead: ascending loads fill their leaves to the brim.
        let keep = if node.is_leaf && key > node.keys[FANOUT - 1].load(Relaxed) {
            FANOUT
        } else {
            FANOUT / 2
        };
        let right = self.new_node(node.is_leaf);
        // SAFETY: just allocated, and not freed before the index drops.
        let sibling = unsafe { &*right };
        for (to, from) in (keep..FANOUT).enumerate() {
            sibling.set_entry(to, node.entry(from));
        }
        sibling.count.store(FANOUT - keep, Relaxed);
        node.count.store(keep, Relaxed);
        let separator = node.keys[keep - 1].load(Relaxed);

        match parent {
            Some((above, mut parent_guard)) => {
                // `node` keeps the lower keys under a new, lower key;
                // `right` takes its old key in the entry after it.
                parent_guard.dirty();
                let (old_key, left) = above.node.entry(above.idx);
                above
                    .node
                    .set_entry(above.idx, (old_key, child_slot(right)));
                above
                    .node
                    .insert_at(above.idx, above.count, (separator, left));
            }
            None => {
                // Latched at the version it was the root at: still is.
                let left = self.root.load(Relaxed);
                let root = self.new_node(false);
                // SAFETY: just allocated, and not freed before the index
                // drops.
                let top = unsafe { &*root };
                top.set_entry(0, (separator, child_slot(left)));
                top.set_entry(1, (u64::MAX, child_slot(right)));
                top.count.store(2, Relaxed);
                self.root.store(root, Release);
            }
        }
    }

    /// Removes a mapping, returning the OID if present. A leaf's last
    /// entry takes the leaf with it (see `remove_last`).
    pub fn remove(&self, key: u64) -> Option<Oid> {
        preempt_point(costs::BTREE_WRITE);
        loop {
            let mut is_root = true;
            let (leaf, v) = self.descend(key, |step| is_root = step.is_none());
            let count = leaf.count.load(Relaxed).min(FANOUT);
            let pos = leaf.lower_bound(key, count);
            if pos >= count || leaf.keys[pos].load(Relaxed) != key {
                if self.validate(leaf, v) {
                    return None;
                }
                continue;
            }
            if count == 1 && !is_root {
                match self.remove_last(key) {
                    Some(removed) => return removed,
                    None => continue,
                }
            }
            let _np = NonPreemptGuard::enter();
            let Some(mut guard) = leaf.latch.upgrade(v) else {
                continue;
            };
            guard.dirty();
            let oid = leaf.slots[pos].load(Relaxed);
            leaf.remove_at(pos, count);
            return Some(oid);
        }
    }

    /// Removes `key` when it is the only entry of a leaf below the root,
    /// and unlinks what that drains: the leaf, and every ancestor it was
    /// the only descendant of, up to the first with another child, whose
    /// neighbouring entry takes over the key range. Queue-shaped churn
    /// (insert at one edge, remove at the other) would otherwise leave a
    /// trail of empty leaves for every scan to wade through. `None` if
    /// anything moved meanwhile; the caller starts over.
    fn remove_last(&self, key: u64) -> Option<Option<Oid>> {
        let mut path = Path::new();
        let (leaf, v) = self.descend(key, |step| path.trail(step));
        let _np = NonPreemptGuard::enter();
        let mut leaf_guard = leaf.latch.upgrade(v)?;
        // Latched at the version it was read at, so no read is torn.
        if leaf.count.load(Relaxed) != 1 {
            return None;
        }
        let (found, oid) = leaf.entry(0);
        if found != key {
            return Some(None);
        }
        // Latch upwards to the first ancestor that keeps another child:
        // all of them, or start over.
        let mut guards: [Option<WriteGuard<'_>>; MAX_HEIGHT] = std::array::from_fn(|_| None);
        let mut level = path.len;
        let survivor = loop {
            if level == 0 {
                break None;
            }
            level -= 1;
            let step = path.step(level);
            guards[level] = Some(step.node.latch.upgrade(step.version)?);
            if step.count > 1 {
                break Some(step);
            }
        };
        leaf_guard.dirty();
        leaf.count.store(0, Relaxed);
        // Without a survivor the leaf is all the tree holds: it stays,
        // empty, at the bottom of its chain.
        if let Some(Step {
            node, idx, count, ..
        }) = survivor
        {
            // The child after it absorbs the key range, or, of the last
            // child, the one before, by becoming the last.
            guards[level].as_mut().expect("latched above").dirty();
            node.remove_at(idx, count);
            // Whoever still holds one of the unlinked nodes at an old
            // version must not get to use it.
            for guard in guards[level + 1..path.len].iter_mut().flatten() {
                guard.dirty();
            }
        }
        Some(Some(oid))
    }

    /// Calls `f` with the in-range entries of each leaf that overlaps
    /// `[lo, hi]`, in key order, each as the leaf held them at one
    /// validated instant. Nothing is held while `f` runs.
    #[inline]
    fn scan_leaves(&self, lo: u64, hi: u64, mut f: impl FnMut(&[(u64, Oid)]) -> ControlFlow<()>) {
        let mut entries = [(0u64, 0 as Oid); FANOUT];
        let mut cursor = lo;
        loop {
            // The largest key the leaf may hold: where the next one starts.
            let mut fence = u64::MAX;
            let (leaf, v) = self.descend(cursor, |step| fence = step.map_or(u64::MAX, |s| s.fence));
            let count = leaf.count.load(Relaxed).min(FANOUT);
            let mut len = 0;
            let mut done = fence >= hi;
            for i in leaf.lower_bound(cursor, count)..count {
                let entry = leaf.entry(i);
                if entry.0 > hi {
                    done = true;
                    break;
                }
                entries[len] = entry;
                len += 1;
            }
            if !self.validate(leaf, v) {
                continue;
            }
            if f(&entries[..len]).is_break() || done {
                return;
            }
            cursor = fence + 1;
        }
    }

    /// Number of entries (diagnostics; walks every leaf, and is not a
    /// snapshot).
    pub fn len(&self) -> usize {
        let mut len = 0;
        self.scan_leaves(0, u64::MAX, |entries| {
            len += entries.len();
            ControlFlow::Continue(())
        });
        len
    }

    pub fn is_empty(&self) -> bool {
        let mut empty = true;
        self.scan_leaves(0, u64::MAX, |entries| {
            empty = entries.is_empty();
            if empty {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        empty
    }

    /// Scans `[lo, hi]` in key order, invoking `f` per entry.
    ///
    /// Leaf by leaf (see module docs): a preemption point runs per
    /// *entry*, and `f` executes with no latch held, so it may read
    /// records, run nested queries, or get preempted freely. Entries
    /// inserted or removed meanwhile may or may not be visited — the scan
    /// sees a record-level-consistent, MVCC-filtered view like any ERMIA
    /// scan.
    ///
    /// Returns the number of entries visited.
    pub fn range_scan(
        &self,
        lo: u64,
        hi: u64,
        mut f: impl FnMut(u64, Oid) -> ControlFlow<()>,
    ) -> usize {
        let mut visited = 0usize;
        self.scan_leaves(lo, hi, |entries| {
            for &(key, oid) in entries {
                preempt_point(costs::BTREE_SCAN_STEP);
                visited += 1;
                f(key, oid)?;
            }
            ControlFlow::Continue(())
        });
        visited
    }

    /// Test hook (`tests/tests/mechanism_regressions.rs`): runs `f` while
    /// holding the write latch of `key`'s leaf *without* entering a
    /// non-preemptible region — the paper's §4.4 bug, on demand.
    #[doc(hidden)]
    pub fn with_write_latch_held(&self, key: u64, f: impl FnOnce()) {
        let _guard = self.descend(key, |_| {}).0.latch.write();
        f();
    }
}

impl Drop for OrderedIndex {
    fn drop(&mut self) {
        let mut node = self.nodes.load(Relaxed);
        while !node.is_null() {
            // SAFETY: the list holds every node `new_node` leaked, each
            // once; they are freed nowhere else, and `&mut self` says no
            // reader is left.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next_alloc.load(Relaxed);
        }
    }
}

#[cfg(test)]
impl OrderedIndex {
    /// Walks the whole (quiescent) tree and checks its shape: keys
    /// strictly ascending and inside their node's range, no empty inner
    /// node, no latch left held or retired node left linked, every leaf
    /// at the same depth. Returns the number of nodes reachable.
    fn check_shape(&self) -> usize {
        fn walk(
            node: &Node,
            above: Option<u64>,
            fence: u64,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> usize {
            assert_eq!(node.latch.version.load(Relaxed) & LOCKED, 0);
            let count = node.count.load(Relaxed);
            assert!(count <= FANOUT);
            // An inner node's last key means nothing.
            let keys = count - usize::from(!node.is_leaf);
            let mut below = above;
            for i in 0..keys {
                let key = node.keys[i].load(Relaxed);
                assert!(below.is_none_or(|b| key > b), "keys out of order");
                assert!(key <= fence, "key beyond the node's fence");
                below = Some(key);
            }
            if node.is_leaf {
                assert_eq!(*leaf_depth.get_or_insert(depth), depth, "ragged tree");
                return 1;
            }
            let mut nodes = 1;
            let mut below = above;
            for i in 0..count {
                let (key, child) = node.entry(i);
                let key = if i < keys { key } else { fence };
                // SAFETY: a child slot of a live node of a quiescent tree.
                let child = unsafe { &*ptr::with_exposed_provenance::<Node>(child as usize) };
                nodes += walk(child, below, key, depth + 1, leaf_depth);
                below = Some(key);
            }
            nodes
        }
        // SAFETY: the root, never freed before the index drops.
        let root = unsafe { &*self.root.load(Acquire) };
        walk(root, None, u64::MAX, 0, &mut None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    fn collect(idx: &OrderedIndex, lo: u64, hi: u64) -> Vec<(u64, Oid)> {
        let mut seen = Vec::new();
        idx.range_scan(lo, hi, |k, o| {
            seen.push((k, o));
            ControlFlow::Continue(())
        });
        seen
    }

    fn node_visits(f: impl FnOnce()) -> u64 {
        let before = NODE_VISITS.with(|n| n.get());
        f();
        NODE_VISITS.with(|n| n.get()) - before
    }

    #[test]
    fn hash_index_crud() {
        let idx = HashIndex::new("pk");
        assert!(idx.insert(10, 100));
        assert!(!idx.insert(10, 200), "duplicate rejected");
        assert_eq!(idx.get(10), Some(100));
        assert_eq!(idx.get(11), None);
        assert_eq!(idx.remove(10), Some(100));
        assert_eq!(idx.remove(10), None);
        assert_eq!(idx.get(10), None);
        assert!(idx.is_empty());
    }

    #[test]
    fn hash_index_grows_and_spreads_across_shards() {
        let idx = HashIndex::new("pk");
        for k in 0..5000 {
            assert!(idx.insert(k, k + 1));
        }
        assert_eq!(idx.len(), 5000);
        for k in 0..5000 {
            assert_eq!(idx.get(k), Some(k + 1));
        }
        for shard in idx.shards.iter() {
            let len = shard.0.len.load(Relaxed);
            assert!((200..450).contains(&len), "lopsided shard: {len}");
            assert!(len * 4 <= shard.0.array().slots.len() * 3, "overfull shard");
        }
    }

    /// Keys that differ only above bit 8, 24, 32 or 40 — the TPC-C
    /// composite keys — must not pile into one shard or one probe run.
    #[test]
    fn hash_spreads_shifted_keys() {
        for shift in [8, 24, 32, 40] {
            let idx = HashIndex::new("pk");
            for k in 0..4096u64 {
                assert!(idx.insert(k << shift, k));
            }
            let used = idx
                .shards
                .iter()
                .filter(|s| s.0.len.load(Relaxed) > 0)
                .count();
            assert_eq!(used, SHARDS, "shift {shift}");
            for k in 0..4096u64 {
                assert_eq!(idx.get(k << shift), Some(k), "shift {shift}");
            }
        }
    }

    /// Removal shifts entries back over the hole; every survivor of a
    /// crowded shard must stay reachable, with and without wrap-around.
    #[test]
    fn hash_removal_keeps_probe_sequences_intact() {
        let idx = HashIndex::new("pk");
        let keys: Vec<u64> = (0..3000).map(|k| k * 7919).collect();
        for &k in &keys {
            assert!(idx.insert(k, k + 1));
        }
        for (n, &k) in keys.iter().enumerate() {
            if n % 3 != 0 {
                assert_eq!(idx.remove(k), Some(k + 1));
            }
        }
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(idx.get(k), (n % 3 == 0).then_some(k + 1));
        }
        assert_eq!(idx.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "Oid::MAX cannot be indexed")]
    fn hash_index_rejects_the_vacant_marker() {
        HashIndex::new("pk").insert(1, Oid::MAX);
    }

    #[test]
    fn ordered_index_crud_and_order() {
        let idx = OrderedIndex::new("range");
        assert!(idx.is_empty());
        for k in [5u64, 1, 9, 3, 7] {
            assert!(idx.insert(k, k * 10));
        }
        assert!(!idx.insert(3, 0), "duplicate rejected");
        assert_eq!(idx.get(3), Some(30));
        assert_eq!(idx.get(4), None);
        assert_eq!(
            collect(&idx, 0, u64::MAX),
            vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]
        );
        assert_eq!(idx.remove(5), Some(50));
        assert_eq!(idx.remove(5), None);
        assert_eq!(idx.len(), 4);
        assert!(!idx.is_empty());
    }

    #[test]
    fn range_scan_bounds_are_inclusive() {
        let idx = OrderedIndex::new("r");
        for k in 0..100u64 {
            idx.insert(k, k);
        }
        let keys = |lo, hi| {
            collect(&idx, lo, hi)
                .into_iter()
                .map(|e| e.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(3, 6), vec![3, 4, 5, 6]);
        assert_eq!(keys(37, 37), vec![37]);
        assert_eq!(keys(98, u64::MAX), vec![98, 99]);
        assert_eq!(keys(100, u64::MAX), Vec::<u64>::new());
        assert_eq!(keys(6, 3), Vec::<u64>::new());
    }

    #[test]
    fn range_scan_break_stops_early() {
        let idx = OrderedIndex::new("r");
        for k in 0..100u64 {
            idx.insert(k, k);
        }
        let mut n = 0;
        let visited = idx.range_scan(0, u64::MAX, |_, _| {
            n += 1;
            if n == 13 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(visited, 13);
    }

    #[test]
    fn range_scan_spans_many_leaves_and_levels() {
        let idx = OrderedIndex::new("r");
        let n = FANOUT * FANOUT * FANOUT + 17;
        // Ascending, descending and interleaved arrivals.
        for k in (0..n as u64).filter(|k| k % 3 == 0) {
            assert!(idx.insert(k, k));
        }
        for k in (0..n as u64).rev().filter(|k| k % 3 == 1) {
            assert!(idx.insert(k, k));
        }
        for k in (0..n as u64).filter(|k| k % 3 == 2) {
            assert!(idx.insert(k, k));
        }
        assert!(idx.check_shape() > FANOUT * FANOUT);
        let mut next = 0u64;
        let visited = idx.range_scan(0, u64::MAX, |k, oid| {
            assert_eq!((k, oid), (next, next), "strictly ordered across leaves");
            next += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(visited, n);
        assert_eq!(idx.len(), n);
        for k in 0..n as u64 {
            assert_eq!(idx.get(k), Some(k));
        }
    }

    #[test]
    fn ascending_loads_fill_their_leaves() {
        let idx = OrderedIndex::new("r");
        let leaves = 50;
        for k in 0..(FANOUT * leaves) as u64 {
            idx.insert(k, k);
        }
        // `leaves` leaves and the inner nodes above them, not twice that.
        assert!(idx.check_shape() <= leaves + leaves / 2);
    }

    #[test]
    fn scan_at_u64_max_terminates() {
        let idx = OrderedIndex::new("r");
        idx.insert(u64::MAX, 1);
        idx.insert(u64::MAX - 1, 2);
        idx.insert(0, 3);
        assert_eq!(
            collect(&idx, 0, u64::MAX),
            vec![(0, 3), (u64::MAX - 1, 2), (u64::MAX, 1)]
        );
        assert_eq!(idx.get(u64::MAX), Some(1));
        assert_eq!(idx.remove(u64::MAX), Some(1));
        assert_eq!(collect(&idx, 1, u64::MAX), vec![(u64::MAX - 1, 2)]);
    }

    /// Delivery's pattern on `idx_new_order`: insert at the right edge,
    /// remove at the left. Drained leaves (and the inner nodes that
    /// drain with them) must leave the tree, or every scan for the
    /// oldest entry wades through all of them.
    #[test]
    fn queue_churn_does_not_rot_the_tree() {
        const LIVE: u64 = 20;
        const ROUNDS: u64 = if cfg!(miri) { 2_000 } else { 200_000 };
        let idx = OrderedIndex::new("queue");
        for k in 0..LIVE {
            idx.insert(k, k);
        }
        for k in 0..ROUNDS {
            assert!(idx.insert(LIVE + k, LIVE + k));
            assert_eq!(idx.remove(k), Some(k));
        }
        assert_eq!(idx.len(), LIVE as usize);
        let reachable = idx.check_shape();
        assert!(reachable < 40, "{reachable} nodes for {LIVE} entries");

        // A handful of inner levels, then the leaf.
        let height = 8;
        let first = node_visits(|| {
            let mut first = None;
            idx.range_scan(0, u64::MAX, |k, _| {
                first = Some(k);
                ControlFlow::Break(())
            });
            assert_eq!(first, Some(ROUNDS));
        });
        assert!(
            first <= height,
            "scan to the first live entry touched {first} nodes"
        );
        let point = node_visits(|| assert_eq!(idx.get(ROUNDS + 3), Some(ROUNDS + 3)));
        assert!(point <= height, "get of a live key touched {point} nodes");
        let whole = node_visits(|| {
            assert_eq!(
                idx.range_scan(0, u64::MAX, |_, _| ControlFlow::Continue(())),
                LIVE as usize
            )
        });
        assert!(
            whole <= height * (2 + LIVE / (FANOUT as u64 / 2)),
            "full scan touched {whole} nodes"
        );
    }

    /// Draining everything, in either direction, leaves a tree that
    /// still takes and finds keys anywhere.
    #[test]
    fn a_drained_tree_is_reusable() {
        let idx = OrderedIndex::new("r");
        let n = (FANOUT * FANOUT * 3) as u64;
        for round in 0..2 {
            for k in 0..n {
                assert!(idx.insert(k * 2, k));
            }
            let drain: Vec<u64> = match round {
                0 => (0..n).collect(),
                _ => (0..n).rev().collect(),
            };
            for k in drain {
                assert_eq!(idx.remove(k * 2), Some(k));
                assert_eq!(idx.remove(k * 2 + 1), None);
            }
            assert!(idx.is_empty());
            assert!(idx.check_shape() <= MAX_HEIGHT);
            assert_eq!(collect(&idx, 0, u64::MAX), vec![]);
        }
        assert!(idx.insert(7, 7));
        assert_eq!(idx.get(7), Some(7));
    }

    #[test]
    fn concurrent_hash_access() {
        let idx = HashIndex::new("pk");
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let idx = &idx;
                scope.spawn(move || {
                    for i in 0..1000 {
                        let k = t * 1000 + i;
                        assert!(idx.insert(k, k));
                        assert_eq!(idx.get(k), Some(k));
                    }
                });
            }
        });
        assert_eq!(idx.len(), 4000);
    }

    #[test]
    fn concurrent_ordered_access() {
        let idx = OrderedIndex::new("r");
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let idx = &idx;
                scope.spawn(move || {
                    // Interleaved keys: every thread works on every leaf.
                    for i in 0..1000 {
                        let k = i * 4 + t;
                        assert!(idx.insert(k, k));
                        assert_eq!(idx.get(k), Some(k));
                    }
                });
            }
        });
        idx.check_shape();
        let all = collect(&idx, 0, u64::MAX);
        assert_eq!(all.len(), 4000);
        assert!(all
            .iter()
            .enumerate()
            .all(|(i, &(k, o))| k == i as u64 && o == k));
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u64, Oid),
        Remove(u64),
        Get(u64),
        /// `[lo, hi]`, breaking after this many entries.
        Scan(u64, u64, usize),
    }

    /// Mostly a dense band (so that keys collide, leaves split and
    /// drain), plus both ends of the key space and a few strays.
    fn key() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..150,
            0u64..150,
            0u64..150,
            Just(0u64),
            Just(u64::MAX),
            (u64::MAX - 20)..=u64::MAX,
            any::<u64>(),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (key(), 0..Oid::MAX).prop_map(|(k, o)| Op::Insert(k, o)),
            (key(), 0..Oid::MAX).prop_map(|(k, o)| Op::Insert(k, o)),
            key().prop_map(Op::Remove),
            key().prop_map(Op::Get),
            (key(), key(), 0usize..40).prop_map(|(a, b, n)| Op::Scan(a, b, n)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        #[test]
        fn ordered_index_matches_a_btreemap(ops in prop::collection::vec(op(), 1..600)) {
            let idx = OrderedIndex::new("r");
            let mut model = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, o) => {
                        let fresh = !model.contains_key(&k);
                        prop_assert_eq!(idx.insert(k, o), fresh);
                        model.entry(k).or_insert(o);
                    }
                    Op::Remove(k) => prop_assert_eq!(idx.remove(k), model.remove(&k)),
                    Op::Get(k) => prop_assert_eq!(idx.get(k), model.get(&k).copied()),
                    Op::Scan(lo, hi, limit) => {
                        let mut seen = Vec::new();
                        let visited = idx.range_scan(lo, hi, |k, o| {
                            seen.push((k, o));
                            if seen.len() > limit {
                                ControlFlow::Break(())
                            } else {
                                ControlFlow::Continue(())
                            }
                        });
                        prop_assert_eq!(visited, seen.len());
                        // (`BTreeMap::range` panics on an inverted range.)
                        let expect: Vec<_> = if lo <= hi {
                            model.range(lo..=hi).take(limit + 1).map(|(k, o)| (*k, *o)).collect()
                        } else {
                            Vec::new()
                        };
                        prop_assert_eq!(seen, expect);
                    }
                }
            }
            idx.check_shape();
            prop_assert_eq!(idx.len(), model.len());
            prop_assert_eq!(idx.is_empty(), model.is_empty());
            prop_assert_eq!(collect(&idx, 0, u64::MAX), model.into_iter().collect::<Vec<_>>());
        }

        #[test]
        fn hash_index_matches_a_hashmap(ops in prop::collection::vec(op(), 1..600)) {
            let idx = HashIndex::new("pk");
            let mut model = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, o) => {
                        let fresh = !model.contains_key(&k);
                        prop_assert_eq!(idx.insert(k, o), fresh);
                        model.entry(k).or_insert(o);
                    }
                    Op::Remove(k) | Op::Scan(k, ..) => prop_assert_eq!(idx.remove(k), model.remove(&k)),
                    Op::Get(k) => prop_assert_eq!(idx.get(k), model.get(&k).copied()),
                }
                prop_assert_eq!(idx.len(), model.len());
            }
            for (k, o) in model {
                prop_assert_eq!(idx.get(k), Some(o));
            }
        }
    }
}
