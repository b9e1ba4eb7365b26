//! Transactions: optimistic reads, first-updater-wins writes, and the
//! commit pipeline.
//!
//! The lifecycle follows ERMIA (§2.2): `begin` takes a snapshot from the
//! central timestamp counter; reads traverse version chains with no
//! pessimistic locks; writes install pending versions at chain heads;
//! commit allocates a timestamp and stamps the pending versions. Under
//! `Serializable`, commit additionally performs OCC-style backward
//! validation, latching the read-set records **in address order** inside a
//! non-preemptible region — the paper's §4.4 example of code that must
//! not be preempted (the regression tests exercise exactly that).

use std::sync::Arc;

use preempt_context::cls::ClsCell;
use preempt_context::nonpreempt::NonPreemptGuard;
use preempt_context::runtime::preempt_point;

use crate::costs;
use crate::engine::{stat, Engine};
use crate::error::{TxError, TxResult};
use crate::index::{HashIndex, OrderedIndex};
use crate::log;
use crate::registry::ActiveSlot;
use crate::table::Table;
use crate::version::{Oid, Record, Row, Timestamp, Version};

/// Supported isolation levels (§2.2: snapshot isolation is the common
/// case; read committed reads the newest committed version; serializable
/// adds OCC certification).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    ReadCommitted,
    #[default]
    SnapshotIsolation,
    Serializable,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxnState {
    Active,
    Committed,
    Aborted,
}

/// One installed write. Both pointers aim into a table of this
/// transaction's engine (checked by `own`), which the engine's catalog
/// keeps alive for as long as the engine, and hence the `&'e Engine`
/// borrow, lasts; the version is this transaction's own pending one,
/// which only it unlinks.
#[derive(Clone, Copy)]
struct WriteEntry {
    record: *const Record,
    version: *const Version,
}

/// What an abort does to an index, newest first.
///
/// The index pointer is borrowed, not counted: the methods that push an
/// undo take `&'e HashIndex` / `&'e OrderedIndex`, so the borrow checker
/// keeps the index alive for as long as the transaction (the argument
/// [`WriteEntry`] makes for its engine's tables), and no reference count
/// on the index's cache line is written per index change.
///
/// The indexes themselves know nothing of transactions: an entry a
/// transaction inserted is there for everyone at once, and one it
/// removed is gone for everyone. What makes the undo exact is a rule for
/// the caller: change an index entry only while holding a write intent
/// (a pending version) on the record behind the key — insert the record
/// first, delete or update it before removing its entry — and never map
/// one key to two records. First-updater-wins then keeps every other
/// transaction off that key until this one ends, so on abort the entry
/// it inserted is still its own to remove, and the key it vacated is
/// still vacant to restore `(key, oid)` into. A caller that breaks the
/// rule can lose the restored entry to whoever took the key meanwhile;
/// the index reports that (`insert` returns `false`), and a debug build
/// asserts it.
enum IndexUndo {
    Hash {
        index: *const HashIndex,
        key: u64,
    },
    Ordered {
        index: *const OrderedIndex,
        key: u64,
    },
    ReinsertHash {
        index: *const HashIndex,
        key: u64,
        oid: Oid,
    },
    ReinsertOrdered {
        index: *const OrderedIndex,
        key: u64,
        oid: Oid,
    },
}

/// The growable sets a transaction accumulates. A finished transaction
/// parks them, emptied but with their capacity, in context-local storage
/// for the context's next transaction, so steady-state transactions do
/// not allocate for bookkeeping. (Context-local, not thread-local: a
/// preempted transaction and the one preempting it share a thread.)
#[derive(Default)]
struct Scratch {
    writes: Vec<WriteEntry>,
    /// Serializable read set (see [`WriteEntry`] for why the pointers
    /// stay valid).
    reads: Vec<*const Record>,
    index_undos: Vec<IndexUndo>,
}

static SCRATCH_POOL: ClsCell<Scratch> = ClsCell::new(Scratch::default);

/// An in-flight transaction. Aborts automatically if dropped while
/// active.
pub struct Transaction<'e> {
    engine: &'e Engine,
    txid: u64,
    begin_ts: Timestamp,
    iso: IsolationLevel,
    state: TxnState,
    scratch: Scratch,
    /// Whether `scratch` came from (and goes back to) the pool; taken on
    /// first use so read-only transactions never touch it.
    pooled: bool,
    /// Reads and writes so far, added to the engine's statistics when the
    /// transaction ends.
    reads_done: u64,
    writes_done: u64,
    /// Registry minimum scanned by this transaction if it is a trimmer.
    trim_watermark: Option<Timestamp>,
    _slot: ActiveSlot<'e>,
}

impl<'e> Transaction<'e> {
    pub(crate) fn new(
        engine: &'e Engine,
        txid: u64,
        begin_ts: Timestamp,
        iso: IsolationLevel,
        slot: ActiveSlot<'e>,
    ) -> Transaction<'e> {
        preempt_point(costs::TXN_BEGIN);
        Transaction {
            engine,
            txid,
            begin_ts,
            iso,
            state: TxnState::Active,
            scratch: Scratch::default(),
            pooled: false,
            reads_done: 0,
            writes_done: 0,
            trim_watermark: None,
            _slot: slot,
        }
    }

    /// The transaction's unique id.
    pub fn txid(&self) -> u64 {
        self.txid
    }

    /// The snapshot timestamp taken at begin.
    pub fn begin_ts(&self) -> Timestamp {
        self.begin_ts
    }

    pub fn isolation(&self) -> IsolationLevel {
        self.iso
    }

    /// Number of buffered writes.
    pub fn write_count(&self) -> usize {
        self.scratch.writes.len()
    }

    #[inline]
    fn snapshot_for_read(&self) -> Timestamp {
        match self.iso {
            // Read committed always sees the newest committed version.
            IsolationLevel::ReadCommitted => u64::MAX,
            _ => self.begin_ts,
        }
    }

    /// Panics unless `table` belongs to this transaction's engine: only
    /// then does this transaction's registry slot keep the table's
    /// unlinked versions allocated, and the engine's catalog the table.
    #[inline]
    fn own(&self, table: &Table) {
        assert!(
            table.engine_id() == self.engine.id(),
            "table '{}' belongs to another engine",
            table.name()
        );
    }

    /// The pooled sets, fetched from context-local storage on first use.
    fn scratch(&mut self) -> &mut Scratch {
        if !std::mem::replace(&mut self.pooled, true) {
            self.scratch = SCRATCH_POOL.replace(Scratch::default());
        }
        &mut self.scratch
    }

    /// Reads a record by OID. `None` if the record is invisible in this
    /// snapshot (absent or deleted). The row is borrowed from the version
    /// itself — no copy, no reference count — until the next call on the
    /// transaction.
    pub fn read(&mut self, table: &Table, oid: Oid) -> Option<Row<'_>> {
        self.own(table);
        let Some(rec) = table.record(oid) else {
            preempt_point(costs::RECORD_READ);
            return None;
        };
        // SAFETY: this transaction has been registered in its engine's
        // registry since before `begin` returned and stays so until it
        // drops, which outlives the borrow of `self` the row is tied to;
        // `own` established that this is the registry guarding `table`.
        let vis = unsafe { rec.visible(self.snapshot_for_read(), self.txid) };
        preempt_point(costs::RECORD_READ + vis.hops * costs::VERSION_HOP);
        if self.iso == IsolationLevel::Serializable {
            self.scratch().reads.push(rec);
        }
        self.reads_done += 1;
        vis.data.map(Row)
    }

    /// Updates a record, installing a pending version.
    pub fn update(&mut self, table: &Arc<Table>, oid: Oid, data: &[u8]) -> TxResult<()> {
        self.write_internal(table, oid, Some(data))
    }

    /// Deletes a record (installs a tombstone).
    pub fn delete(&mut self, table: &Arc<Table>, oid: Oid) -> TxResult<()> {
        self.write_internal(table, oid, None)
    }

    fn write_internal(&mut self, table: &Table, oid: Oid, data: Option<&[u8]>) -> TxResult<()> {
        self.check_active()?;
        self.own(table);
        preempt_point(costs::RECORD_WRITE);
        // Only handed-out OIDs are writable (`record` alone would also
        // return the untouched slots of an allocated segment, and those
        // waiting in some thread's OID block).
        let rec = table
            .record(oid)
            .filter(|rec| rec.is_issued())
            .ok_or(TxError::WriteConflict)?;
        let si_writes = self.iso != IsolationLevel::ReadCommitted;
        let version = {
            let _np = NonPreemptGuard::enter();
            rec.install(self.txid, self.begin_ts, si_writes, data)
        }
        .inspect_err(|_| self.engine.note(stat::CONFLICTS, 1))?;
        self.push_write(rec, version);

        let bytes = match data {
            Some(p) => log::append_redo(self.txid, table.id(), oid, p),
            None => log::append_redo_delete(self.txid, table.id(), oid),
        };
        preempt_point(costs::LOG_APPEND + bytes as u64 * costs::LOG_BYTE);

        self.maybe_trim(rec, table);
        Ok(())
    }

    /// Books an installed version in the write set at once, before
    /// anything that can unwind (a trim takes the record's latch): an
    /// abort only unlinks what the write set holds.
    fn push_write(&mut self, record: &Record, version: &Version) {
        self.scratch().writes.push(WriteEntry { record, version });
        self.writes_done += 1;
    }

    /// Inserts a new record and returns its OID. The record is invisible
    /// to others until commit.
    pub fn insert(&mut self, table: &Arc<Table>, data: &[u8]) -> TxResult<Oid> {
        self.check_active()?;
        self.own(table);
        preempt_point(costs::RECORD_INSERT);
        let (oid, rec) = table.create_record();
        let version = {
            let _np = NonPreemptGuard::enter();
            rec.install(self.txid, self.begin_ts, true, Some(data))
        }
        .expect("fresh record cannot conflict");
        self.push_write(rec, version);
        let bytes = log::append_redo(self.txid, table.id(), oid, data);
        preempt_point(costs::LOG_APPEND + bytes as u64 * costs::LOG_BYTE);
        Ok(oid)
    }

    /// Inserts a record and registers it in a hash index, undoing the
    /// index entry if the transaction aborts. Fails on duplicate key.
    ///
    /// The transaction borrows the index until it ends, so an index
    /// cannot go away under a pending undo:
    ///
    /// ```compile_fail,E0505
    /// use std::sync::Arc;
    /// use preempt_mvcc::{Engine, EngineConfig, HashIndex};
    ///
    /// let engine = Engine::new(EngineConfig::default());
    /// let table = engine.create_table("t");
    /// let index = Arc::new(HashIndex::new("t_key"));
    /// let mut tx = engine.begin_si();
    /// tx.insert_indexed(&table, &index, 7, b"row").unwrap();
    /// drop(index); // still borrowed by `tx`
    /// tx.abort();
    /// ```
    pub fn insert_indexed(
        &mut self,
        table: &Arc<Table>,
        index: &'e HashIndex,
        key: u64,
        data: &[u8],
    ) -> TxResult<Oid> {
        let oid = self.insert(table, data)?;
        if !index.insert(key, oid) {
            // Duplicate key: roll back just this insert's side effects by
            // aborting the transaction (simplest correct policy).
            self.do_abort();
            return Err(TxError::WriteConflict);
        }
        self.scratch()
            .index_undos
            .push(IndexUndo::Hash { index, key });
        Ok(oid)
    }

    /// Like [`insert_indexed`](Self::insert_indexed) for an ordered index.
    pub fn insert_indexed_ordered(
        &mut self,
        table: &Arc<Table>,
        index: &'e OrderedIndex,
        key: u64,
        data: &[u8],
    ) -> TxResult<Oid> {
        let oid = self.insert(table, data)?;
        if !index.insert(key, oid) {
            self.do_abort();
            return Err(TxError::WriteConflict);
        }
        self.scratch()
            .index_undos
            .push(IndexUndo::Ordered { index, key });
        Ok(oid)
    }

    /// Adds a secondary hash-index entry with abort-time undo.
    pub fn index_insert(&mut self, index: &'e HashIndex, key: u64, oid: Oid) -> TxResult<()> {
        self.check_active()?;
        if !index.insert(key, oid) {
            return Err(TxError::WriteConflict);
        }
        self.scratch()
            .index_undos
            .push(IndexUndo::Hash { index, key });
        Ok(())
    }

    /// Adds a secondary ordered-index entry with abort-time undo.
    pub fn index_insert_ordered(
        &mut self,
        index: &'e OrderedIndex,
        key: u64,
        oid: Oid,
    ) -> TxResult<()> {
        self.check_active()?;
        if !index.insert(key, oid) {
            return Err(TxError::WriteConflict);
        }
        self.scratch()
            .index_undos
            .push(IndexUndo::Ordered { index, key });
        Ok(())
    }

    /// Removes a hash-index entry, restoring it on abort. Returns the
    /// removed OID (None if the key was absent).
    pub fn index_remove(&mut self, index: &'e HashIndex, key: u64) -> TxResult<Option<Oid>> {
        self.check_active()?;
        let removed = index.remove(key);
        if let Some(oid) = removed {
            self.scratch()
                .index_undos
                .push(IndexUndo::ReinsertHash { index, key, oid });
        }
        Ok(removed)
    }

    /// Removes an ordered-index entry, restoring it on abort.
    pub fn index_remove_ordered(
        &mut self,
        index: &'e OrderedIndex,
        key: u64,
    ) -> TxResult<Option<Oid>> {
        self.check_active()?;
        let removed = index.remove(key);
        if let Some(oid) = removed {
            self.scratch()
                .index_undos
                .push(IndexUndo::ReinsertOrdered { index, key, oid });
        }
        Ok(removed)
    }

    fn maybe_trim(&mut self, rec: &Record, table: &Table) {
        // Amortized inline GC: every 64th transaction trims the chains it
        // touches down to the active-snapshot watermark it scanned at its
        // first write (an older minimum only trims less).
        if self.txid & 63 == 0 {
            let (engine, begin_ts) = (self.engine, self.begin_ts);
            let wm = *self
                .trim_watermark
                .get_or_insert_with(|| engine.scan_watermark(begin_ts));
            if let Some(run) = rec.trim(wm) {
                table.note_trimmed(run.count());
                engine.retire(run);
            }
        }
    }

    fn check_active(&self) -> TxResult<()> {
        match self.state {
            TxnState::Active => Ok(()),
            _ => Err(TxError::AlreadyAborted),
        }
    }

    /// Commits, returning the commit timestamp.
    ///
    /// Read-only transactions commit at their snapshot without touching
    /// the counter. Serializable transactions may fail validation, in
    /// which case all effects are rolled back and
    /// [`TxError::ValidationFailed`] is returned.
    pub fn commit(mut self) -> TxResult<Timestamp> {
        self.check_active()?;
        let writes = self.scratch.writes.len() as u64;
        let reads = self.scratch.reads.len() as u64;
        if writes == 0 {
            // Read-only: a snapshot read is trivially consistent.
            self.state = TxnState::Committed;
            log::discard();
            return Ok(self.begin_ts);
        }

        preempt_point(
            costs::TXN_COMMIT_BASE
                + writes * costs::PER_WRITE_FINALIZE
                + reads * costs::PER_READ_VALIDATE,
        );

        // Fault-plan hook: a forced abort takes the same rollback path as
        // a validation failure, so injected aborts exercise exactly the
        // recovery code a real conflict would.
        if preempt_faults::on_txn_commit() {
            self.do_abort();
            self.engine.note(stat::CONFLICTS, 1);
            return Err(TxError::FaultInjected);
        }

        // The paper wraps validation/commit in a non-preemptible region
        // (§4.4): a preemption while holding validation latches could
        // deadlock against the sibling context on this worker.
        let _np = NonPreemptGuard::enter();

        if self.iso == IsolationLevel::Serializable && !self.validate() {
            drop(_np);
            self.do_abort();
            self.engine.note(stat::CONFLICTS, 1);
            return Err(TxError::ValidationFailed);
        }

        // SAFETY: see `WriteEntry`.
        let versions = || self.scratch.writes.iter().map(|w| unsafe { &*w.version });
        // Mark, draw, stamp: the timestamp is in new snapshots from the
        // draw on, and the marks make readers wait for the stamps.
        versions().for_each(|v| v.mark_committing(self.txid));
        let commit_ts = self.engine.allocate_commit_ts();
        versions().for_each(|v| v.stamp(commit_ts));
        preempt_point(costs::LOG_FLUSH);
        log::flush_commit(self.engine.log(), self.txid, commit_ts);
        self.state = TxnState::Committed;
        Ok(commit_ts)
    }

    /// OCC backward validation: every read-set record must still have no
    /// committed version newer than our snapshot. Read-set record latches
    /// are taken in **increasing address order** (the paper's §4.4
    /// consistent-ordering example).
    fn validate(&mut self) -> bool {
        let begin_ts = self.begin_ts;
        let Scratch { reads, writes, .. } = &mut self.scratch;
        reads.sort_unstable();
        reads.dedup();

        let mut guards = Vec::with_capacity(reads.len());
        for &ptr in reads.iter() {
            if writes.iter().any(|w| w.record == ptr) {
                // Our own pending version heads this chain; the install
                // already certified there is no newer committed version.
                continue;
            }
            // SAFETY: see `WriteEntry`.
            let rec = unsafe { &*ptr };
            guards.push(rec.latch().read());
            // SAFETY: registered, as in `read`.
            if unsafe { rec.newest_committed_ts() } > begin_ts {
                return false;
            }
        }
        // Guards drop here; stamping happens immediately after under the
        // same non-preemptible region, so no conflicting commit can
        // interleave on this worker.
        true
    }

    /// Aborts the transaction, rolling back pending versions and index
    /// entries.
    pub fn abort(mut self) {
        if self.state == TxnState::Active {
            self.do_abort();
        }
    }

    fn do_abort(&mut self) {
        let (engine, txid) = (self.engine, self.txid);
        let Scratch {
            writes,
            index_undos,
            ..
        } = &mut self.scratch;
        preempt_point(costs::TXN_ABORT_BASE + writes.len() as u64 * costs::PER_WRITE_FINALIZE);
        {
            let _np = NonPreemptGuard::enter();
            // A record written twice yields its whole run on the first
            // visit and nothing on the second. No injected latch panic
            // may cut the loop short: the versions left behind would
            // block their records for good.
            preempt_faults::without_latch_panics(|| {
                for w in writes.drain(..).rev() {
                    // SAFETY: see `WriteEntry`.
                    if let Some(run) = unsafe { &*w.record }.unlink_pending(txid) {
                        engine.retire(run);
                    }
                }
            });
        }
        for undo in index_undos.drain(..).rev() {
            match undo {
                IndexUndo::Hash { index, key } => {
                    // SAFETY: see `IndexUndo`.
                    unsafe { &*index }.remove(key);
                }
                IndexUndo::Ordered { index, key } => {
                    // SAFETY: see `IndexUndo`.
                    unsafe { &*index }.remove(key);
                }
                IndexUndo::ReinsertHash { index, key, oid } => {
                    // SAFETY: see `IndexUndo`.
                    let index = unsafe { &*index };
                    let restored = index.insert(key, oid);
                    debug_assert!(
                        restored,
                        "{}: key {key} was taken before the abort",
                        index.name()
                    );
                }
                IndexUndo::ReinsertOrdered { index, key, oid } => {
                    // SAFETY: see `IndexUndo`.
                    let index = unsafe { &*index };
                    let restored = index.insert(key, oid);
                    debug_assert!(
                        restored,
                        "{}: key {key} was taken before the abort",
                        index.name()
                    );
                }
            }
        }
        log::discard();
        self.state = TxnState::Aborted;
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if self.state == TxnState::Active {
            self.do_abort();
        }
        let outcome = match self.state {
            TxnState::Committed => stat::COMMITS,
            _ => stat::ABORTS,
        };
        self.engine
            .note_end(outcome, self.reads_done, self.writes_done);
        if self.pooled {
            let mut scratch = std::mem::take(&mut self.scratch);
            scratch.writes.clear();
            scratch.reads.clear();
            scratch.index_undos.clear();
            SCRATCH_POOL.replace(scratch);
        }
        self.engine.drain_limbo();
    }
}

impl std::fmt::Debug for Transaction<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("txid", &self.txid)
            .field("begin_ts", &self.begin_ts)
            .field("iso", &self.iso)
            .field("state", &self.state)
            .field("writes", &self.write_count())
            .finish()
    }
}
