//! The engine facade: catalog, timestamp authority, statistics.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64 as EngineIds;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::limbo::{Limbo, DRAIN_VERSIONS};
use crate::log::LogManager;
use crate::orphan::OrphanSweep;
use crate::registry::ActiveTxns;
use crate::sync::{stripe_index, AtomicU64, CachePadded, Ordering, Striped};
use crate::table::{Table, TableId};
use crate::txn::{IsolationLevel, Transaction};
use crate::version::{Detached, Timestamp};

/// Engine construction options.
#[derive(Clone, Copy, Debug)]
#[derive(Default)]
pub struct EngineConfig {
    /// Retain flushed log chunks in memory for inspection (tests/tools).
    pub capture_log: bool,
}


/// Cumulative engine statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    pub commits: u64,
    pub aborts: u64,
    pub conflicts: u64,
    pub reads: u64,
    pub writes: u64,
}

/// Field indices into the striped statistics.
pub(crate) mod stat {
    pub const COMMITS: usize = 0;
    pub const ABORTS: usize = 1;
    pub const CONFLICTS: usize = 2;
    pub const READS: usize = 3;
    pub const WRITES: usize = 4;
    pub const COUNT: usize = 5;
}

struct Inner {
    /// Process-unique id, stamped on every table this engine creates so a
    /// transaction can tell its own tables (whose versions its registry
    /// slot protects, and which the catalog keeps alive) from another
    /// engine's.
    id: u64,
    /// Latest committed timestamp (the paper's centralized counter, §2.2).
    /// Every access is `SeqCst`: the limbo's reclamation argument orders
    /// unlinks, clock reads and chain walks through it.
    ts: CachePadded<AtomicU64>,
    /// Transaction-id allocator (pending-version tags; unique, not
    /// ordered). Threads draw [`TXID_BLOCK`] ids at a time.
    next_txid: CachePadded<AtomicU64>,
    /// Cached GC watermark: the newest registry minimum any registered
    /// transaction has scanned (at `begin` every 256th txid, and by the
    /// one-in-64 trimmers). Gates the per-commit limbo drain.
    watermark: CachePadded<AtomicU64>,
    tables: RwLock<Vec<Arc<Table>>>,
    by_name: RwLock<HashMap<String, TableId>>,
    registry: ActiveTxns,
    log: LogManager,
    stats: Striped<{ stat::COUNT }>,
    limbo: Limbo,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // No transaction borrows the engine any more, so nothing can be
        // walking a retired run. A run the registry would still hold back
        // means a registry slot leaked.
        self.reclaim();
        debug_assert!(
            self.limbo.len() == 0 || std::thread::panicking(),
            "{} retired runs pinned by {} leaked registry slots at engine drop",
            self.limbo.len(),
            self.registry.active_count(),
        );
        // SAFETY: `&mut self` on the last handle — see above.
        unsafe { self.limbo.drain_all(Timestamp::MAX) };
    }
}

impl Inner {
    /// Frees every retired run the registry allows; returns how many stay.
    fn reclaim(&self) -> usize {
        // Tick the clock so runs retired at the current time fall below
        // the cap, then cap the registry minimum at the clock read before
        // the scan (the limbo's contract; `watermark` alone could return
        // the begin timestamp of a transaction that registered mid-scan).
        let cap = self.ts.0.fetch_add(1, Ordering::SeqCst) + 1;
        let watermark = self.registry.watermark(cap).min(cap);
        // SAFETY: `watermark <= cap`, the clock before the scan.
        unsafe { self.limbo.drain_all(watermark) };
        self.limbo.len()
    }
}

/// Transaction ids a thread reserves per visit to the shared allocator,
/// so `begin` writes no line another thread's `begin` writes. Equal to
/// the trim period (`txid & 63 == 0`): every block holds one trimmer id,
/// every fourth a watermark refresher (`txid & 0xFF == 0`), so each
/// thread takes its turn at both.
const TXID_BLOCK: u64 = 64;

thread_local! {
    /// The calling thread's reserved ids: `(engine id, next, end)`.
    /// Contexts sharing the thread share the block (no preemption point
    /// falls inside `next_txid`).
    static TXIDS: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

/// A shareable handle to the storage engine. Cloning is cheap.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Inner>,
}

impl Engine {
    pub fn new(cfg: EngineConfig) -> Engine {
        static NEXT_ID: EngineIds = EngineIds::new(1);
        Engine {
            inner: Arc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                ts: CachePadded(AtomicU64::new(0)),
                next_txid: CachePadded(AtomicU64::new(1)),
                watermark: CachePadded(AtomicU64::new(0)),
                tables: RwLock::new(Vec::new()),
                by_name: RwLock::new(HashMap::new()),
                registry: ActiveTxns::new(),
                log: LogManager::new(cfg.capture_log),
                stats: Striped::new(),
                limbo: Limbo::new(),
            }),
        }
    }

    /// Creates a table; panics if the name exists.
    pub fn create_table(&self, name: &str) -> Arc<Table> {
        let mut tables = self.inner.tables.write();
        let mut by_name = self.inner.by_name.write();
        assert!(
            !by_name.contains_key(name),
            "table '{name}' already exists"
        );
        let id = TableId(tables.len() as u32);
        let t = Arc::new(Table::new(id, name, self.inner.id));
        tables.push(t.clone());
        by_name.insert(name.to_string(), id);
        t
    }

    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> Option<Arc<Table>> {
        let id = *self.inner.by_name.read().get(name)?;
        self.table_by_id(id)
    }

    /// Looks a table up by id.
    pub fn table_by_id(&self, id: TableId) -> Option<Arc<Table>> {
        self.inner.tables.read().get(id.0 as usize).cloned()
    }

    /// Number of tables in the catalog.
    pub fn table_count(&self) -> usize {
        self.inner.tables.read().len()
    }

    /// Begins a transaction at the given isolation level.
    pub fn begin(&self, iso: IsolationLevel) -> Transaction<'_> {
        let txid = self.next_txid();
        // Register a provisional ts-0 slot BEFORE reading the snapshot
        // timestamp: a trimmer scanning the registry between our `ts`
        // load and slot publication would otherwise compute a watermark
        // above our snapshot and reclaim versions this transaction still
        // needs. The ts-0 slot pins the watermark at 0 for that window.
        let slot = self.inner.registry.enter(0);
        slot.set_txid(txid);
        let begin_ts = self.inner.ts.0.load(Ordering::SeqCst);
        slot.publish(begin_ts);
        // Periodically refresh the cached GC watermark, and take a paced
        // turn at one stripe of the limbo, round robin: transaction ends
        // only drain their own thread's, and a thread that exits leaves
        // its stripe behind.
        if txid & 0xFF == 0 {
            let (wm, stripe) = (self.scan_watermark(begin_ts), (txid >> 8) as usize);
            if self.inner.limbo.has_work(stripe) {
                // SAFETY: `wm` is the minimum this registered transaction
                // just scanned, at most its own snapshot.
                unsafe { self.inner.limbo.drain(stripe, wm, DRAIN_VERSIONS) };
            }
        }
        Transaction::new(self, txid, begin_ts, iso, slot)
    }

    fn next_txid(&self) -> u64 {
        let id = self.inner.id;
        TXIDS.with(|block| {
            let (engine, mut next, mut end) = block.get();
            if engine != id || next == end {
                next = self.inner.next_txid.0.fetch_add(TXID_BLOCK, Ordering::Relaxed);
                end = next + TXID_BLOCK;
            }
            block.set((id, next + 1, end));
            next
        })
    }

    /// Begins a snapshot-isolation transaction (the default, §2.2).
    pub fn begin_si(&self) -> Transaction<'_> {
        self.begin(IsolationLevel::SnapshotIsolation)
    }

    /// Latest committed timestamp.
    pub fn current_ts(&self) -> Timestamp {
        self.inner.ts.0.load(Ordering::SeqCst)
    }

    pub(crate) fn allocate_commit_ts(&self) -> Timestamp {
        self.inner.ts.0.fetch_add(1, Ordering::SeqCst) + 1
    }

    pub(crate) fn id(&self) -> u64 {
        self.inner.id
    }

    /// Scans the registry on behalf of a registered transaction with
    /// snapshot `begin_ts` and publishes the minimum as the cached
    /// watermark, which gates the paced limbo drains. Returns the minimum
    /// (at most `begin_ts`, read from the clock before the scan).
    pub(crate) fn scan_watermark(&self, begin_ts: Timestamp) -> Timestamp {
        let wm = self.inner.registry.watermark(begin_ts);
        // Release (pairs with the Acquire in `drain_limbo`): a thread that
        // frees by this minimum must order after the slot releases the
        // scan observed. Every write is an RMW, so a newer maximum keeps
        // the release sequence going.
        self.inner.watermark.0.fetch_max(wm, Ordering::AcqRel);
        wm
    }

    /// Hands an unlinked run to the limbo. Call after the store that
    /// unlinked it; the stamp is the clock read here.
    pub(crate) fn retire(&self, run: Detached) {
        let stamp = self.inner.ts.0.load(Ordering::SeqCst);
        self.inner.limbo.retire(run, stamp);
    }

    /// End-of-transaction reclamation: frees a bounded number of this
    /// thread's retired versions that the cached watermark has passed.
    /// One relaxed load when there is nothing queued.
    #[inline]
    pub(crate) fn drain_limbo(&self) {
        let stripe = stripe_index();
        if self.inner.limbo.has_work(stripe) {
            let wm = self.inner.watermark.0.load(Ordering::Acquire);
            // SAFETY: the cached watermark only ever holds registry
            // minima scanned by registered transactions, each at most its
            // scanner's snapshot and hence the clock before its scan.
            unsafe { self.inner.limbo.drain(stripe, wm, DRAIN_VERSIONS) };
        }
    }

    /// Frees every retired version the active-transaction registry
    /// allows, across all threads' queues, and returns the number of
    /// retired runs that remain (0 once no transaction is active).
    /// Advances the commit clock by one tick.
    pub fn reclaim(&self) -> usize {
        self.inner.reclaim()
    }

    /// Recovery: advances the commit clock to at least `ts` so new
    /// transactions order after every replayed one.
    pub fn fast_forward_ts(&self, ts: Timestamp) {
        self.inner.ts.0.fetch_max(ts, Ordering::SeqCst);
    }

    /// Most recently cached GC watermark (refreshed periodically at
    /// `begin`; trims use the live registry value).
    pub fn cached_watermark(&self) -> Timestamp {
        self.inner.watermark.0.load(Ordering::Relaxed)
    }

    /// The shared redo log.
    pub fn log(&self) -> &LogManager {
        &self.inner.log
    }

    /// The active-transaction registry (snapshot watermark source).
    pub fn registry(&self) -> &ActiveTxns {
        &self.inner.registry
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        let s = &self.inner.stats;
        EngineStats {
            commits: s.sum(stat::COMMITS),
            aborts: s.sum(stat::ABORTS),
            conflicts: s.sum(stat::CONFLICTS),
            reads: s.sum(stat::READS),
            writes: s.sum(stat::WRITES),
        }
    }

    /// Adds `n` to one statistic on the calling thread's stripe.
    pub(crate) fn note(&self, field: usize, n: u64) {
        self.inner.stats.local()[field].fetch_add(n, Ordering::Relaxed);
    }

    /// Books a finished transaction: its outcome (`stat::COMMITS` or
    /// `stat::ABORTS`) and the reads and writes it performed.
    #[inline]
    pub(crate) fn note_end(&self, outcome: usize, reads: u64, writes: u64) {
        let stats = self.inner.stats.local();
        stats[outcome].fetch_add(1, Ordering::Relaxed);
        if reads != 0 {
            stats[stat::READS].fetch_add(reads, Ordering::Relaxed);
        }
        if writes != 0 {
            stats[stat::WRITES].fetch_add(writes, Ordering::Relaxed);
        }
    }

    /// Centrally aborts every transaction owned by a dead worker (see
    /// [`crate::orphan`]). Call only after the worker can never run
    /// again — its abandoned frames hold guards whose `Drop` must never
    /// fire after this sweep.
    ///
    /// Order matters:
    /// 1. force-release the owner's write latches first —
    ///    `unlink_pending` takes `latch.write()` internally and would
    ///    spin forever on a latch the dead worker still holds;
    /// 2. unlink each orphaned txid's pending versions so
    ///    first-updater-wins writers stop seeing dead intents;
    /// 3. free the registry slots *last*, keeping the GC watermark
    ///    pinned at the orphans' snapshots until their intents are gone.
    pub fn orphan_sweep(&self, owner: u64) -> OrphanSweep {
        let mut sweep = OrphanSweep::default();
        let orphans = self.inner.registry.orphan_txids(owner);
        let tables: Vec<Arc<Table>> = self.inner.tables.read().clone();
        for table in &tables {
            for record in table.records() {
                if record.latch().force_release_write_held_by(owner) {
                    sweep.latches_released += 1;
                }
                for &txid in &orphans {
                    if let Some(run) = record.unlink_pending(txid) {
                        sweep.intents_unlinked += run.count();
                        // Live readers may be paused on the dead intents.
                        self.retire(run);
                    }
                }
            }
        }
        sweep.slots_released = self.inner.registry.force_release_owner(owner);
        self.note(stat::ABORTS, sweep.slots_released as u64);
        sweep
    }

    /// The registry slot of the engine's Arc, for identity checks.
    pub fn ptr_eq(&self, other: &Engine) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("tables", &self.table_count())
            .field("ts", &self.current_ts())
            .field("stats", &self.stats())
            .finish()
    }
}
