//! Real-thread stress of the version-chain memory protocol.
//!
//! Readers walk chains with no latch and no reference count while
//! writers install, abort (unlink) and — every 64th transaction — trim
//! the same chains. Every row carries its own checksum, so a read of a
//! torn, recycled or freed version shows up as a corrupt row; the rows'
//! values also let readers check what they are allowed to see. At
//! quiescence the limbo must drain to nothing.
//!
//! Two threads on one core prove little, so the run is sized by work, not
//! time, and `loom_tests.rs` (in `src/`) covers the interleavings
//! exhaustively at small scale.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use preempt_mvcc::{Engine, EngineConfig, IsolationLevel, Oid, Table, TxError};

const RECORDS: u64 = 8;
const WRITERS: u64 = 3;
const TXNS_PER_WRITER: u64 = 20_000;

/// `value`, then a value-dependent run of filler, then `!value`: rows of
/// many sizes (so freed versions get recycled as versions of other rows),
/// each checkable on its own.
fn row(value: u64) -> Vec<u8> {
    let mut r = value.to_le_bytes().to_vec();
    r.extend(std::iter::repeat_n(value as u8, (value % 48) as usize));
    r.extend((!value).to_le_bytes());
    r
}

fn check(row: &[u8]) -> u64 {
    let (head, rest) = row.split_at(8);
    let (filler, tail) = rest.split_at(rest.len() - 8);
    let value = u64::from_le_bytes(head.try_into().unwrap());
    assert_eq!(
        u64::from_le_bytes(tail.try_into().unwrap()),
        !value,
        "torn or freed row"
    );
    assert_eq!(filler.len() as u64, value % 48, "row of the wrong size");
    assert!(
        filler.iter().all(|&b| b == value as u8),
        "torn or freed filler"
    );
    value
}

/// Increments three records (which ones depends on `n`), then commits,
/// or aborts every fifth time. Returns whether it committed.
fn write_txn(engine: &Engine, table: &std::sync::Arc<Table>, oids: &[Oid], n: u64) -> bool {
    let mut tx = engine.begin_si();
    for oid in (0..3).map(|j| oids[((n + j) % RECORDS) as usize]) {
        let value = check(&tx.read(table, oid).expect("seeded"));
        match tx.update(table, oid, &row(value + 1)) {
            Ok(()) => {}
            Err(TxError::WriteConflict) => return false, // dropped: aborts
            Err(e) => panic!("unexpected {e}"),
        }
        // Read-your-own-write, through the pending version.
        assert_eq!(check(&tx.read(table, oid).expect("own write")), value + 1);
    }
    if n.is_multiple_of(5) {
        tx.abort();
        false
    } else {
        tx.commit().is_ok()
    }
}

/// One reader pass at `iso`. Snapshot readers must see the same row
/// twice; read-committed readers may see it advance, never retreat.
/// `floor[i]` is the highest committed value this reader has seen.
fn read_txn(engine: &Engine, table: &Table, oids: &[Oid], iso: IsolationLevel, floor: &mut [u64]) {
    let mut tx = engine.begin(iso);
    for (i, &oid) in oids.iter().enumerate() {
        let row = tx.read(table, oid).expect("seeded");
        // Stand on the row a while: this is where an early free bites.
        std::thread::yield_now();
        let first = check(&row);
        let second = check(&tx.read(table, oid).expect("seeded"));
        match iso {
            IsolationLevel::ReadCommitted => assert!(second >= first, "committed value retreated"),
            _ => assert_eq!(second, first, "snapshot moved"),
        }
        // Values only grow, and every later transaction (of either
        // level) starts after the commits this one saw.
        assert!(
            first >= floor[i],
            "record {i} went back from {} to {first}",
            floor[i]
        );
        floor[i] = second;
    }
    tx.commit().expect("read-only");
}

#[test]
fn readers_never_see_torn_or_freed_rows_and_the_limbo_drains() {
    let engine = Engine::new(EngineConfig::default());
    let table = engine.create_table("stress");
    let mut seed = engine.begin_si();
    let oids: Vec<Oid> = (0..RECORDS)
        .map(|_| seed.insert(&table, &row(0)).unwrap())
        .collect();
    seed.commit().unwrap();

    let done = AtomicBool::new(false);
    let start = Barrier::new(WRITERS as usize + 2);
    let (commits, reads) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (engine, table, oids, start) = (&engine, &table, &oids, &start);
                scope.spawn(move || {
                    start.wait();
                    (0..TXNS_PER_WRITER)
                        .filter(|n| write_txn(engine, table, oids, n * WRITERS + w))
                        .count() as u64
                })
            })
            .collect();
        let readers: Vec<_> = [
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::ReadCommitted,
        ]
        .into_iter()
        .map(|iso| {
            let (engine, table, oids, start, done) = (&engine, &table, &oids, &start, &done);
            scope.spawn(move || {
                let mut floor = vec![0u64; oids.len()];
                let mut passes = 0u64;
                start.wait();
                while !done.load(Ordering::Acquire) {
                    read_txn(engine, table, oids, iso, &mut floor);
                    passes += 1;
                }
                passes
            })
        })
        .collect();
        let commits: u64 = writers.into_iter().map(|h| h.join().unwrap()).sum();
        done.store(true, Ordering::Release);
        let reads: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        (commits, reads)
    });

    // The run did what it set out to: commits, aborts, trims, reads.
    let stats = engine.stats();
    assert!(
        commits > 0 && reads > 0,
        "{commits} commits, {reads} reader passes"
    );
    assert!(
        stats.aborts >= WRITERS * TXNS_PER_WRITER / 5,
        "aborts: {}",
        stats.aborts
    );
    assert!(table.trimmed_versions() > 0, "no chain was ever trimmed");

    // Every commit incremented three records by one.
    let mut audit = engine.begin_si();
    let total: u64 = oids
        .iter()
        .map(|&oid| check(&audit.read(&table, oid).unwrap()))
        .sum();
    assert_eq!(total, 3 * commits);
    audit.commit().unwrap();

    // Quiescence: nobody is registered, so nothing may stay in limbo.
    assert_eq!(engine.registry().active_count(), 0);
    assert_eq!(engine.reclaim(), 0, "limbo did not drain at quiescence");
}
