//! Per-thread OID blocks, through the transaction API: concurrent
//! inserters get distinct OIDs from blocks of their own, `len` and
//! `records` count exactly what was handed out, a reserved OID that was
//! never handed out cannot be written, and one thread alone still gets
//! `0, 1, 2, …`.

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, PoisonError};

use preempt_mvcc::table::OID_BLOCK;
use preempt_mvcc::{Engine, EngineConfig, Oid, Record, TxError};

fn engine() -> Engine {
    Engine::new(EngineConfig::default())
}

/// Runs `work(i)` on `threads` threads that start together and stay
/// alive until all are done (a thread that exits hands its owner slot,
/// and the rest of its block, to the next), and returns what each
/// returned. A panicking thread still reaches the final barrier. One
/// call at a time: the owner slots are process-wide, and a call with
/// more threads than slots would leave another call's threads without.
fn on_live_threads(threads: usize, work: impl Fn(usize) -> Vec<Oid> + Sync) -> Vec<Vec<Oid>> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let (barrier, work) = (&barrier, &work);
                scope.spawn(move || {
                    barrier.wait();
                    let done = panic::catch_unwind(AssertUnwindSafe(|| work(i)));
                    barrier.wait();
                    done.unwrap_or_else(|p| panic::resume_unwind(p))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn concurrent_inserts_get_distinct_oids_from_their_own_blocks() {
    const THREADS: usize = 4;
    const EACH: usize = 1_000; // not a multiple of the block: partial blocks stay
    let e = engine();
    let t = e.create_table("t");
    let per_thread = on_live_threads(THREADS, |i| {
        (0..EACH)
            .map(|n| {
                // Some of them abort: their OIDs stay handed out.
                let mut tx = e.begin_si();
                let oid = tx.insert(&t, &[i as u8; 24]).unwrap();
                if n % 7 == 0 {
                    tx.abort();
                } else {
                    tx.commit().unwrap();
                }
                oid
            })
            .collect()
    });

    let all: BTreeSet<Oid> = per_thread.iter().flatten().copied().collect();
    assert_eq!(all.len(), THREADS * EACH, "distinct");
    assert_eq!(t.len(), THREADS * EACH);
    let visited: Vec<*const Record> = t.records().map(|r| r as *const Record).collect();
    let expected: Vec<*const Record> = all
        .iter()
        .map(|&oid| t.record(oid).unwrap() as *const Record)
        .collect();
    assert_eq!(
        visited, expected,
        "records() visits every OID handed out, once"
    );
    assert!(t.oids().eq(all.iter().copied()));

    // Each thread's records sit in blocks no other live thread handed
    // out from.
    let blocks: Vec<BTreeSet<Oid>> = per_thread
        .iter()
        .map(|oids| oids.iter().map(|oid| oid / OID_BLOCK).collect())
        .collect();
    for (i, a) in blocks.iter().enumerate() {
        for b in &blocks[i + 1..] {
            assert!(a.is_disjoint(b), "two threads handed out from one block");
        }
    }

    // Every committed row reads back.
    let mut tx = e.begin_si();
    let committed = per_thread
        .iter()
        .flat_map(|oids| oids.iter().enumerate())
        .filter(|(n, _)| n % 7 != 0)
        .filter(|(_, &oid)| tx.read(&t, oid).is_some())
        .count();
    assert_eq!(committed, THREADS * (EACH - EACH.div_ceil(7)));
}

/// More live inserters than owner slots: the ones without a slot take
/// single OIDs straight from the bound, beside the blocks of the rest.
#[test]
fn inserters_beyond_the_owner_slots_still_get_distinct_oids() {
    const THREADS: usize = 20;
    const EACH: usize = 200;
    let e = engine();
    let t = e.create_table("t");
    let all: BTreeSet<Oid> = on_live_threads(THREADS, |_| {
        let mut tx = e.begin_si();
        let oids = (0..EACH).map(|_| tx.insert(&t, b"row").unwrap()).collect();
        tx.commit().unwrap();
        oids
    })
    .into_iter()
    .flatten()
    .collect();
    assert_eq!(all.len(), THREADS * EACH, "distinct");
    assert_eq!(t.len(), THREADS * EACH);
    assert!(t.oids().eq(all.iter().copied()));
    assert_eq!(t.records().count(), THREADS * EACH);
}

#[test]
fn a_reserved_oid_never_handed_out_rejects_writes() {
    let e = engine();
    let t = e.create_table("t");
    let mut tx = e.begin_si();
    let first = tx.insert(&t, b"row").unwrap();
    tx.commit().unwrap();
    assert_eq!(t.len(), 1);
    // The rest of the inserter's block is reserved and its segment
    // exists, but none of it was handed out.
    let reserved = first + 1;
    assert!(t.record(reserved).is_some(), "slot materialized");
    let mut tx = e.begin_si();
    assert!(tx.read(&t, reserved).is_none());
    assert_eq!(tx.update(&t, reserved, b"x"), Err(TxError::WriteConflict));
    assert_eq!(tx.delete(&t, reserved), Err(TxError::WriteConflict));
    assert_eq!(tx.update(&t, OID_BLOCK, b"x"), Err(TxError::WriteConflict));
    tx.update(&t, first, b"new")
        .expect("a handed-out OID stays writable");
    tx.commit().unwrap();
    assert_eq!(t.len(), 1);
    assert_eq!(t.records().count(), 1);
}

#[test]
fn a_single_threaded_load_gets_dense_oids() {
    let e = engine();
    let t = e.create_table("t");
    // A fresh thread, as a loader would be.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut tx = e.begin_si();
            for n in 0..1_000u64 {
                assert_eq!(tx.insert(&t, &n.to_le_bytes()).unwrap(), n);
            }
            tx.commit().unwrap();
        });
    });
    assert_eq!(t.len(), 1_000);
    assert!(t.oids().eq(0..1_000));
    // Another thread carries on from the loader's leftover (if it took
    // the slot the loader gave back) or from a block of its own.
    let mut tx = e.begin_si();
    let next = tx.insert(&t, b"after").unwrap();
    tx.commit().unwrap();
    assert!(
        next == 1_000 || (next > 1_000 && next.is_multiple_of(OID_BLOCK)),
        "{next}"
    );
    assert_eq!(t.len(), 1_001);
}
