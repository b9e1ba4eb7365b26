//! Interleaving checks for the version-chain memory protocol (run with
//! `RUSTFLAGS="--cfg loom" cargo test -p preempt-mvcc --lib loom_tests`).
//!
//! Readers walk chains with no latch and no reference count; what keeps a
//! version allocated under them is the limbo's rule that an unlinked run
//! is freed only once the active-transaction registry proves every
//! transaction alive at unlink time has ended. These models drive the
//! *real* `Record`, `ActiveTxns`, `Limbo` and `Engine` code with the
//! vendored loom stub's atomics underneath `head`, `next`, `begin`, the
//! registry slots and the commit clock, and race a reader against each
//! way a version leaves a chain.
//!
//! In this build a freed version is poisoned and leaked instead of
//! returned to the allocator: touching one trips the "read of a freed
//! version" assertion in `Version::begin_word`, and its payload fails the
//! rows' checksum — a use-after-free is a test failure, not undefined
//! behaviour.
//!
//! The stub explores sequentially consistent interleavings, bounded
//! CHESS-style to two preemptions (a transaction is ~25 protocol steps;
//! the unbounded product of two is out of reach). What it cannot see —
//! an ordering weaker than the protocol needs — is pinned statically by
//! preempt-lint's ordering table (`crates/analysis/src/protocol.rs`).
//!
//! Only one thread per model writes, because the record latch spins on
//! `std` atomics the stub cannot schedule around.

use std::sync::Arc;

use loom::thread;
use preempt_context::nonpreempt::NonPreemptGuard;

use crate::{Engine, EngineConfig, IsolationLevel, Oid, Table};

const PREEMPTIONS: usize = 2;

/// A row that checks itself: a value and its complement.
fn row(v: u64) -> [u8; 16] {
    let mut r = [0u8; 16];
    r[..8].copy_from_slice(&v.to_le_bytes());
    r[8..].copy_from_slice(&(!v).to_le_bytes());
    r
}

fn check(row: &[u8]) -> u64 {
    let v = u64::from_le_bytes(row[..8].try_into().unwrap());
    let c = u64::from_le_bytes(row[8..].try_into().unwrap());
    assert_eq!(c, !v, "torn or freed row");
    v
}

/// An engine with one record whose committed versions are `row(1)`,
/// `row(2)`, … `row(versions)`, oldest first.
fn seeded(versions: u64) -> (Engine, Arc<Table>, Oid) {
    let engine = Engine::new(EngineConfig::default());
    let table = engine.create_table("t");
    let mut tx = engine.begin_si();
    let oid = tx.insert(&table, &row(1)).unwrap();
    tx.commit().unwrap();
    for v in 2..=versions {
        let mut tx = engine.begin_si();
        tx.update(&table, oid, &row(v)).unwrap();
        tx.commit().unwrap();
    }
    (engine, table, oid)
}

/// Reader walk vs install + commit (mark, timestamp draw, stamp): the
/// reader sees the old row or the new one, whole, the same one both
/// times, and the new one if its snapshot includes the commit. Three
/// preemptions, because that is what it takes to begin between the
/// writer's timestamp draw and its stamp and read on both sides of the
/// stamp — the window the committing mark closes.
#[test]
fn reader_vs_install_and_commit() {
    loom::model_bounded(3, || {
        let (engine, table, oid) = seeded(1);
        let writer = {
            let (engine, table) = (engine.clone(), table.clone());
            thread::spawn(move || {
                let mut tx = engine.begin_si();
                tx.update(&table, oid, &row(2)).unwrap();
                tx.commit().unwrap()
            })
        };
        let mut tx = engine.begin_si();
        let first = check(&tx.read(&table, oid).expect("row exists"));
        let second = check(&tx.read(&table, oid).expect("row exists"));
        assert!(first == 1 || first == 2, "read {first}");
        assert_eq!(first, second, "snapshot moved");
        let snapshot = tx.begin_ts();
        tx.commit().unwrap();
        let committed_at = writer.join().unwrap();
        assert_eq!(
            first == 2,
            committed_at <= snapshot,
            "visibility follows the snapshot"
        );
    });
}

/// Reader walk vs abort-unlink, retirement and an eager reclaim. The
/// reader may be standing on the aborted pending version when it is
/// unlinked; it must stay allocated until the reader has left the
/// registry, and the reader must walk on to the committed row. Once both
/// are done the limbo drains to zero.
fn reader_vs_abort(iso: IsolationLevel) {
    loom::model_bounded(PREEMPTIONS, move || {
        let (engine, table, oid) = seeded(1);
        let writer = {
            let (engine, table) = (engine.clone(), table.clone());
            thread::spawn(move || {
                let mut tx = engine.begin_si();
                tx.update(&table, oid, &row(2)).unwrap();
                tx.abort();
                engine.reclaim();
            })
        };
        let mut tx = engine.begin(iso);
        assert_eq!(check(&tx.read(&table, oid).expect("row exists")), 1);
        assert_eq!(check(&tx.read(&table, oid).expect("row exists")), 1);
        tx.commit().unwrap();
        writer.join().unwrap();
        assert_eq!(engine.reclaim(), 0, "limbo drains at quiescence");
    });
}

#[test]
fn si_reader_vs_abort_unlink_and_reclaim() {
    reader_vs_abort(IsolationLevel::SnapshotIsolation);
}

#[test]
fn read_committed_reader_vs_abort_unlink_and_reclaim() {
    reader_vs_abort(IsolationLevel::ReadCommitted);
}

/// Reader walks vs trim, retirement and reclaim. An old snapshot that
/// needs the oldest version pins the watermark, so it is never detached;
/// a reader that begins while the trimmer scans, trims and reclaims
/// either holds the watermark at its provisional 0 or stops at the
/// horizon version — neither ever steps into the freed tail.
#[test]
fn readers_vs_trim_retire_and_reclaim() {
    loom::model_bounded(PREEMPTIONS, || {
        let (engine, table, oid) = seeded(1);
        let mut old = engine.begin_si();
        for v in 2..=3 {
            let mut tx = engine.begin_si();
            tx.update(&table, oid, &row(v)).unwrap();
            tx.commit().unwrap();
        }
        let trimmer = {
            let (engine, table) = (engine.clone(), table.clone());
            thread::spawn(move || {
                let tx = engine.begin_si();
                let wm = engine.scan_watermark(tx.begin_ts());
                if let Some(run) = table.record(oid).unwrap().trim(wm) {
                    engine.retire(run);
                }
                tx.commit().unwrap();
                engine.reclaim();
            })
        };
        let mut new = engine.begin_si();
        assert_eq!(check(&new.read(&table, oid).expect("row exists")), 3);
        new.commit().unwrap();
        assert_eq!(check(&old.read(&table, oid).expect("row exists")), 1);
        old.commit().unwrap();
        trimmer.join().unwrap();

        // With the old snapshot gone the tail goes (here, unless the
        // trimmer ran last and took it), and the limbo with it.
        let tx = engine.begin_si();
        let rec = table.record(oid).unwrap();
        if let Some(run) = rec.trim(tx.begin_ts()) {
            engine.retire(run);
        }
        tx.commit().unwrap();
        assert_eq!(rec.chain_len(), 1, "only the newest version is left");
        assert_eq!(engine.reclaim(), 0, "limbo drains at quiescence");
    });
}

/// Two creators race to install the same directory block and segment:
/// one allocation of each wins, both creators get slots in it, and the
/// slots stay where they are.
#[test]
fn racing_creators_share_one_directory() {
    loom::model_bounded(PREEMPTIONS, || {
        let engine = Engine::new(EngineConfig::default());
        let table = engine.create_table("t");
        let other = {
            let table = table.clone();
            thread::spawn(move || {
                let (oid, rec) = table.create_record();
                assert!(std::ptr::eq(table.record(oid).expect("materialized"), rec));
                oid
            })
        };
        let (mine, rec) = table.create_record();
        let theirs = other.join().unwrap();
        assert_eq!(mine + theirs, 1, "dense: 0 and 1");
        assert!(std::ptr::eq(table.record(mine).expect("materialized"), rec));
        let gap =
            (table.record(theirs).unwrap() as *const _ as usize).abs_diff(rec as *const _ as usize);
        assert_eq!(gap, std::mem::size_of_val(rec), "neighbours in one segment");
    });
}

/// Teeth: free the aborted version at unlink time, as a chain with
/// reference counts could, and the explorer must find the reader that
/// was standing on it. (The version is installed before the reader
/// exists and the main thread unlinks it, so two preemptions reach the
/// bug: into the reader after the spawn, out of it after its head load.)
#[test]
#[should_panic(expected = "read of a freed version")]
fn explorer_catches_free_at_unlink() {
    loom::model_bounded(PREEMPTIONS, || {
        let (engine, table, oid) = seeded(1);
        let rec = table.record(oid).unwrap();
        {
            let _np = NonPreemptGuard::enter();
            rec.install(99, u64::MAX, false, Some(&row(2))).unwrap();
        }
        let reader = {
            let (engine, table) = (engine.clone(), table.clone());
            thread::spawn(move || {
                let mut tx = engine.begin_si();
                assert_eq!(check(&tx.read(&table, oid).expect("row exists")), 1);
                tx.commit().unwrap();
            })
        };
        let run = {
            let _np = NonPreemptGuard::enter();
            rec.unlink_pending(99).expect("just installed")
        };
        // SAFETY: none — this is the bug the model must catch.
        unsafe { run.free() };
        reader.join().unwrap();
    });
}
