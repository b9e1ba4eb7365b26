//! Interleaving checks for the version-chain memory protocol and the
//! optimistic indexes (run with
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
//! Only one thread per engine model writes, because the record latch
//! spins on `std` atomics the stub cannot schedule around.
//!
//! The index models (at the end) race one lookup-and-scan against each
//! way an index is restructured under it — a leaf split, a root split, a
//! hash shard's growth and a removal's backward shift — and two inserts
//! of one key against each other. Every field of a node and a shard is a
//! stub atomic in this build, nodes hold four keys and a shard's first
//! array two slots, so a handful of inserts gets there.

use std::sync::Arc;

use loom::thread;
use preempt_context::nonpreempt::NonPreemptGuard;

use crate::index::{hash, SHARD_BITS};
use crate::{
    ControlFlow, Engine, EngineConfig, HashIndex, IsolationLevel, Oid, OrderedIndex, Table,
};

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

// ── Optimistic indexes ───────────────────────────────────────────────

/// `key`'s OID in the index models: a pair read half before and half
/// after a writer does not match.
fn oid_of(key: u64) -> Oid {
    key * 1000 + 7
}

/// What a reader may see of `idx` while a writer adds `optional` to the
/// `preloaded` keys: every preloaded key exactly once, the optional ones
/// or not, ascending, each with its own OID — by lookup and by scan.
fn read_all(idx: &OrderedIndex, preloaded: &[u64], optional: &[u64]) {
    for &key in preloaded {
        assert_eq!(idx.get(key), Some(oid_of(key)), "preloaded key lost");
    }
    let mut seen = Vec::new();
    idx.range_scan(0, u64::MAX, |key, oid| {
        assert_eq!(oid, oid_of(key), "key {key} with another key's OID");
        seen.push(key);
        ControlFlow::Continue(())
    });
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "out of order or twice: {seen:?}"
    );
    seen.retain(|key| !optional.contains(key));
    assert_eq!(seen, preloaded, "preloaded key lost or invented");
}

/// A tree of two leaves under an inner root, the left one full:
/// `[10 20 30 40] [50]`.
fn two_leaves(idx: OrderedIndex) -> Arc<OrderedIndex> {
    for key in [10, 20, 30, 40, 50] {
        assert!(idx.insert(key, oid_of(key)));
    }
    Arc::new(idx)
}

/// Reader vs leaf split: the writer's key lands in the middle of the full
/// leaf, which splits in half under the reader (a new sibling, a new
/// entry in the parent, half the entries gone from where they were), and
/// then takes the key.
fn reader_vs_leaf_split(idx: OrderedIndex) {
    let idx = two_leaves(idx);
    let writer = {
        let idx = idx.clone();
        thread::spawn(move || assert!(idx.insert(25, oid_of(25))))
    };
    read_all(&idx, &[10, 20, 30, 40, 50], &[25]);
    writer.join().unwrap();
    read_all(&idx, &[10, 20, 25, 30, 40, 50], &[]);
}

#[test]
fn reader_vs_leaf_split_validates() {
    loom::model_bounded(PREEMPTIONS, || reader_vs_leaf_split(OrderedIndex::new("t")));
}

/// Teeth: the same race with readers that trust what they read — no
/// version re-validation — must lose a key to the split.
#[test]
#[should_panic(expected = "preloaded key lost")]
fn explorer_catches_skipped_validation() {
    loom::model_bounded(PREEMPTIONS, || {
        reader_vs_leaf_split(OrderedIndex::without_validation("t"))
    });
}

/// Reader vs root split: the only node there is, full, splits under the
/// reader and a new root goes in above it. A reader that started from
/// the old root must notice that it is only the left half now.
#[test]
fn reader_vs_root_split() {
    loom::model_bounded(PREEMPTIONS, || {
        let idx = OrderedIndex::new("t");
        for key in [10, 20, 30, 40] {
            assert!(idx.insert(key, oid_of(key)));
        }
        let idx = Arc::new(idx);
        let writer = {
            let idx = idx.clone();
            thread::spawn(move || assert!(idx.insert(25, oid_of(25))))
        };
        read_all(&idx, &[10, 20, 30, 40], &[25]);
        writer.join().unwrap();
        read_all(&idx, &[10, 20, 25, 30, 40], &[]);
    });
}

/// Reader vs leaf unlink: the writer drains the right leaf, which leaves
/// the tree (retired, its range absorbed by its neighbour), and then
/// puts a key back where it was.
#[test]
fn reader_vs_leaf_unlink() {
    loom::model_bounded(PREEMPTIONS, || {
        let idx = two_leaves(OrderedIndex::new("t"));
        let writer = {
            let idx = idx.clone();
            thread::spawn(move || {
                assert_eq!(idx.remove(50), Some(oid_of(50)));
                assert!(idx.insert(60, oid_of(60)));
            })
        };
        read_all(&idx, &[10, 20, 30, 40], &[50, 60]);
        writer.join().unwrap();
        read_all(&idx, &[10, 20, 30, 40, 60], &[]);
    });
}

/// Insert vs leaf unlink: one writer drains the right leaf out of the
/// tree while another inserts into that very leaf's range. Whichever way
/// they interleave, the insert must land somewhere a lookup finds it —
/// never in the leaf that was just retired.
#[test]
fn insert_vs_leaf_unlink() {
    loom::model_bounded(PREEMPTIONS, || {
        let idx = two_leaves(OrderedIndex::new("t"));
        let remover = {
            let idx = idx.clone();
            thread::spawn(move || assert_eq!(idx.remove(50), Some(oid_of(50))))
        };
        assert!(idx.insert(60, oid_of(60)));
        remover.join().unwrap();
        read_all(&idx, &[10, 20, 30, 40, 60], &[]);
    });
}

/// Two inserts of one key, into a full leaf: both want the split, one
/// gets it, and one — not necessarily the same — gets the key.
#[test]
fn racing_same_key_inserts() {
    loom::model_bounded(PREEMPTIONS, || {
        let idx = two_leaves(OrderedIndex::new("t"));
        let hash = Arc::new(HashIndex::new("h"));
        let other = {
            let (idx, hash) = (idx.clone(), hash.clone());
            thread::spawn(move || (idx.insert(25, 1), hash.insert(25, 1)))
        };
        let mine = (idx.insert(25, 2), hash.insert(25, 2));
        let theirs = other.join().unwrap();
        assert!(mine.0 != theirs.0, "one winner in the tree");
        assert!(mine.1 != theirs.1, "one winner in the shard");
        assert_eq!(idx.get(25), Some(if mine.0 { 2 } else { 1 }));
        assert_eq!(hash.get(25), Some(if mine.1 { 2 } else { 1 }));
        assert_eq!((idx.len(), hash.len()), (6, 1));
    });
}

/// Reader vs shard growth and backward shift: four keys of one shard,
/// two of them with the same home slot. The writer's insert replaces the
/// shard's full array by one twice its size, and its removal of the
/// first of the colliding pair moves the second back over the hole — key
/// first, then OID — all under a reader of that second key.
#[test]
fn reader_vs_shard_grow() {
    loom::model_bounded(PREEMPTIONS, || {
        let home = |key: u64| (hash(key) << SHARD_BITS) >> (64 - 3);
        let mut shard = (0..).filter(|&key| hash(key) >> (64 - SHARD_BITS) == 0);
        let first = shard.next().unwrap();
        let second = shard.find(|&key| home(key) == home(first)).unwrap();
        let (other, late) = (shard.next().unwrap(), shard.next().unwrap());

        let idx = Arc::new(HashIndex::new("h"));
        for key in [other, first, second] {
            assert!(idx.insert(key, oid_of(key)));
        }
        let writer = {
            let idx = idx.clone();
            thread::spawn(move || {
                assert!(idx.insert(late, oid_of(late)));
                assert_eq!(idx.remove(first), Some(oid_of(first)));
            })
        };
        for key in [second, other] {
            assert_eq!(
                idx.get(key),
                Some(oid_of(key)),
                "preloaded key lost or torn"
            );
        }
        let seen = idx.get(late);
        assert!(
            seen.is_none() || seen == Some(oid_of(late)),
            "torn entry: {seen:?}"
        );
        writer.join().unwrap();
        for key in [second, other, late] {
            assert_eq!(idx.get(key), Some(oid_of(key)));
        }
        assert_eq!((idx.get(first), idx.len()), (None, 3));
    });
}
