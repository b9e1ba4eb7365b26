//! # preempt-mvcc
//!
//! An ERMIA-style memory-optimized multi-version storage engine (paper
//! §2.2): version chains with global commit timestamps, snapshot-isolation
//! and read-committed reads **without pessimistic locks**, optimistic
//! first-updater-wins writes, OCC certification for serializability,
//! per-context redo-log buffers, and watermark-based version reclamation.
//!
//! Two properties make this engine the substrate the paper needs:
//!
//! 1. **Optimistic reads** — interrupting a long reader wastes no work and
//!    can neither block nor abort anyone (§1.2, observation 1);
//! 2. **Preemption awareness** — every operation executes a preemption
//!    point with its nominal cycle cost, and every latch-holding section
//!    (index APIs, version installation, validation/commit/abort) is
//!    wrapped in a non-preemptible region (§4.4).
//!
//! ```
//! use preempt_mvcc::{Engine, EngineConfig};
//!
//! let engine = Engine::new(EngineConfig::default());
//! let accounts = engine.create_table("accounts");
//!
//! // Insert + commit.
//! let mut tx = engine.begin_si();
//! let alice = tx.insert(&accounts, b"balance=100").unwrap();
//! tx.commit().unwrap();
//!
//! // Snapshot isolation: a reader that started before a later update
//! // keeps seeing its snapshot.
//! let mut reader = engine.begin_si();
//! let mut writer = engine.begin_si();
//! writer.update(&accounts, alice, b"balance=50").unwrap();
//! writer.commit().unwrap();
//! assert_eq!(reader.read(&accounts, alice).unwrap().as_ref(), b"balance=100");
//! ```

pub mod costs;
pub mod engine;
pub mod error;
pub mod index;
pub mod latch;
mod limbo;
pub mod log;
pub mod recovery;
pub mod registry;
mod sync;
pub mod table;
pub mod txn;
pub mod version;

#[cfg(all(test, loom))]
mod loom_tests;

pub use engine::{Engine, EngineConfig, EngineStats};
pub use error::{TxError, TxResult};
pub use index::{ControlFlow, HashIndex, OrderedIndex};
pub use latch::Latch;
pub use recovery::{replay_chunks, ReplayStats};
pub use table::{Table, TableId};
pub use txn::{IsolationLevel, Transaction};
pub use version::{Oid, Record, Row, Timestamp};

/// Pre-touches the calling context's context-local engine state — its
/// redo buffer — so that the context's first transaction allocates no
/// context-local slot. Workers call it on each of their contexts before
/// serving requests.
pub fn init_context() {
    log::buffered_bytes();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    #[test]
    fn insert_read_round_trip() {
        let e = engine();
        let t = e.create_table("t");
        let mut tx = e.begin_si();
        let oid = tx.insert(&t, b"hello").unwrap();
        assert_eq!(
            tx.read(&t, oid).unwrap().as_ref(),
            b"hello",
            "read-your-own-writes"
        );
        tx.commit().unwrap();

        let mut tx2 = e.begin_si();
        assert_eq!(tx2.read(&t, oid).unwrap().as_ref(), b"hello");
    }

    #[test]
    fn uncommitted_writes_are_invisible() {
        let e = engine();
        let t = e.create_table("t");
        let mut tx = e.begin_si();
        let oid = tx.insert(&t, b"dirty").unwrap();

        let mut other = e.begin_si();
        assert!(other.read(&t, oid).is_none(), "dirty read prevented");
        tx.commit().unwrap();
        // `other` began before the commit: still invisible under SI.
        assert!(other.read(&t, oid).is_none(), "snapshot stability");

        let mut fresh = e.begin_si();
        assert!(fresh.read(&t, oid).is_some());
    }

    #[test]
    fn read_committed_sees_latest() {
        let e = engine();
        let t = e.create_table("t");
        let mut tx = e.begin_si();
        let oid = tx.insert(&t, b"v1").unwrap();
        tx.commit().unwrap();

        let mut rc = e.begin(IsolationLevel::ReadCommitted);
        assert_eq!(rc.read(&t, oid).unwrap().as_ref(), b"v1");

        let mut w = e.begin_si();
        w.update(&t, oid, b"v2").unwrap();
        w.commit().unwrap();

        assert_eq!(
            rc.read(&t, oid).unwrap().as_ref(),
            b"v2",
            "read committed is not snapshot-stable"
        );
    }

    #[test]
    fn abort_rolls_back_everything() {
        let e = engine();
        let t = e.create_table("t");
        let idx = Arc::new(HashIndex::new("pk"));

        let mut setup = e.begin_si();
        let oid = setup.insert_indexed(&t, &idx, 1, b"base").unwrap();
        setup.commit().unwrap();

        let mut tx = e.begin_si();
        tx.update(&t, oid, b"changed").unwrap();
        let oid2 = tx.insert_indexed(&t, &idx, 2, b"new").unwrap();
        tx.abort();

        let mut check = e.begin_si();
        assert_eq!(check.read(&t, oid).unwrap().as_ref(), b"base");
        assert!(check.read(&t, oid2).is_none());
        assert_eq!(idx.get(2), None, "index entry undone");
        assert_eq!(idx.get(1), Some(oid));
    }

    /// `(key, oid)` of an entry a transaction removed comes back exactly
    /// on abort, in both kinds of index.
    #[test]
    fn aborted_index_removes_restore_the_exact_entry() {
        let e = engine();
        let t = e.create_table("t");
        let hash = Arc::new(HashIndex::new("pk"));
        let ordered = Arc::new(OrderedIndex::new("range"));
        let mut setup = e.begin_si();
        let oids: Vec<Oid> = (0..40u64)
            .map(|k| {
                let oid = setup.insert_indexed(&t, &hash, k, b"row").unwrap();
                setup.index_insert_ordered(&ordered, k, oid).unwrap();
                oid
            })
            .collect();
        setup.commit().unwrap();

        let mut tx = e.begin_si();
        for k in [0u64, 17, 39] {
            tx.delete(&t, oids[k as usize]).unwrap();
            assert_eq!(tx.index_remove(&hash, k).unwrap(), Some(oids[k as usize]));
            assert_eq!(
                tx.index_remove_ordered(&ordered, k).unwrap(),
                Some(oids[k as usize])
            );
            assert_eq!((hash.get(k), ordered.get(k)), (None, None));
        }
        assert_eq!(
            tx.index_remove(&hash, 99).unwrap(),
            None,
            "absent: nothing to undo"
        );
        assert_eq!((hash.len(), ordered.len()), (37, 37));
        tx.abort();

        assert_eq!((hash.len(), ordered.len()), (40, 40));
        for (k, &oid) in oids.iter().enumerate() {
            assert_eq!(hash.get(k as u64), Some(oid));
            assert_eq!(ordered.get(k as u64), Some(oid));
        }
        let mut scanned = Vec::new();
        ordered.range_scan(0, u64::MAX, |k, oid| {
            scanned.push((k, oid));
            ControlFlow::Continue(())
        });
        assert_eq!(scanned, (0..40).zip(oids).collect::<Vec<_>>());
    }

    /// An aborted indexed insert leaves no entry and no count behind, in
    /// both kinds of index, whether it aborted itself or was refused.
    #[test]
    fn aborted_indexed_inserts_leave_no_entry() {
        let e = engine();
        let t = e.create_table("t");
        let hash = Arc::new(HashIndex::new("pk"));
        let ordered = Arc::new(OrderedIndex::new("range"));
        let mut setup = e.begin_si();
        let base = setup.insert_indexed(&t, &hash, 1, b"base").unwrap();
        let base_ordered = setup
            .insert_indexed_ordered(&t, &ordered, 1, b"base")
            .unwrap();
        setup.commit().unwrap();

        let mut tx = e.begin_si();
        for k in 2..30u64 {
            let oid = tx.insert_indexed(&t, &hash, k, b"new").unwrap();
            tx.index_insert_ordered(&ordered, k, oid).unwrap();
            tx.insert_indexed_ordered(&t, &ordered, 100 + k, b"new")
                .unwrap();
            tx.index_insert(&hash, 100 + k, oid).unwrap();
        }
        assert_eq!((hash.len(), ordered.len()), (57, 57));
        tx.abort();
        for k in (2..30u64).flat_map(|k| [k, 100 + k]) {
            assert_eq!((hash.get(k), ordered.get(k)), (None, None), "key {k}");
        }
        assert_eq!((hash.len(), ordered.len()), (1, 1));

        // A duplicate key aborts the transaction, and with it the entries
        // it did get in; the entry it collided with is not its to remove.
        let mut tx = e.begin_si();
        tx.insert_indexed(&t, &hash, 2, b"new").unwrap();
        assert_eq!(
            tx.insert_indexed(&t, &hash, 1, b"dup"),
            Err(TxError::WriteConflict)
        );
        let mut tx = e.begin_si();
        tx.insert_indexed_ordered(&t, &ordered, 2, b"new").unwrap();
        assert_eq!(
            tx.insert_indexed_ordered(&t, &ordered, 1, b"dup"),
            Err(TxError::WriteConflict)
        );
        assert_eq!((hash.get(2), ordered.get(2)), (None, None));
        assert_eq!(
            (hash.get(1), ordered.get(1)),
            (Some(base), Some(base_ordered))
        );
        assert_eq!((hash.len(), ordered.len()), (1, 1));
    }

    /// The rule `IndexUndo` documents, broken: somebody takes the key
    /// between the remove and the abort. The restored entry is lost, and
    /// a debug build says so.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "was taken before the abort")]
    fn a_key_taken_before_the_abort_is_reported() {
        let e = engine();
        let t = e.create_table("t");
        let ordered = Arc::new(OrderedIndex::new("range"));
        let mut setup = e.begin_si();
        setup
            .insert_indexed_ordered(&t, &ordered, 7, b"row")
            .unwrap();
        setup.commit().unwrap();

        let mut tx = e.begin_si();
        tx.index_remove_ordered(&ordered, 7).unwrap();
        assert!(ordered.insert(7, 12345), "no write intent kept the key");
        tx.abort();
    }

    #[test]
    fn drop_without_commit_aborts() {
        let e = engine();
        let t = e.create_table("t");
        let oid;
        {
            let mut tx = e.begin_si();
            oid = tx.insert(&t, b"x").unwrap();
            // dropped here
        }
        let mut check = e.begin_si();
        assert!(check.read(&t, oid).is_none());
        assert_eq!(e.stats().aborts, 1);
    }

    #[test]
    fn write_write_conflict_aborts_second_writer() {
        let e = engine();
        let t = e.create_table("t");
        let mut setup = e.begin_si();
        let oid = setup.insert(&t, b"v0").unwrap();
        setup.commit().unwrap();

        let mut a = e.begin_si();
        let mut b = e.begin_si();
        a.update(&t, oid, b"a").unwrap();
        assert_eq!(b.update(&t, oid, b"b"), Err(TxError::WriteConflict));
        a.commit().unwrap();
    }

    #[test]
    fn si_first_committer_wins_after_commit() {
        let e = engine();
        let t = e.create_table("t");
        let mut setup = e.begin_si();
        let oid = setup.insert(&t, b"v0").unwrap();
        setup.commit().unwrap();

        let mut b = e.begin_si(); // snapshot taken before a's commit
        let mut a = e.begin_si();
        a.update(&t, oid, b"a").unwrap();
        a.commit().unwrap();
        // b's snapshot predates a's commit: its write must conflict.
        assert_eq!(b.update(&t, oid, b"b"), Err(TxError::WriteConflict));
    }

    #[test]
    fn serializable_validation_catches_read_skew() {
        let e = engine();
        let t = e.create_table("t");
        let mut setup = e.begin_si();
        let x = setup.insert(&t, b"x0").unwrap();
        let y = setup.insert(&t, b"y0").unwrap();
        setup.commit().unwrap();

        // T1 reads x, will write y. T2 updates x concurrently and commits.
        let mut t1 = e.begin(IsolationLevel::Serializable);
        assert!(t1.read(&t, x).is_some());

        let mut t2 = e.begin_si();
        t2.update(&t, x, b"x1").unwrap();
        t2.commit().unwrap();

        t1.update(&t, y, b"y1").unwrap();
        assert_eq!(t1.commit(), Err(TxError::ValidationFailed));
    }

    #[test]
    fn serializable_passes_without_interference() {
        let e = engine();
        let t = e.create_table("t");
        let mut setup = e.begin_si();
        let x = setup.insert(&t, b"x0").unwrap();
        let y = setup.insert(&t, b"y0").unwrap();
        setup.commit().unwrap();

        let mut t1 = e.begin(IsolationLevel::Serializable);
        assert!(t1.read(&t, x).is_some());
        t1.update(&t, y, b"y1").unwrap();
        t1.commit().unwrap();
    }

    #[test]
    fn delete_is_a_tombstone() {
        let e = engine();
        let t = e.create_table("t");
        let mut setup = e.begin_si();
        let oid = setup.insert(&t, b"here").unwrap();
        setup.commit().unwrap();

        let mut snap = e.begin_si(); // before the delete

        let mut del = e.begin_si();
        del.delete(&t, oid).unwrap();
        del.commit().unwrap();

        assert!(snap.read(&t, oid).is_some(), "old snapshot unaffected");
        let mut fresh = e.begin_si();
        assert!(fresh.read(&t, oid).is_none());
    }

    #[test]
    fn read_only_commit_does_not_advance_clock() {
        let e = engine();
        let t = e.create_table("t");
        let mut setup = e.begin_si();
        setup.insert(&t, b"x").unwrap();
        setup.commit().unwrap();
        let ts = e.current_ts();

        let mut ro = e.begin_si();
        let _ = ro.read(&t, 0);
        ro.commit().unwrap();
        assert_eq!(e.current_ts(), ts);
    }

    #[test]
    fn stats_track_operations() {
        let e = engine();
        let t = e.create_table("t");
        let mut tx = e.begin_si();
        let oid = tx.insert(&t, b"a").unwrap();
        tx.commit().unwrap();
        let mut tx = e.begin_si();
        let _ = tx.read(&t, oid);
        tx.commit().unwrap();
        let s = e.stats();
        assert_eq!(s.commits, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
    }

    #[test]
    fn version_chains_get_trimmed_under_updates() {
        let e = engine();
        let t = e.create_table("t");
        let mut setup = e.begin_si();
        let oid = setup.insert(&t, b"v").unwrap();
        setup.commit().unwrap();

        // Many sequential updates with no concurrent readers: the chain
        // must not grow unboundedly (inline GC every 64 txids).
        for i in 0..1000u32 {
            let mut tx = e.begin_si();
            tx.update(&t, oid, &i.to_le_bytes()).unwrap();
            tx.commit().unwrap();
        }
        let rec = t.record(oid).unwrap();
        assert!(
            rec.chain_len() < 200,
            "chain length {} suggests GC is not running",
            rec.chain_len()
        );
        assert!(t.trimmed_versions() > 0);
    }

    #[test]
    fn concurrent_transfer_invariant() {
        // Classic bank transfer under SI with retries: total is conserved.
        let e = engine();
        let t = e.create_table("accounts");
        let mut setup = e.begin_si();
        let a = setup.insert(&t, &100i64.to_le_bytes()).unwrap();
        let b = setup.insert(&t, &100i64.to_le_bytes()).unwrap();
        setup.commit().unwrap();

        let decode = |p: Row| i64::from_le_bytes(p.as_ref().try_into().unwrap());

        let e2 = e.clone();
        let t2 = t.clone();
        let mut handles = Vec::new();
        for dir in 0..2 {
            let e = e2.clone();
            let t = t2.clone();
            handles.push(std::thread::spawn(move || {
                let (from, to) = if dir == 0 { (a, b) } else { (b, a) };
                let mut done = 0;
                while done < 200 {
                    let mut tx = e.begin_si();
                    let fv = decode(tx.read(&t, from).unwrap());
                    let tv = decode(tx.read(&t, to).unwrap());
                    if tx.update(&t, from, &(fv - 1).to_le_bytes()).is_err() {
                        continue;
                    }
                    if tx.update(&t, to, &(tv + 1).to_le_bytes()).is_err() {
                        continue;
                    }
                    if tx.commit().is_ok() {
                        done += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut check = e.begin_si();
        let total = decode(check.read(&t, a).unwrap()) + decode(check.read(&t, b).unwrap());
        assert_eq!(total, 200, "money conserved under concurrent transfers");
    }
}
