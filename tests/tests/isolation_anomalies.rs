//! Isolation-level semantics: the anomalies snapshot isolation permits
//! and OCC certification rejects — the concurrency-control foundation
//! (§2.2) that preemptive scheduling relies on.

use preemptdb::{Engine, EngineConfig, IsolationLevel, TxError};

fn engine() -> Engine {
    Engine::new(EngineConfig::default())
}

/// Classic write skew: T1 reads {x, y} writes x; T2 reads {x, y} writes
/// y. Snapshot isolation commits both (the anomaly); serializable
/// certification must abort one.
#[test]
fn write_skew_allowed_under_si_rejected_under_serializable() {
    // Under SI: both commit.
    {
        let e = engine();
        let t = e.create_table("doctors");
        let mut setup = e.begin_si();
        let x = setup.insert(&t, b"on-call").unwrap();
        let y = setup.insert(&t, b"on-call").unwrap();
        setup.commit().unwrap();

        let mut t1 = e.begin(IsolationLevel::SnapshotIsolation);
        let mut t2 = e.begin(IsolationLevel::SnapshotIsolation);
        assert!(t1.read(&t, x).is_some() && t1.read(&t, y).is_some());
        assert!(t2.read(&t, x).is_some() && t2.read(&t, y).is_some());
        t1.update(&t, x, b"off-call").unwrap();
        t2.update(&t, y, b"off-call").unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap(); // SI permits the skew
    }
    // Under Serializable: the second committer fails validation.
    {
        let e = engine();
        let t = e.create_table("doctors");
        let mut setup = e.begin_si();
        let x = setup.insert(&t, b"on-call").unwrap();
        let y = setup.insert(&t, b"on-call").unwrap();
        setup.commit().unwrap();

        let mut t1 = e.begin(IsolationLevel::Serializable);
        let mut t2 = e.begin(IsolationLevel::Serializable);
        assert!(t1.read(&t, x).is_some() && t1.read(&t, y).is_some());
        assert!(t2.read(&t, x).is_some() && t2.read(&t, y).is_some());
        t1.update(&t, x, b"off-call").unwrap();
        t2.update(&t, y, b"off-call").unwrap();
        t1.commit().unwrap();
        assert_eq!(t2.commit(), Err(TxError::ValidationFailed));
    }
}

/// Lost update is prevented even under SI (first-updater/committer wins).
#[test]
fn lost_update_prevented_under_si() {
    let e = engine();
    let t = e.create_table("counter");
    let mut setup = e.begin_si();
    let oid = setup.insert(&t, &0u64.to_le_bytes()).unwrap();
    setup.commit().unwrap();

    let mut a = e.begin_si();
    let mut b = e.begin_si();
    let va = u64::from_le_bytes(a.read(&t, oid).unwrap().as_ref().try_into().unwrap());
    let vb = u64::from_le_bytes(b.read(&t, oid).unwrap().as_ref().try_into().unwrap());
    a.update(&t, oid, &(va + 1).to_le_bytes()).unwrap();
    // B's update conflicts with A's in-flight write immediately.
    assert_eq!(b.update(&t, oid, &(vb + 1).to_le_bytes()), Err(TxError::WriteConflict));
    a.commit().unwrap();
}

/// Read-committed sees each newest committed version but never dirty
/// data.
#[test]
fn read_committed_never_reads_dirty() {
    let e = engine();
    let t = e.create_table("t");
    let mut setup = e.begin_si();
    let oid = setup.insert(&t, b"clean").unwrap();
    setup.commit().unwrap();

    let mut writer = e.begin_si();
    writer.update(&t, oid, b"dirty").unwrap();

    let mut rc = e.begin(IsolationLevel::ReadCommitted);
    assert_eq!(rc.read(&t, oid).unwrap().as_ref(), b"clean");
    writer.commit().unwrap();
    assert_eq!(rc.read(&t, oid).unwrap().as_ref(), b"dirty");
}

/// A serializable read-only transaction always commits (a snapshot read
/// is trivially consistent).
#[test]
fn serializable_read_only_always_commits() {
    let e = engine();
    let t = e.create_table("t");
    let mut setup = e.begin_si();
    let oid = setup.insert(&t, b"v").unwrap();
    setup.commit().unwrap();

    let mut ro = e.begin(IsolationLevel::Serializable);
    assert!(ro.read(&t, oid).is_some());

    // Concurrent churn after ro's snapshot.
    for i in 0..5u8 {
        let mut w = e.begin_si();
        w.update(&t, oid, &[i]).unwrap();
        w.commit().unwrap();
    }
    ro.commit().unwrap();
}

/// Serializable validation latches in address order: many transactions
/// with overlapping read/write sets, run concurrently from real threads,
/// terminate (no deadlock) and preserve a serializable invariant.
#[test]
fn concurrent_serializable_transfers_terminate_and_conserve() {
    let e = engine();
    let t = e.create_table("accts");
    let mut setup = e.begin_si();
    let oids: Vec<u64> = (0..8)
        .map(|_| setup.insert(&t, &100i64.to_le_bytes()).unwrap())
        .collect();
    setup.commit().unwrap();

    let mut handles = Vec::new();
    for tid in 0..4u64 {
        let e = e.clone();
        let t = t.clone();
        let oids = oids.clone();
        handles.push(std::thread::spawn(move || {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(tid);
            let mut committed = 0;
            while committed < 50 {
                let from = oids[rng.random_range(0..oids.len())];
                let to = oids[rng.random_range(0..oids.len())];
                if from == to {
                    continue;
                }
                let mut tx = e.begin(IsolationLevel::Serializable);
                // A row is borrowed until the next call on the transaction:
                // decode each before reading the other.
                let Some(fp) = tx.read(&t, from) else { continue };
                let fv = i64::from_le_bytes(fp.as_ref().try_into().unwrap());
                let Some(tp) = tx.read(&t, to) else { continue };
                let tv = i64::from_le_bytes(tp.as_ref().try_into().unwrap());
                if tx.update(&t, from, &(fv - 1).to_le_bytes()).is_err() {
                    continue;
                }
                if tx.update(&t, to, &(tv + 1).to_le_bytes()).is_err() {
                    continue;
                }
                if tx.commit().is_ok() {
                    committed += 1;
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let mut audit = e.begin_si();
    let total: i64 = oids
        .iter()
        .map(|&o| i64::from_le_bytes(audit.read(&t, o).unwrap().as_ref().try_into().unwrap()))
        .sum();
    assert_eq!(total, 800, "money conserved across 200 serializable transfers");
    audit.commit().unwrap();
}
