//! Crash recovery via redo-log replay: run transactions with log capture,
//! "crash" (drop the engine), replay the log into a fresh engine, rebuild
//! an index, and verify the database — including time-travel reads at old
//! snapshots.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use preemptdb::mvcc::recovery::{rebuild_hash_index, replay_chunks};
use preemptdb::{Engine, EngineConfig};

fn main() {
    // --- before the crash: an engine with log capture enabled ---
    let engine = Engine::new(EngineConfig { capture_log: true });
    let accounts = engine.create_table("accounts");

    let mut tx = engine.begin_si();
    let mut oids = Vec::new();
    for k in 0..100u64 {
        let mut row = Vec::new();
        row.extend_from_slice(&k.to_le_bytes()); // key
        row.extend_from_slice(&1_000i64.to_le_bytes()); // balance
        oids.push(tx.insert(&accounts, &row).unwrap());
    }
    let snapshot_ts = tx.commit().unwrap();
    println!("loaded 100 accounts (commit ts {snapshot_ts})");

    // Some history: transfers and one account closure.
    for i in 0..40 {
        let mut tx = engine.begin_si();
        let from = oids[i % 100];
        let to = oids[(i * 7 + 3) % 100];
        for &oid in &[from, to] {
            let row = tx.read(&accounts, oid).unwrap().to_vec();
            let mut balance = i64::from_le_bytes(row[8..16].try_into().unwrap());
            balance += if oid == from { -50 } else { 50 };
            let mut new_row = row.clone();
            new_row[8..16].copy_from_slice(&balance.to_le_bytes());
            tx.update(&accounts, oid, &new_row).unwrap();
        }
        tx.commit().unwrap();
    }
    let mut tx = engine.begin_si();
    tx.delete(&accounts, oids[99]).unwrap();
    tx.commit().unwrap();
    println!(
        "ran 41 more transactions; log: {} chunks, {} bytes",
        engine.log().flushes(),
        engine.log().bytes()
    );

    let chunks = engine.log().captured();
    let pre_crash_ts = engine.current_ts();
    drop(engine); // --- the crash ---

    // --- recovery ---
    let recovered = Engine::new(EngineConfig::default());
    let accounts2 = recovered.create_table("accounts"); // same catalog
    let stats = replay_chunks(&recovered, &chunks).expect("replay");
    println!(
        "replayed {} transactions / {} entries ({} tombstones), clock -> {}",
        stats.transactions, stats.entries, stats.tombstones, stats.max_commit_ts
    );
    assert_eq!(recovered.current_ts(), pre_crash_ts);

    // Rebuild the key index by scanning (indexes are derived state).
    let index = rebuild_hash_index(&recovered, &accounts2, |row| {
        u64::from_le_bytes(row[..8].try_into().unwrap())
    });
    println!("rebuilt hash index: {} keys", index.len());
    assert_eq!(index.len(), 99, "account 99 stayed deleted");

    // Verify balances are conserved and history is intact.
    let mut audit = recovered.begin_si();
    let mut total = 0i64;
    for k in 0..99u64 {
        let oid = index.get(k).expect("key present");
        let row = audit.read(&accounts2, oid).expect("row visible");
        total += i64::from_le_bytes(row[8..16].try_into().unwrap());
    }
    println!("sum of 99 surviving balances: {total}");

    // Time travel: at the load snapshot, every account still has 1000 and
    // account 99 still exists.
    let rec99 = accounts2.record(oids[99]).unwrap();
    // SAFETY: `audit` is registered in `recovered` until its commit below,
    // so no version these walks can reach is reclaimed under them.
    let (then, now) = unsafe { (rec99.visible(snapshot_ts, 0), rec99.visible(u64::MAX, 0)) };
    assert!(then.data.is_some() && now.data.is_none());
    println!("time-travel read at ts {snapshot_ts}: account 99 visible pre-delete ✓");
    audit.commit().unwrap();

    println!("recovery complete: the replayed database matches the original.");
}
