//! Real-thread stress of the optimistic indexes, at their production node
//! and array sizes (the unit tests and the loom models in `src/` run
//! them small).
//!
//! Readers take no latch: a lookup or a scan that races a split, an
//! unlink or a shard's growth must notice and start over. What it may
//! never do is return something no instant of the index held: a key out
//! of order or twice in one scan, a preloaded key missing, an OID that
//! was not its key's. Every OID here is derived from its key, so a pair
//! read half before and half after a writer shows.
//!
//! Two threads on one core prove little, so the run is sized by work, not
//! time; loop the release binary (as for `memory_protocol.rs`) when
//! touching `index.rs`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use preempt_mvcc::{ControlFlow, HashIndex, Oid, OrderedIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Preloaded keys are the multiples of `STRIDE`; the others arrive (and
/// some leave) while the readers run, in between them, so that every
/// leaf and every probe run is written under the readers' feet.
const STRIDE: u64 = 8;
const PRELOADED: u64 = 30_000;
const INSERTERS: u64 = 2;
/// Times the writers go over their keys.
const ROUNDS: u64 = 8;

fn oid_of(key: u64) -> Oid {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1
}

/// The preloaded keys nobody removes: every other one.
fn permanent(key: u64) -> bool {
    key.is_multiple_of(2 * STRIDE)
}

/// One full scan and one of a random range: strictly ascending, inside
/// the range, OIDs matching, and the permanent keys all there.
fn check_scans(idx: &OrderedIndex, rng: &mut SmallRng) {
    let span = PRELOADED * STRIDE;
    let (a, b) = (rng.random_range(0..span), rng.random_range(0..span));
    for (lo, hi) in [(0, u64::MAX), (a.min(b), a.max(b))] {
        let mut last = None;
        let mut permanents = 0u64;
        idx.range_scan(lo, hi, |key, oid| {
            assert!((lo..=hi).contains(&key), "{key} outside [{lo}, {hi}]");
            assert!(
                last < Some(key),
                "{key} after {last:?}: out of order or seen twice"
            );
            assert_eq!(oid, oid_of(key), "key {key} with another key's OID");
            last = Some(key);
            permanents += u64::from(permanent(key));
            ControlFlow::Continue(())
        });
        let hi = hi.min(span - 1);
        let expected = hi / (2 * STRIDE) + 1 - lo.div_ceil(2 * STRIDE);
        assert_eq!(permanents, expected, "permanent keys in [{lo}, {hi}]");
    }
}

#[test]
fn ordered_readers_never_see_a_torn_tree() {
    let idx = OrderedIndex::new("stress");
    for i in 0..PRELOADED {
        assert!(idx.insert(i * STRIDE, oid_of(i * STRIDE)));
    }
    let done = AtomicBool::new(false);
    let start = Barrier::new(INSERTERS as usize + 3);
    let scans = std::thread::scope(|scope| {
        // Inserters, on disjoint keys: `t + 1` past each preloaded key,
        // one ascending and one descending.
        let inserters: Vec<_> = (0..INSERTERS)
            .map(|t| {
                let (idx, start) = (&idx, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..ROUNDS {
                        for n in 0..PRELOADED {
                            let i = if t == 0 { n } else { PRELOADED - 1 - n };
                            let key = i * STRIDE + t + 1;
                            assert!(idx.insert(key, oid_of(key)), "{key} is this thread's alone");
                            assert_eq!(idx.get(key), Some(oid_of(key)));
                        }
                        for i in (0..PRELOADED).filter(|_| round + 1 < ROUNDS) {
                            let key = i * STRIDE + t + 1;
                            assert_eq!(idx.remove(key), Some(oid_of(key)));
                        }
                    }
                })
            })
            .collect();
        // The remover takes out every other preloaded key (and, but for
        // the last time, puts it back). Between it and the inserters'
        // removals, leaves drain and are unlinked all the time.
        let remover = {
            let (idx, start) = (&idx, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    for i in (0..PRELOADED).filter(|i| !permanent(i * STRIDE)) {
                        assert_eq!(idx.remove(i * STRIDE), Some(oid_of(i * STRIDE)));
                        assert_eq!(idx.remove(i * STRIDE), None, "removed once");
                    }
                    for i in (0..PRELOADED).filter(|i| !permanent(i * STRIDE) && round + 1 < ROUNDS)
                    {
                        assert!(idx.insert(i * STRIDE, oid_of(i * STRIDE)));
                    }
                }
            })
        };
        let scanners: Vec<_> = (0..2u64)
            .map(|t| {
                let (idx, start, done) = (&idx, &start, &done);
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t);
                    let mut scans = 0u64;
                    start.wait();
                    while !done.load(Ordering::Acquire) {
                        check_scans(idx, &mut rng);
                        let key = rng.random_range(0..PRELOADED / 2) * 2 * STRIDE;
                        assert_eq!(idx.get(key), Some(oid_of(key)), "permanent key {key}");
                        scans += 1;
                    }
                    scans
                })
            })
            .collect();
        for h in inserters {
            h.join().unwrap();
        }
        remover.join().unwrap();
        done.store(true, Ordering::Release);
        scanners.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    assert!(scans > 0);

    // Quiescent: exactly what the writers left.
    let mut expected = BTreeMap::new();
    for i in 0..PRELOADED {
        if permanent(i * STRIDE) {
            expected.insert(i * STRIDE, oid_of(i * STRIDE));
        }
        for t in 0..INSERTERS {
            expected.insert(i * STRIDE + t + 1, oid_of(i * STRIDE + t + 1));
        }
    }
    let mut found = Vec::new();
    idx.range_scan(0, u64::MAX, |k, o| {
        found.push((k, o));
        ControlFlow::Continue(())
    });
    assert_eq!(found, expected.into_iter().collect::<Vec<_>>());
    assert_eq!(idx.len(), found.len());
}

/// `preloaded` keys (every other one permanent) under readers, while two
/// writers insert and remove the keys in between them `rounds` times and
/// a third removes the preloaded keys that are not permanent.
fn hash_stress(preloaded: u64, rounds: u64) {
    let idx = HashIndex::new("stress");
    for i in 0..preloaded {
        assert!(idx.insert(i * STRIDE, oid_of(i * STRIDE)));
    }
    let done = AtomicBool::new(false);
    let start = Barrier::new(INSERTERS as usize + 3);
    std::thread::scope(|scope| {
        // Each inserter also removes what it inserted (the last time
        // round, half of it), so that arrays both grow and have holes
        // shifted shut under the readers.
        let writers: Vec<_> = (0..INSERTERS)
            .map(|t| {
                let (idx, start) = (&idx, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..rounds {
                        for i in 0..preloaded {
                            let key = i * STRIDE + t + 1;
                            assert!(idx.insert(key, oid_of(key)));
                        }
                        for i in (0..preloaded).filter(|i| round + 1 < rounds || i % 2 == 0) {
                            let key = i * STRIDE + t + 1;
                            assert_eq!(idx.remove(key), Some(oid_of(key)));
                        }
                    }
                })
            })
            .collect();
        let remover = {
            let (idx, start) = (&idx, &start);
            scope.spawn(move || {
                start.wait();
                for i in (0..preloaded).filter(|i| !permanent(i * STRIDE)) {
                    assert_eq!(idx.remove(i * STRIDE), Some(oid_of(i * STRIDE)));
                }
            })
        };
        let readers: Vec<_> = (0..2u64)
            .map(|t| {
                let (idx, start, done) = (&idx, &start, &done);
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t);
                    start.wait();
                    while !done.load(Ordering::Acquire) {
                        // Mostly the keys that must be there; sometimes
                        // any key, for the OID it comes with.
                        let r: u64 = rng.random();
                        let key = match r % 4 {
                            0 => (r >> 8) % (preloaded * STRIDE),
                            _ => (r >> 8) % (preloaded / 2) * 2 * STRIDE,
                        };
                        match idx.get(key) {
                            Some(oid) => assert_eq!(oid, oid_of(key), "key {key}"),
                            None => assert!(!permanent(key), "permanent key {key} missing"),
                        }
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        remover.join().unwrap();
        done.store(true, Ordering::Release);
        for h in readers {
            h.join().unwrap();
        }
    });
    for i in 0..preloaded {
        let key = i * STRIDE;
        assert_eq!(idx.get(key), permanent(key).then_some(oid_of(key)));
        for t in 0..INSERTERS {
            let key = key + t + 1;
            assert_eq!(idx.get(key), (i % 2 == 1).then_some(oid_of(key)));
        }
    }
    assert_eq!(idx.len() as u64, preloaded / 2 + INSERTERS * preloaded / 2);
}

/// Many keys, so that the shards' arrays are replaced again and again
/// under the readers.
#[test]
fn hash_readers_never_see_a_torn_shard_while_it_grows() {
    hash_stress(PRELOADED, 2);
}

/// Few keys, so that every reader's key has its probe run rewritten
/// thousands of times.
#[test]
fn hash_readers_never_see_a_torn_probe_run() {
    hash_stress(256, 1_000);
}

/// Two threads insert the same keys at once: each key goes to exactly
/// one of them, and reads as that one's.
#[test]
fn racing_inserts_of_one_key_have_one_winner() {
    const KEYS: u64 = 50_000;
    let ordered = OrderedIndex::new("race");
    let hash = HashIndex::new("race");
    let start = Barrier::new(2);
    let wins = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let (ordered, hash, start, wins) = (&ordered, &hash, &start, &wins);
            scope.spawn(move || {
                start.wait();
                for key in 0..KEYS {
                    // Meet again every so often: a thread that fell
                    // behind would race nothing.
                    if key % 500 == 0 {
                        start.wait();
                    }
                    for won in [ordered.insert(key, t), hash.insert(key, t)] {
                        wins.fetch_add(u64::from(won), Ordering::Relaxed);
                    }
                    let (o, h) = (ordered.get(key), hash.get(key));
                    assert!(o.is_some_and(|w| w < 2) && h.is_some_and(|w| w < 2));
                }
            });
        }
    });
    assert_eq!(
        wins.load(Ordering::Relaxed),
        2 * KEYS,
        "one winner per key and index"
    );
    assert_eq!((ordered.len() as u64, hash.len() as u64), (KEYS, KEYS));
}

/// The unit tests' differential run, at the production fanout: enough
/// keys and churn for inner-node splits and cascading unlinks.
#[test]
fn a_large_tree_matches_a_btreemap() {
    let idx = OrderedIndex::new("diff");
    let mut model = BTreeMap::new();
    let mut rng = SmallRng::seed_from_u64(16);
    for phase in 0..6u64 {
        // Alternately mostly inserting and mostly removing.
        let remove_bias = if phase % 2 == 0 { 2 } else { 8 };
        for _ in 0..60_000 {
            let r: u64 = rng.random();
            let key = (r >> 8) % 40_000 * 3;
            if r % 10 < remove_bias {
                assert_eq!(idx.remove(key), model.remove(&key));
            } else {
                assert_eq!(idx.insert(key, r), !model.contains_key(&key));
                model.entry(key).or_insert(r);
            }
            if r.is_multiple_of(64) {
                let lo = (r >> 24) % 120_000;
                let mut seen = Vec::new();
                idx.range_scan(lo, lo + 500, |k, o| {
                    seen.push((k, o));
                    ControlFlow::Continue(())
                });
                let expect: Vec<_> = model.range(lo..=lo + 500).map(|(k, o)| (*k, *o)).collect();
                assert_eq!(seen, expect);
            }
        }
        assert_eq!(idx.len(), model.len());
    }
    // Drain it, left to right, and use it again.
    for (key, oid) in std::mem::take(&mut model) {
        assert_eq!(idx.remove(key), Some(oid));
    }
    assert!(idx.is_empty());
    assert!(idx.insert(5, 5) && idx.insert(u64::MAX, 6) && idx.insert(0, 7));
    assert_eq!(idx.len(), 3);
}
