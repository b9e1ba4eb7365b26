//! Worker failure containment invariants: the panic firewall, and what
//! a wedged worker does to the plane, driven by seeded chaos from
//! `preempt-faults` and by transactions that wedge.
//!
//! The acceptance bar: with seeded transaction-panic and mid-latch panic
//! injection, a full driver run completes with no process panic, reports
//! zero lost or duplicated committed transactions, leaks zero latches and
//! zero active-txn registry slots at shutdown, and produces a
//! byte-identical trajectory across two same-seed runs.
//!
//! Chaos comes in two kinds (both seeded, both deterministic in virtual
//! time):
//! * `txn_panic_ppm` — panic inside the transaction body; the firewall
//!   must contain it and turn it into a typed abort;
//! * `latch_panic_ppm` — panic *while holding* a write latch; the unwind
//!   must release the latch and the MVCC slot.
//!
//! A wedge is a transaction that burns virtual time without passing a
//! preemption point: nothing replaces its worker, and a sharded plane
//! re-homes the high-priority work that piles up behind it.

use std::sync::Arc;

use preempt_faults::FaultPlan;
use preemptdb::mvcc::{Engine, EngineConfig, Oid, Table};
use preemptdb::sched::{
    clock, run, DriverConfig, Policy, Request, RunReport, Runtime, WorkOutcome, WorkloadFactory,
};
use preemptdb::trace::{TraceConfig, TraceEvent, TraceSession};
use preemptdb::SimConfig;

const N_WORKERS: usize = 4;
const N_ACCOUNTS: u64 = 64;
const INITIAL_BALANCE: u64 = 1_000;

/// A deposit ledger on the real MVCC engine: every high-priority
/// transaction reads two account rows and adds 1 to each, so each
/// *committed* transaction grows the total balance by exactly 2. A lost
/// commit (reported but not applied) or a duplicated one (applied twice)
/// is visible in the post-run snapshot sum. Low-priority transactions
/// are long read-only scans over the same rows — preemption targets
/// that also hold read latches under injected panics.
struct Bank {
    engine: Engine,
    table: Arc<Table>,
    oids: Arc<Vec<Oid>>,
    counter: u64,
}

fn setup_bank() -> (Engine, Arc<Table>, Arc<Vec<Oid>>) {
    let engine = Engine::new(EngineConfig::default());
    let table = engine.create_table("accounts");
    let mut tx = engine.begin_si();
    let mut oids = Vec::with_capacity(N_ACCOUNTS as usize);
    for _ in 0..N_ACCOUNTS {
        let oid = tx
            .insert(&table, &INITIAL_BALANCE.to_le_bytes())
            .expect("seed insert");
        oids.push(oid);
    }
    tx.commit().expect("seed commit");
    (engine, table, Arc::new(oids))
}

impl Bank {
    fn new(engine: Engine, table: Arc<Table>, oids: Arc<Vec<Oid>>) -> Bank {
        Bank {
            engine,
            table,
            oids,
            counter: 0,
        }
    }

    /// Deterministic account pair for the next request (no RNG: the pair
    /// sequence depends only on the request sequence, which the
    /// simulator makes identical across same-seed runs).
    fn next_pair(&mut self) -> (usize, usize) {
        self.counter = self.counter.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let a = (self.counter >> 33) % N_ACCOUNTS;
        let b = (a + 1 + (self.counter >> 17) % (N_ACCOUNTS - 1)) % N_ACCOUNTS;
        (a as usize, b as usize)
    }
}

fn read_balance(tx: &mut preemptdb::mvcc::Transaction<'_>, table: &Table, oid: Oid) -> u64 {
    let raw = tx.read(table, oid).expect("account row visible");
    u64::from_le_bytes(raw[..8].try_into().expect("8-byte balance"))
}

impl WorkloadFactory for Bank {
    fn make_low(&mut self, now: u64) -> Option<Request> {
        let engine = self.engine.clone();
        let table = self.table.clone();
        let oids = self.oids.clone();
        Some(Request::new("scan", 0, now, move || {
            let mut tx = engine.begin_si();
            let mut sum = 0u64;
            for &oid in oids.iter() {
                sum += read_balance(&mut tx, &table, oid);
                // Stretch the scan so it is a worthwhile preemption
                // target (~64 * 20k cycles ≈ 0.5 ms).
                for _ in 0..20 {
                    preemptdb::context::runtime::preempt_point(1_000);
                }
            }
            std::hint::black_box(sum);
            drop(tx);
            WorkOutcome::default()
        }))
    }

    fn make_high(&mut self, now: u64) -> Option<Request> {
        let engine = self.engine.clone();
        let table = self.table.clone();
        let oids = self.oids.clone();
        let (a, b) = self.next_pair();
        Some(Request::new("deposit", 1, now, move || {
            // Internal first-updater-wins retry, like the TPC-C runners:
            // the request commits exactly once or not at all.
            let mut retries = 0u64;
            loop {
                let mut tx = engine.begin_si();
                let va = read_balance(&mut tx, &table, oids[a]);
                if tx.update(&table, oids[a], &(va + 1).to_le_bytes()).is_ok() {
                    let vb = read_balance(&mut tx, &table, oids[b]);
                    if tx.update(&table, oids[b], &(vb + 1).to_le_bytes()).is_ok()
                        && tx.commit().is_ok()
                    {
                        return WorkOutcome::committed(retries);
                    }
                }
                retries += 1;
                if retries > 1_000 {
                    return WorkOutcome::failed(retries);
                }
                preemptdb::context::runtime::preempt_point(2_400);
            }
        }))
    }
}

/// Snapshot sum of all account balances.
fn total_balance(engine: &Engine, table: &Table, oids: &[Oid]) -> u64 {
    let mut tx = engine.begin_si();
    let mut sum = 0u64;
    for &oid in oids {
        sum += read_balance(&mut tx, table, oid);
    }
    sum
}

fn bank_cfg(duration_ms: u64) -> DriverConfig {
    DriverConfig {
        n_workers: N_WORKERS,
        batch_size: 8,
        duration: duration_ms * 2_400_000,
        ..DriverConfig::paper_default(Policy::preemptdb())
    }
}

fn run_sim(plan: FaultPlan, cfg: DriverConfig, factory: Box<dyn WorkloadFactory>) -> RunReport {
    let sim = SimConfig {
        faults: Some(plan),
        ..SimConfig::default()
    };
    run(Runtime::Simulated(sim), cfg, factory)
}

/// Audits that the engine leaked nothing: no registry slot is still
/// active, no record latch is still held, and a fresh read-modify-write
/// transaction gets through every row (which would spin forever on a
/// leaked write latch, and fail on a leaked pending intent).
fn assert_engine_clean(engine: &Engine, table: &Arc<Table>, oids: &[Oid]) {
    assert_eq!(
        engine.registry().active_count(),
        0,
        "active-txn slots leaked past shutdown"
    );
    assert!(
        table.records().all(|r| !r.latch().is_held()),
        "a record latch is still held past shutdown"
    );
    let mut tx = engine.begin_si();
    for &oid in oids {
        let v = read_balance(&mut tx, table, oid);
        tx.update(table, oid, &v.to_le_bytes()).expect("row writable");
    }
    tx.commit().expect("post-run write commits");
}

/// Invariant 1 — panic mid-latch releases the latch and the slot: with
/// panics injected both inside transaction bodies and *while holding a
/// write latch*, the run completes, the firewall contains every panic
/// (captured messages prove it fired), and the shutdown audit finds no
/// held latch, no active slot, and no lost or duplicated deposit.
#[test]
fn panic_mid_latch_releases_latch_and_slot() {
    let (engine, table, oids) = setup_bank();
    let plan = FaultPlan::quiet(41)
        .with_txn_panic_ppm(30_000)
        .with_latch_panic_ppm(50_000);
    let factory = Bank::new(engine.clone(), table.clone(), oids.clone());
    let r = run_sim(plan, bank_cfg(40), Box::new(factory));

    let faults = r.faults.as_ref().expect("ran under a fault plan");
    assert!(faults.txn_panics > 0, "plan injected transaction panics");
    assert!(faults.latch_panics > 0, "plan injected mid-latch panics");
    assert_eq!(
        r.workers.panics,
        faults.txn_panics + faults.latch_panics,
        "every injected panic was contained by the firewall, none twice"
    );
    assert!(
        r.panic_messages.iter().any(|m| m.contains("transaction panic")),
        "txn panic message captured: {:?}",
        r.panic_messages
    );
    assert!(
        r.panic_messages.iter().any(|m| m.contains("write latch")),
        "latch panic message captured: {:?}",
        r.panic_messages
    );
    assert!(
        r.core_failures.is_empty(),
        "no panic escaped to kill a worker core: {:?}",
        r.core_failures
    );

    // Zero lost, zero duplicated: the snapshot says exactly what the
    // report says.
    let expected = N_ACCOUNTS * INITIAL_BALANCE + 2 * r.completed("deposit");
    assert_eq!(
        total_balance(&engine, &table, &oids),
        expected,
        "committed deposits and snapshot disagree"
    );
    assert!(r.completed("deposit") > 50, "deposits kept committing");
    assert_engine_clean(&engine, &table, &oids);
}

/// Invariant 2 — post-recovery snapshot reads match a fault-free run:
/// after a chaos run whose panics the firewall contained, the surviving
/// database is exactly the database a fault-free run would produce for
/// the same committed set — conservation holds, the audit transaction
/// sees every row, and the fault-free control run satisfies the
/// identical audit.
#[test]
fn post_recovery_reads_match_fault_free_same_seed_run() {
    let (engine, table, oids) = setup_bank();
    let plan = FaultPlan::quiet(97)
        .with_txn_panic_ppm(20_000)
        .with_latch_panic_ppm(20_000);
    let factory = Bank::new(engine.clone(), table.clone(), oids.clone());
    let r = run_sim(plan, bank_cfg(60), Box::new(factory));

    assert!(r.workers.panics > 0, "the firewall contained panics");
    let expected = N_ACCOUNTS * INITIAL_BALANCE + 2 * r.completed("deposit");
    assert_eq!(total_balance(&engine, &table, &oids), expected);
    assert_engine_clean(&engine, &table, &oids);

    // Fault-free control with the same workload seed: same audit, same
    // conservation law.
    let (engine2, table2, oids2) = setup_bank();
    let factory2 = Bank::new(engine2.clone(), table2.clone(), oids2.clone());
    let r2 = run_sim(FaultPlan::quiet(97), bank_cfg(60), Box::new(factory2));
    assert_eq!(r2.workers.panics, 0);
    let expected2 = N_ACCOUNTS * INITIAL_BALANCE + 2 * r2.completed("deposit");
    assert_eq!(total_balance(&engine2, &table2, &oids2), expected2);
    assert_engine_clean(&engine2, &table2, &oids2);
}

/// Sharded conservation under chaos: the two-shard plane with panics
/// injected still conserves the ledger, leaks no latch or registry slot,
/// and replays the same counters and committed set across two same-seed
/// runs. Work stealing between the shard-local siblings is live during
/// the run.
#[test]
fn sharded_chaos_conserves_bank_and_replays() {
    fn chaos_run() -> (RunReport, Engine, Arc<Table>, Arc<Vec<Oid>>) {
        let (engine, table, oids) = setup_bank();
        let plan = FaultPlan::quiet(97)
            .with_txn_panic_ppm(20_000)
            .with_latch_panic_ppm(20_000);
        let mut cfg = bank_cfg(60);
        cfg.shards = 2;
        let factory = Bank::new(engine.clone(), table.clone(), oids.clone());
        let r = run_sim(plan, cfg, Box::new(factory));
        (r, engine, table, oids)
    }

    let (r, engine, table, oids) = chaos_run();
    assert!(r.workers.panics > 0, "the firewall contained panics");
    let expected = N_ACCOUNTS * INITIAL_BALANCE + 2 * r.completed("deposit");
    assert_eq!(
        total_balance(&engine, &table, &oids),
        expected,
        "sharded chaos lost or duplicated a deposit"
    );
    assert!(r.completed("deposit") > 50, "deposits kept committing");
    assert_engine_clean(&engine, &table, &oids);

    let (r2, engine2, table2, oids2) = chaos_run();
    assert_eq!(r.completed("deposit"), r2.completed("deposit"));
    assert_eq!(r.workers.panics, r2.workers.panics);
    assert!(
        r.workers.steals > 0,
        "idle shard siblings steal from busy peers"
    );
    assert_eq!(r.workers.steals, r2.workers.steals, "steal count replays");
    assert_eq!(r.scheduler.shootdowns, r2.scheduler.shootdowns);
    assert_eq!(r.fault_trace, r2.fault_trace, "fault decisions replay");
    let expected2 = N_ACCOUNTS * INITIAL_BALANCE + 2 * r2.completed("deposit");
    assert_eq!(total_balance(&engine2, &table2, &oids2), expected2);
    assert_engine_clean(&engine2, &table2, &oids2);
}

/// Cross-shard shootdown fires when a shard wedges: on a highs-only
/// stream, one request in `WEDGE_EVERY` wedges its worker for the rest of
/// the run (it burns virtual time without passing a preemption point, so
/// the receiver goes unpolled and deliveries unacknowledged). Workers
/// wedge at staggered times; the first fully-wedged shard's top queues
/// stop draining, and after the bounded dispatch retries its scheduler
/// gives up locally and re-homes the starved high-priority remainder onto
/// the other, still-live shard's workers. The trace carries the
/// `Shootdown` events with the origin shard attached.
#[test]
fn wedged_shard_shoots_starved_work_cross_shard() {
    const DURATION_MS: u64 = 60;
    const WEDGE_EVERY: u64 = 40;
    struct PointsOnly {
        seq: u64,
    }
    impl WorkloadFactory for PointsOnly {
        fn make_low(&mut self, _now: u64) -> Option<Request> {
            None
        }
        fn make_high(&mut self, now: u64) -> Option<Request> {
            self.seq += 1;
            let wedges = self.seq.is_multiple_of(WEDGE_EVERY);
            Some(Request::new("point", 1, now, move || {
                if wedges {
                    while clock::now_cycles() < DURATION_MS * 2_400_000 {
                        preemptdb::sim::api::advance(10_000);
                        preemptdb::sim::api::yield_now();
                    }
                }
                for _ in 0..20 {
                    preemptdb::context::runtime::preempt_point(1_000);
                }
                WorkOutcome::default()
            }))
        }
    }

    let mut cfg = bank_cfg(DURATION_MS);
    cfg.trace = Some(TraceSession::new(TraceConfig::default()));
    cfg.shards = 2;
    let r = run_sim(FaultPlan::quiet(13), cfg, Box::new(PointsOnly { seq: 0 }));

    assert!(
        r.scheduler.shootdowns > 0,
        "wedged shards must re-home starved work cross-shard"
    );
    let t = r.trace.as_ref().expect("trace session installed");
    let shot: Vec<(u16, u16)> = t
        .records
        .iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::Shootdown { from_shard, worker } => Some((from_shard, worker)),
            _ => None,
        })
        .collect();
    assert_eq!(shot.len() as u64, r.scheduler.shootdowns, "one event per move");
    for (from_shard, worker) in shot {
        assert!(from_shard < 2, "origin shard id is recorded");
        // 4 workers, 2 shards: shard 0 owns workers {0, 1}, shard 1 owns
        // {2, 3}; a shootdown always lands on the *other* shard.
        let target_shard = u16::from(worker >= 2);
        assert_ne!(
            target_shard, from_shard,
            "a shootdown never targets the origin shard's own workers"
        );
    }
}

/// Invariant 3 — determinism of the recovery trace: two runs with the
/// same seeds produce byte-identical fault-decision traces, identical
/// contained-panic sequences (with identical virtual timestamps),
/// identical counters, and identical captured panic messages.
#[test]
fn recovery_trace_is_deterministic() {
    fn chaos_run() -> RunReport {
        let (engine, table, oids) = setup_bank();
        let plan = FaultPlan::quiet(5)
            .with_txn_panic_ppm(25_000)
            .with_latch_panic_ppm(800);
        let mut cfg = bank_cfg(60);
        // Latch traffic would evict the (rare) panic events from the
        // bounded rings; keep the trace to the lifecycle.
        cfg.trace = Some(TraceSession::new(TraceConfig::default().without_latch_events()));
        run_sim(plan, cfg, Box::new(Bank::new(engine, table, oids)))
    }

    let a = chaos_run();
    let b = chaos_run();

    assert_eq!(a.fault_trace, b.fault_trace, "fault decisions diverged");
    assert_eq!(a.panic_messages, b.panic_messages);
    assert_eq!(a.workers.panics, b.workers.panics);
    assert_eq!(a.completed("deposit"), b.completed("deposit"));

    let panics = |r: &RunReport| -> Vec<(u64, TraceEvent)> {
        r.trace
            .as_ref()
            .expect("trace session installed")
            .records
            .iter()
            .filter(|rec| matches!(rec.event, TraceEvent::TxnPanic { .. }))
            .map(|rec| (rec.ts, rec.event))
            .collect()
    };
    let ea = panics(&a);
    assert!(!ea.is_empty(), "trace carries contained panics");
    assert_eq!(ea, panics(&b), "recovery trajectories diverged");
}

/// The ledger identity at 16 workers on one and on two shards, under
/// transaction and mid-latch panics, over 20 seeds each: the ledger holds
/// exactly the deposits the report counts as committed, no transaction
/// or latch outlives the run, and every row is writable afterwards (an
/// aborting transaction unlinks all its pending versions even where the
/// plan would inject a latch panic in the middle).
#[test]
fn deposits_conserve_at_16_workers_across_seeds() {
    for shards in [1, 2] {
        for seed in 0..20 {
            let (engine, table, oids) = setup_bank();
            let plan = FaultPlan::quiet(1_000 + seed)
                .with_txn_panic_ppm(30_000)
                .with_latch_panic_ppm(50_000);
            let mut cfg = bank_cfg(15);
            (cfg.n_workers, cfg.shards, cfg.batch_size) = (16, shards, 64);
            let factory = Bank::new(engine.clone(), table.clone(), oids.clone());
            let r = run_sim(plan, cfg, Box::new(factory));
            let at = format!("seed {seed}, {shards} shard(s)");
            assert!(r.workers.panics > 0, "{at}: the plan injected panics");
            assert_eq!(
                total_balance(&engine, &table, &oids),
                N_ACCOUNTS * INITIAL_BALANCE + 2 * r.completed("deposit"),
                "{at}: ledger and reported deposits disagree"
            );
            assert_eq!(engine.registry().active_count(), 0, "{at}: slots leaked");
            assert!(
                table.records().all(|r| !r.latch().is_held()),
                "{at}: a record latch is still held"
            );
            let mut tx = engine.begin_si();
            let unwritable: Vec<Oid> = oids
                .iter()
                .copied()
                .filter(|&oid| tx.update(&table, oid, &[0; 8]).is_err())
                .collect();
            assert!(
                unwritable.is_empty(),
                "{at}: rows {unwritable:?} unwritable"
            );
        }
    }
}
