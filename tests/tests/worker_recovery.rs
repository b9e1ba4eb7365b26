//! Worker failure containment and recovery invariants (ISSUE 6): the
//! panic firewall, the supervisor's liveness leases, and the central
//! orphan sweep, all driven by seeded chaos from `preempt-faults`.
//!
//! The acceptance bar: with seeded transaction-panic + wedge + mid-latch
//! panic injection, a full driver run completes with no process panic,
//! reports zero lost or duplicated committed transactions, leaks zero
//! latches and zero active-txn registry slots at shutdown, and produces
//! a byte-identical recovery trajectory across two same-seed runs.
//!
//! Chaos comes in three kinds (all seeded, all deterministic in virtual
//! time):
//! * `txn_panic_ppm` — panic inside the transaction body; the firewall
//!   must contain it and turn it into a typed abort;
//! * `latch_panic_ppm` — panic *while holding* a write latch; the unwind
//!   must release the latch and the MVCC slot;
//! * `wedge_ppm`/`wedge_cycles` — the worker burns virtual time without
//!   polling its receiver or acking delivery epochs; the supervisor's
//!   lease must expire, the worker be terminated and respawned (or
//!   quarantined once the respawn budget is spent).

use std::sync::Arc;

use preempt_faults::FaultPlan;
use preemptdb::mvcc::{Engine, EngineConfig, Oid, Table};
use preemptdb::sched::{
    run, DriverConfig, Policy, RecoveryHooks, Request, RobustnessConfig, RunReport, Runtime,
    WorkOutcome, WorkloadFactory,
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

fn bank_cfg(engine: &Engine, duration_ms: u64, rb: RobustnessConfig) -> DriverConfig {
    let sweep_engine = engine.clone();
    DriverConfig {
        n_workers: N_WORKERS,
        batch_size: 8,
        duration: duration_ms * 2_400_000,
        robustness: rb,
        recovery: RecoveryHooks {
            sweep: Some(Arc::new(move |owner| sweep_engine.orphan_sweep(owner))),
            spawner: None, // the sim runner installs its default respawner
        },
        ..DriverConfig::paper_default(Policy::preemptdb())
    }
}

fn chaos_rb() -> RobustnessConfig {
    RobustnessConfig {
        dead_after: 4_800_000, // 2 ms: leases expire within the run
        exit_wait: 2_400_000,
        max_respawns: 100, // keep recovering for the whole run
        ..RobustnessConfig::default()
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
/// active, no worker owns a force-releasable latch or a pending intent,
/// and a fresh read-modify-write transaction gets through every row
/// (which would spin forever on a leaked write latch).
fn assert_engine_clean(engine: &Engine, table: &Arc<Table>, oids: &[Oid]) {
    assert_eq!(
        engine.registry().active_count(),
        0,
        "active-txn slots leaked past shutdown"
    );
    for worker in 0..N_WORKERS as u64 {
        let sweep = engine.orphan_sweep(worker);
        assert!(
            sweep.is_empty(),
            "worker {worker} left orphans behind: {sweep:?}"
        );
    }
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
    let r = run_sim(
        plan,
        bank_cfg(&engine, 40, RobustnessConfig::default()),
        Box::new(factory),
    );

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
/// after a chaos run with panics *and* supervisor-driven kills (wedges),
/// the surviving database is exactly the database a fault-free run
/// would produce for the same committed set — conservation holds, the
/// audit transaction sees every row, and the fault-free control run
/// satisfies the identical audit.
#[test]
fn post_recovery_reads_match_fault_free_same_seed_run() {
    // Chaos run: panics + wedges long enough to trip the lease.
    let (engine, table, oids) = setup_bank();
    let plan = FaultPlan::quiet(97)
        .with_txn_panic_ppm(20_000)
        .with_wedge(8, 24_000_000); // 10 ms wedge vs 2 ms lease
    let factory = Bank::new(engine.clone(), table.clone(), oids.clone());
    let r = run_sim(plan, bank_cfg(&engine, 60, chaos_rb()), Box::new(factory));

    assert!(
        r.scheduler.workers_dead > 0,
        "a wedge tripped the liveness lease"
    );
    assert!(
        r.scheduler.workers_respawned > 0,
        "dead workers were respawned"
    );
    let expected = N_ACCOUNTS * INITIAL_BALANCE + 2 * r.completed("deposit");
    assert_eq!(total_balance(&engine, &table, &oids), expected);
    assert_engine_clean(&engine, &table, &oids);

    // Fault-free control with the same workload seed: same audit, same
    // conservation law, no recovery actions.
    let (engine2, table2, oids2) = setup_bank();
    let factory2 = Bank::new(engine2.clone(), table2.clone(), oids2.clone());
    let r2 = run_sim(
        FaultPlan::quiet(97),
        bank_cfg(&engine2, 60, chaos_rb()),
        Box::new(factory2),
    );
    assert_eq!(r2.scheduler.workers_dead, 0, "no false-positive kills");
    assert_eq!(r2.workers.panics, 0);
    let expected2 = N_ACCOUNTS * INITIAL_BALANCE + 2 * r2.completed("deposit");
    assert_eq!(total_balance(&engine2, &table2, &oids2), expected2);
    assert_engine_clean(&engine2, &table2, &oids2);
}

/// ISSUE 8 — sharded conservation under chaos: the two-shard plane with
/// panics and wedges injected still conserves the ledger, leaks no
/// latch or registry slot, and replays the same recovery counters and
/// committed set across two same-seed runs. Work stealing between the
/// shard-local siblings is live during the run.
#[test]
fn sharded_chaos_conserves_bank_and_replays() {
    fn chaos_run() -> (RunReport, Engine, Arc<Table>, Arc<Vec<Oid>>) {
        let (engine, table, oids) = setup_bank();
        let plan = FaultPlan::quiet(97)
            .with_txn_panic_ppm(20_000)
            .with_wedge(8, 24_000_000);
        let mut cfg = bank_cfg(&engine, 60, chaos_rb());
        cfg.shards = 2;
        let factory = Bank::new(engine.clone(), table.clone(), oids.clone());
        let r = run_sim(plan, cfg, Box::new(factory));
        (r, engine, table, oids)
    }

    let (r, engine, table, oids) = chaos_run();
    assert!(r.scheduler.workers_dead > 0, "a wedge tripped a lease");
    assert!(r.scheduler.workers_respawned > 0, "dead workers respawned");
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
        "idle shard siblings steal from wedged peers"
    );
    assert_eq!(r.workers.steals, r2.workers.steals, "steal count replays");
    assert_eq!(r.scheduler.shootdowns, r2.scheduler.shootdowns);
    assert_eq!(r.scheduler.workers_dead, r2.scheduler.workers_dead);
    assert_eq!(r.scheduler.workers_respawned, r2.scheduler.workers_respawned);
    let expected2 = N_ACCOUNTS * INITIAL_BALANCE + 2 * r2.completed("deposit");
    assert_eq!(total_balance(&engine2, &table2, &oids2), expected2);
    assert_engine_clean(&engine2, &table2, &oids2);
}

/// ISSUE 8 — cross-shard shootdown fires when a shard wedges: with
/// supervision off and workers wedging permanently at staggered times
/// (moderate per-point odds on a highs-only stream, so the two shards
/// do not die in the same tick), the first fully-wedged shard's top
/// queues stop draining; after the bounded dispatch retries its
/// scheduler gives up locally and re-homes the starved high-priority
/// remainder onto the other, still-live shard's workers. The trace
/// carries the `Shootdown` events with the origin shard attached.
#[test]
fn wedged_shard_shoots_starved_work_cross_shard() {
    /// Highs only: no long scans, so wedge arrival is a per-request
    /// geometric draw and the shards wedge out at different ticks.
    struct PointsOnly;
    impl WorkloadFactory for PointsOnly {
        fn make_low(&mut self, _now: u64) -> Option<Request> {
            None
        }
        fn make_high(&mut self, now: u64) -> Option<Request> {
            Some(Request::new("point", 1, now, || {
                for _ in 0..20 {
                    preemptdb::context::runtime::preempt_point(1_000);
                }
                WorkOutcome::default()
            }))
        }
    }

    let plan = FaultPlan::quiet(13).with_wedge(10_000, 1 << 40);
    let session = TraceSession::new(TraceConfig::default());
    let mut cfg = synthetic_cfg(
        60,
        RobustnessConfig {
            supervise: false,
            ..chaos_rb()
        },
        Some(session),
    );
    cfg.shards = 2;
    let r = run_sim(plan, cfg, Box::new(PointsOnly));

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

/// Synthetic no-engine workload for the supervision-timing tests.
struct Synthetic;
impl WorkloadFactory for Synthetic {
    fn make_low(&mut self, now: u64) -> Option<Request> {
        Some(Request::new("scan", 0, now, || {
            for _ in 0..2_000 {
                preemptdb::context::runtime::preempt_point(1_000);
            }
            WorkOutcome::default()
        }))
    }
    fn make_high(&mut self, now: u64) -> Option<Request> {
        Some(Request::new("point", 1, now, || {
            for _ in 0..20 {
                preemptdb::context::runtime::preempt_point(1_000);
            }
            WorkOutcome::default()
        }))
    }
}

fn synthetic_cfg(duration_ms: u64, rb: RobustnessConfig, trace: Option<TraceSession>) -> DriverConfig {
    DriverConfig {
        n_workers: N_WORKERS,
        batch_size: 8,
        duration: duration_ms * 2_400_000,
        robustness: rb,
        trace,
        ..DriverConfig::paper_default(Policy::preemptdb())
    }
}

/// Invariant 3 — wedged-worker detection fires within the configured
/// window: a worker wedged for longer than the run would otherwise
/// tolerate is declared dead while still wedged (the wedge outlives
/// `dead_after` by construction), its replacement keeps completing
/// high-priority work, and an unsupervised control run with the same
/// seed strands its workers and completes strictly less.
#[test]
fn wedge_detection_fires_within_window() {
    // Effectively-infinite wedges: only supervision brings workers back.
    let plan = FaultPlan::quiet(11).with_wedge(6, 1 << 40);
    let session = TraceSession::new(TraceConfig::default());
    let supervised = run_sim(
        plan,
        synthetic_cfg(60, chaos_rb(), Some(session)),
        Box::new(Synthetic),
    );
    assert!(
        supervised.faults.as_ref().expect("fault plan").wedges_injected > 0,
        "the plan actually wedged workers"
    );
    assert!(supervised.scheduler.workers_dead > 0, "lease expired");
    assert!(supervised.scheduler.workers_respawned > 0, "respawned");

    // Detection obeys the window on both sides: no lease can expire
    // before one full `dead_after` window has elapsed, and a window
    // longer than the whole run means no worker is ever declared dead —
    // the knob, not luck, gates detection.
    let trace = supervised.trace.as_ref().expect("trace session installed");
    let deaths: Vec<u64> = trace
        .records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::WorkerDead { .. }))
        .map(|r| r.ts)
        .collect();
    assert!(!deaths.is_empty());
    let rb = chaos_rb();
    for &at in &deaths {
        assert!(
            at >= rb.dead_after,
            "a lease cannot expire before one full window has passed (at={at})"
        );
    }

    let huge_window = run_sim(
        FaultPlan::quiet(11).with_wedge(6, 1 << 40),
        synthetic_cfg(
            60,
            RobustnessConfig {
                dead_after: 1 << 40, // longer than the run
                ..chaos_rb()
            },
            None,
        ),
        Box::new(Synthetic),
    );
    assert_eq!(
        huge_window.scheduler.workers_dead, 0,
        "a window longer than the run never expires"
    );

    let unsupervised = run_sim(
        FaultPlan::quiet(11).with_wedge(6, 1 << 40),
        synthetic_cfg(
            60,
            RobustnessConfig {
                supervise: false,
                ..chaos_rb()
            },
            None,
        ),
        Box::new(Synthetic),
    );
    assert_eq!(unsupervised.scheduler.workers_dead, 0);
    assert!(
        supervised.completed("point") > unsupervised.completed("point"),
        "supervision recovered throughput: supervised={} unsupervised={}",
        supervised.completed("point"),
        unsupervised.completed("point")
    );
}

/// Invariant 4 — quarantine-after-K is honored: with every incarnation
/// wedging immediately and a respawn budget of 2, each worker slot is
/// declared dead exactly 3 times (original + 2 respawns), respawned
/// exactly twice, then quarantined — and the scheduler survives running
/// with every worker quarantined, rejecting stranded queue entries.
#[test]
fn quarantine_after_k_respawns() {
    // Moderate per-point odds with a *finite* wedge: 2 000-point scans
    // wedge near-certainly, 20-point highs rarely — and a worker that
    // does wedge on the top-priority level (where no interrupt is ever
    // sent, so the lease cannot observe it) resumes after 6 ms and gets
    // caught on its next scan instead of stalling the test.
    let plan = FaultPlan::quiet(23).with_wedge(2_000, 14_400_000);
    let rb = RobustnessConfig {
        max_respawns: 2,
        ..chaos_rb()
    };
    let r = run_sim(plan, synthetic_cfg(120, rb, None), Box::new(Synthetic));

    let n = N_WORKERS as u64;
    assert_eq!(
        r.scheduler.workers_dead,
        3 * n,
        "each slot: original death + 2 respawned deaths"
    );
    assert_eq!(r.scheduler.workers_respawned, 2 * n, "budget = 2 per slot");
    assert_eq!(r.scheduler.workers_quarantined, n, "every slot quarantined");
    assert!(
        r.scheduler.rejected_orphaned > 0,
        "stranded queue entries were rejected, not leaked"
    );
}

/// Invariant 5 — determinism of the recovery trace: two runs with the
/// same seeds produce byte-identical fault-decision traces, identical
/// recovery event sequences (panic/death/respawn/sweep, with identical
/// virtual timestamps), identical recovery counters, and identical
/// captured panic messages.
#[test]
fn recovery_trace_is_deterministic() {
    fn chaos_run() -> RunReport {
        let (engine, table, oids) = setup_bank();
        let plan = FaultPlan::quiet(5)
            .with_txn_panic_ppm(25_000)
            .with_latch_panic_ppm(800)
            .with_wedge(8, 24_000_000);
        let mut cfg = bank_cfg(&engine, 60, chaos_rb());
        // Latch traffic would evict the (rare) recovery events from the
        // bounded rings; keep the trace to the lifecycle.
        cfg.trace = Some(TraceSession::new(TraceConfig::default().without_latch_events()));
        run_sim(plan, cfg, Box::new(Bank::new(engine, table, oids)))
    }

    let a = chaos_run();
    let b = chaos_run();

    assert_eq!(a.fault_trace, b.fault_trace, "fault decisions diverged");
    assert_eq!(a.panic_messages, b.panic_messages);
    assert_eq!(a.workers.panics, b.workers.panics);
    assert_eq!(a.scheduler.workers_dead, b.scheduler.workers_dead);
    assert_eq!(a.scheduler.workers_respawned, b.scheduler.workers_respawned);
    assert_eq!(a.scheduler.workers_quarantined, b.scheduler.workers_quarantined);
    assert_eq!(a.scheduler.orphans_aborted, b.scheduler.orphans_aborted);
    assert_eq!(a.completed("deposit"), b.completed("deposit"));

    let recovery_events = |r: &RunReport| -> Vec<(u64, TraceEvent)> {
        r.trace
            .as_ref()
            .expect("trace session installed")
            .records
            .iter()
            .filter(|rec| {
                matches!(
                    rec.event,
                    TraceEvent::TxnPanic { .. }
                        | TraceEvent::WorkerDead { .. }
                        | TraceEvent::WorkerRespawn { .. }
                        | TraceEvent::OrphanSweep { .. }
                )
            })
            .map(|rec| (rec.ts, rec.event))
            .collect()
    };
    let ea = recovery_events(&a);
    assert!(!ea.is_empty(), "chaos produced recovery events");
    assert!(
        ea.iter().any(|(_, e)| matches!(e, TraceEvent::TxnPanic { .. })),
        "trace carries contained panics"
    );
    assert!(
        ea.iter().any(|(_, e)| matches!(e, TraceEvent::WorkerDead { .. })),
        "trace carries lease expiries"
    );
    assert_eq!(ea, recovery_events(&b), "recovery trajectories diverged");
}
