//! Layer probes: direct, timed calls into one layer's public functions,
//! with none of the other layers in the path. Each probe runs a fixed
//! amount of work `batches` times (after one untimed batch) and reports
//! the median batch with the batches' interquartile spread beside it as
//! that probe's own noise floor. The `host.*` probes touch none of the
//! program: if they move, the host moved.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use preemptdb::context::switch::{switch_to, Context};
use preemptdb::context::{preempt_point, tcb, ClsCell, NonPreemptGuard};
use preemptdb::metrics::{Counter, MetricsConfig, MetricsRegistry};
use preemptdb::mvcc::{ControlFlow, Oid};
use preemptdb::prov::Phase;
use preemptdb::sched::clock::freq_hz;
use preemptdb::sched::{AdmissionControl, RequestQueue};
use preemptdb::trace::{TraceConfig, TraceEvent, TraceSession};
use preemptdb::uintr::cycles::cycles_to_ns;
use preemptdb::uintr::latency::{signal_latency_samples, uintr_latency_samples};
use preemptdb::uintr::{UintrReceiver, UipiSender};
use preemptdb::workloads::tpcc::{NewOrderParams, PaymentParams};
use preemptdb::workloads::{setup_mixed, Q2Params, TpchScale};
use preemptdb::{
    Database, DatabaseConfig, Engine, EngineConfig, HashIndex, OrderedIndex, Priority, Request,
    Table, WorkOutcome,
};
use preemptdb_server::proto::{Frame, FrameReader, Op};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::client::echo_floor;
use crate::engine::bench_tpcc_scale;
use crate::gen::Gen;
use crate::recorder::{percentile_sorted, Stat};
use crate::report::Outcome;
use crate::{sim, Plan};

const ROWS: usize = 65_536;

/// Mean ns per call of `f` over `iters` calls, per batch.
fn per_op_ns(batches: usize, iters: u64, mut f: impl FnMut()) -> Stat {
    let mut per_batch = Vec::with_capacity(batches);
    for batch in 0..=batches {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        if batch > 0 {
            per_batch.push(ns);
        }
    }
    Stat::of_batches(&per_batch, iters * batches as u64)
}

/// One value per batch from `f` (which does its own timing).
fn per_batch(batches: usize, n: u64, mut f: impl FnMut() -> f64) -> Stat {
    let values: Vec<f64> = (0..batches).map(|_| f()).collect();
    Stat::of_batches(&values, n * batches as u64)
}

fn pct(samples: &mut [u32], p: f64) -> f64 {
    samples.sort_unstable();
    f64::from(percentile_sorted(samples, p).unwrap_or(0))
}

fn context(out: &mut Outcome, b: usize) {
    let root = tcb::root_ptr() as usize;
    let ctx = Context::with_default_stack("bench", move || loop {
        // SAFETY: `root` is this thread's root TCB, which lives as long as
        // the thread; the context only ever runs on this thread.
        switch_to(unsafe { &*(root as *const tcb::Tcb) });
    })
    .expect("a default stack can be mapped");
    out.metric(
        "context.switch_roundtrip_ns",
        "ns",
        per_op_ns(b, 300_000, || ctx.resume()),
    );
    out.metric(
        "context.preempt_point_ns",
        "ns",
        per_op_ns(b, 3_000_000, || preempt_point(black_box(100))),
    );
    out.metric(
        "context.nonpreempt_guard_ns",
        "ns",
        per_op_ns(b, 3_000_000, || {
            let _region = black_box(NonPreemptGuard::enter());
        }),
    );
    static SLOT: ClsCell<u64> = ClsCell::new(|| 0);
    out.metric(
        "context.cls_access_ns",
        "ns",
        per_op_ns(b, 3_000_000, || SLOT.with(|v| *v = black_box(*v + 1))),
    );
}

fn uintr(out: &mut Outcome, b: usize) {
    let mut rx = UintrReceiver::new();
    rx.register_handler(|_| {});
    let tx = UipiSender::new(rx.upid(), 0);
    out.metric(
        "uintr.poll_empty_ns",
        "ns",
        per_op_ns(b, 3_000_000, || {
            black_box(rx.poll());
        }),
    );
    out.metric(
        "uintr.send_deliver_ns",
        "ns",
        per_op_ns(b, 300_000, || {
            tx.send();
            black_box(rx.poll());
        }),
    );

    let to_ns = |cycles: Vec<u64>| -> Vec<u32> {
        cycles
            .into_iter()
            .map(|c| u32::try_from(cycles_to_ns(c)).unwrap_or(u32::MAX))
            .collect()
    };
    const N: usize = 2_000;
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for _ in 0..b {
        let mut s = to_ns(uintr_latency_samples(N));
        p50.push(pct(&mut s, 50.0));
        p99.push(pct(&mut s, 99.0));
    }
    out.metric(
        "uintr.xthread_p50_ns",
        "ns",
        Stat::of_batches(&p50, (N * b) as u64),
    );
    out.metric(
        "uintr.xthread_p99_ns",
        "ns",
        Stat::of_batches(&p99, (N * b) as u64),
    );
    out.metric(
        "uintr.signal_p50_ns",
        "ns",
        per_batch(b, 500, || {
            pct(&mut to_ns(signal_latency_samples(500)), 50.0)
        }),
    );
}

fn sched(out: &mut Outcome, b: usize) {
    let q = RequestQueue::new(1024);
    out.metric(
        "sched.queue_push_pop_ns",
        "ns",
        per_op_ns(b, 500_000, || {
            let _ = q.push(Request::new("k", 1, 0, WorkOutcome::default));
            black_box(q.pop());
        }),
    );
    // A bucket that never runs dry, so every call does the refill math.
    let mut gate = AdmissionControl::new(1_000_000_000, 1_000_000, freq_hz());
    out.metric(
        "sched.admission_ns",
        "ns",
        per_op_ns(b, 1_000_000, || {
            black_box(gate.try_admit());
        }),
    );
}

/// A table of `ROWS` eight-byte rows, loaded in one transaction.
fn ledger(engine: &Engine, name: &str) -> (Arc<Table>, Vec<Oid>) {
    let table = engine.create_table(name);
    let mut tx = engine.begin_si();
    let oids = (0..ROWS)
        .map(|i| {
            tx.insert(&table, &(i as u64).to_le_bytes())
                .expect("insert into a fresh table")
        })
        .collect();
    tx.commit().expect("load commits");
    (table, oids)
}

fn scan(engine: &Engine, table: &Table, oids: &[Oid]) -> u64 {
    let mut tx = engine.begin_si();
    let mut sum = 0u64;
    for &oid in oids {
        if let Some(raw) = tx.read(table, oid) {
            sum += u64::from(raw[0]);
        }
    }
    tx.commit().expect("read-only commit");
    sum
}

fn core(out: &mut Outcome, b: usize, gen: &mut Gen) {
    let db = Arc::new(Database::open(DatabaseConfig::default().workers(1)));

    // Caller-side cost of a high submit (push + interrupt send + wake):
    // bursts of eight, timed; the wait for the worker to drain is not.
    const BURST: u64 = 8;
    const BURSTS: u64 = 2_000;
    let done = Arc::new(AtomicU64::new(0));
    let mut submitted = 0u64;
    out.metric(
        "core.submit_ns",
        "ns",
        per_batch(b, BURST * BURSTS, || {
            let mut ns = 0u128;
            for _ in 0..BURSTS {
                let t0 = Instant::now();
                for _ in 0..BURST {
                    let done = done.clone();
                    db.submit("probe", Priority::High, move || {
                        done.fetch_add(1, Ordering::Release);
                        WorkOutcome::default()
                    });
                }
                ns += t0.elapsed().as_nanos();
                submitted += BURST;
                while done.load(Ordering::Acquire) < submitted {
                    std::hint::spin_loop();
                }
            }
            ns as f64 / (BURST * BURSTS) as f64
        }),
    );

    // Idle pool: park → unpark → reply.
    out.metric(
        "core.call_idle_p50_us",
        "us",
        per_batch(b, 2_000, || {
            let mut s: Vec<u32> = (0..2_000)
                .map(|_| {
                    let t0 = Instant::now();
                    db.call("probe", Priority::High, || ());
                    t0.elapsed().as_nanos() as u32
                })
                .collect();
            pct(&mut s, 50.0) / 1e3
        }),
    );

    // The paper's path without the wire: the single worker is always
    // inside a low-priority scan (fed back to back by a helper thread),
    // so each high call is delivered by interrupt and runs on the
    // preempting context. The closures stamp their own start and end.
    let engine = db.engine().clone();
    let (table, oids) = ledger(&engine, "probe_ledger");
    let oids = Arc::new(oids);
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let (db, engine, table, oids, stop) = (
            db.clone(),
            engine.clone(),
            table.clone(),
            oids.clone(),
            stop.clone(),
        );
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let (engine, table, oids) = (engine.clone(), table.clone(), oids.clone());
                black_box(db.call("scan", Priority::Low, move || scan(&engine, &table, &oids)));
            }
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(20));
    const CALLS: usize = 3_000;
    let mut stats: [Vec<f64>; 4] = Default::default();
    for _ in 0..b {
        let mut s: [Vec<u32>; 3] = Default::default();
        for _ in 0..CALLS {
            let (engine, table) = (engine.clone(), table.clone());
            let oid = oids[gen.below(ROWS as u64) as usize];
            let t0 = Instant::now();
            let (started, ended) = db.call("probe", Priority::High, move || {
                let started = Instant::now();
                let mut tx = engine.begin_si();
                black_box(tx.read(&table, oid));
                tx.commit().expect("read-only commit");
                (started, Instant::now())
            });
            let t1 = Instant::now();
            s[0].push((t1 - t0).as_nanos() as u32);
            s[1].push(started.saturating_duration_since(t0).as_nanos() as u32);
            s[2].push((t1 - ended).as_nanos() as u32);
        }
        stats[0].push(pct(&mut s[0], 50.0) / 1e3);
        stats[1].push(pct(&mut s[0], 99.0) / 1e3);
        stats[2].push(pct(&mut s[1], 50.0) / 1e3);
        stats[3].push(pct(&mut s[2], 50.0) / 1e3);
    }
    stop.store(true, Ordering::Release);
    feeder.join().expect("feeder thread does not panic");
    let n = (CALLS * b) as u64;
    for (name, values) in [
        "core.call_preempt_p50_us",
        "core.call_preempt_p99_us",
        "core.submit_to_start_p50_us",
        "core.end_to_return_p50_us",
    ]
    .into_iter()
    .zip(&stats)
    {
        out.metric(name, "us", Stat::of_batches(values, n));
    }
    if let Some(db) = Arc::into_inner(db) {
        db.shutdown();
    }
}

fn mvcc(out: &mut Outcome, b: usize, gen: &mut Gen) {
    let engine = Engine::new(EngineConfig::default());
    let table = engine.create_table("probe");
    let mut tx = engine.begin_si();
    let oid = tx.insert(&table, &[0u8; 64]).expect("insert");
    tx.commit().expect("commit");
    let payload = [1u8; 64];

    out.metric(
        "mvcc.begin_commit_ns",
        "ns",
        per_op_ns(b, 500_000, || {
            engine.begin_si().commit().expect("empty commit");
        }),
    );
    let point_read = |engine: &Engine, table: &Table| {
        let mut tx = engine.begin_si();
        black_box(tx.read(table, oid));
        tx.commit().expect("read-only commit");
    };
    out.metric(
        "mvcc.point_read_txn_ns",
        "ns",
        per_op_ns(b, 500_000, || point_read(&engine, &table)),
    );
    out.metric(
        "mvcc.update_txn_ns",
        "ns",
        per_op_ns(b, 200_000, || {
            let mut tx = engine.begin_si();
            tx.update(&table, oid, &payload).expect("sole writer");
            tx.commit().expect("commit");
        }),
    );
    out.metric(
        "mvcc.insert_txn_ns",
        "ns",
        per_op_ns(b, 50_000, || {
            let mut tx = engine.begin_si();
            black_box(tx.insert(&table, &payload).expect("insert"));
            tx.commit().expect("commit");
        }),
    );

    // The same one-read transaction from two threads at once: what the
    // engine's shared read-path structures cost under contention.
    const ITERS: u64 = 100_000;
    out.metric(
        "mvcc.point_read_txn_2t_ns",
        "ns",
        per_batch(b, 2 * ITERS, || {
            let barrier = Barrier::new(2);
            let run = || {
                barrier.wait();
                let t0 = Instant::now();
                for _ in 0..ITERS {
                    point_read(&engine, &table);
                }
                t0.elapsed().as_nanos() as f64 / ITERS as f64
            };
            std::thread::scope(|s| {
                let other = s.spawn(run);
                let mine = run();
                (mine + other.join().expect("reader thread does not panic")) / 2.0
            })
        }),
    );

    let (ledger_table, oids) = ledger(&engine, "probe_ledger");
    let scan_row = |b: usize| {
        per_batch(b, 2 * ROWS as u64, || {
            let t0 = Instant::now();
            black_box(scan(&engine, &ledger_table, &oids) + scan(&engine, &ledger_table, &oids));
            t0.elapsed().as_nanos() as f64 / (2 * ROWS) as f64
        })
    };
    black_box(scan(&engine, &ledger_table, &oids));
    out.metric("mvcc.scan_row_ns", "ns", scan_row(b));
    for round in 0..8u64 {
        for chunk in oids.chunks(256) {
            let mut tx = engine.begin_si();
            for &oid in chunk {
                tx.update(&ledger_table, oid, &round.to_le_bytes())
                    .expect("sole writer");
            }
            tx.commit().expect("commit");
        }
    }
    out.metric("mvcc.scan_row_churned_ns", "ns", scan_row(b));

    let hash = HashIndex::new("probe_hash");
    let ordered = OrderedIndex::new("probe_ordered");
    for k in 0..ROWS as u64 {
        hash.insert(k, k);
        ordered.insert(k, k);
    }
    let keys: Vec<u64> = (0..ROWS).map(|_| gen.below(ROWS as u64)).collect();
    let mut i = 0usize;
    let mut next_key = move || {
        i = (i + 1) % ROWS;
        keys[i]
    };
    out.metric(
        "mvcc.hash_lookup_ns",
        "ns",
        per_op_ns(b, 1_000_000, || {
            black_box(hash.get(next_key()));
        }),
    );
    out.metric(
        "mvcc.ordered_lookup_ns",
        "ns",
        per_op_ns(b, 300_000, || {
            black_box(ordered.get(next_key()));
        }),
    );
    out.metric(
        "mvcc.ordered_range_row_ns",
        "ns",
        per_batch(b, ROWS as u64, || {
            let t0 = Instant::now();
            let visited = ordered.range_scan(0, u64::MAX, |k, oid| {
                black_box((k, oid));
                ControlFlow::Continue(())
            });
            t0.elapsed().as_nanos() as f64 / visited.max(1) as f64
        }),
    );
}

fn workloads(out: &mut Outcome, b: usize, seed: u64) {
    let (_engine, tpcc, tpch) = setup_mixed(
        2,
        Some(bench_tpcc_scale(2)),
        Some(TpchScale::default_mix()),
        seed,
    );
    let mut rng = SmallRng::seed_from_u64(Gen::fork(seed, 200).next_u64());
    // Parameter generation stays outside the timed call.
    const CALLS: u64 = 4_000;
    out.metric(
        "workloads.payment_us",
        "us",
        per_batch(b, CALLS, || {
            let mut ns = 0u128;
            for _ in 0..CALLS {
                let p = PaymentParams::generate(&mut rng, &tpcc.scale, 1);
                let t0 = Instant::now();
                black_box(tpcc.run_payment(&p));
                ns += t0.elapsed().as_nanos();
            }
            ns as f64 / CALLS as f64 / 1e3
        }),
    );
    out.metric(
        "workloads.neworder_us",
        "us",
        per_batch(b, CALLS, || {
            let mut ns = 0u128;
            for _ in 0..CALLS {
                let p = NewOrderParams::generate(&mut rng, &tpcc.scale, 1);
                let t0 = Instant::now();
                black_box(tpcc.run_new_order(&p));
                ns += t0.elapsed().as_nanos();
            }
            ns as f64 / CALLS as f64 / 1e3
        }),
    );
    const QUERIES: u64 = 3;
    out.metric(
        "workloads.q2_ms",
        "ms",
        per_batch(b, QUERIES, || {
            let mut ns = 0u128;
            for _ in 0..QUERIES {
                let p = Q2Params::generate(&mut rng, &tpch.scale);
                let t0 = Instant::now();
                black_box(tpch.q2(&p).expect("q2 is read-only").len());
                ns += t0.elapsed().as_nanos();
            }
            ns as f64 / QUERIES as f64 / 1e6
        }),
    );
}

fn server(out: &mut Outcome, b: usize) {
    let req = Frame::Req {
        id: 7,
        op: Op::Deposit,
        a: 11,
        b: 13,
    };
    out.metric(
        "server.frame_encode_ns",
        "ns",
        per_op_ns(b, 500_000, || {
            black_box(black_box(&req).encode());
        }),
    );
    let bytes = req.encode();
    let mut reader = FrameReader::new();
    out.metric(
        "server.frame_decode_ns",
        "ns",
        per_op_ns(b, 500_000, || {
            reader.push(black_box(&bytes));
            black_box(reader.next_frame().expect("a well-formed frame"));
        }),
    );
}

/// One observer call with its plane disabled, then enabled: the cost
/// every always-on instrumentation site pays.
fn observers(out: &mut Outcome, b: usize) {
    const ITERS: u64 = 1_000_000;
    let emit = || preemptdb::trace::emit(black_box(TraceEvent::TxnCommit { txn: 1 }));
    let bump = || preemptdb::metrics::counter_inc(black_box(Counter::TxnCompletedHigh));
    let planes_off = !preemptdb::trace::tracing_active() && !preemptdb::metrics::metrics_active();
    out.check(
        "observer_planes_off_before_probe",
        planes_off,
        format!("trace session or metrics registry live: {}", !planes_off),
    );
    out.metric("trace.emit_off_ns", "ns", per_op_ns(b, ITERS, emit));
    out.metric("metrics.bump_off_ns", "ns", per_op_ns(b, ITERS, bump));
    {
        let session = TraceSession::new(TraceConfig::default());
        let ring = session.register("probe", 0);
        preemptdb::trace::install_current(&ring);
        out.metric("trace.emit_on_ns", "ns", per_op_ns(b, ITERS, emit));
        preemptdb::trace::clear_current();
    }
    {
        let registry = MetricsRegistry::new(MetricsConfig::default());
        let shard = registry.register_shard("probe", 0);
        preemptdb::metrics::install_current(&shard);
        out.metric("metrics.bump_on_ns", "ns", per_op_ns(b, ITERS, bump));
        preemptdb::metrics::clear_current();
    }
    preemptdb::prov::init_context();
    out.metric(
        "prov.charge_ns",
        "ns",
        per_op_ns(b, ITERS, || {
            preemptdb::prov::charge(black_box(Phase::Run), 1);
        }),
    );
}

/// What a sleeping peer costs on this host: loopback TCP with the same
/// frame sizes between two threads that sleep for each other, and one
/// thread waking another. `tcp_mixed`'s polling client and thread
/// placement keep this cost off its high path.
fn host(out: &mut Outcome, b: usize) {
    const RTTS: usize = 1_000;
    const WINDOWED: usize = 10_000;
    let (mut rtt, mut per_s) = (Vec::new(), Vec::new());
    for _ in 0..b {
        match echo_floor(RTTS, WINDOWED) {
            Ok((samples, rate)) => {
                rtt.push(samples.percentile(50.0).unwrap_or(0.0) / 1e3);
                per_s.push(rate);
            }
            Err(e) => return out.check("host_echo", false, e.to_string()),
        }
    }
    out.metric(
        "host.tcp_echo_rtt_p50_us",
        "us",
        Stat::of_batches(&rtt, (RTTS * b) as u64),
    );
    out.metric(
        "host.tcp_echo_window8_per_s",
        "1/s",
        Stat::of_batches(&per_s, (WINDOWED * b) as u64),
    );

    // unpark → running: the sleeper stamps its own wake-up.
    const WAKES: usize = 1_000;
    out.metric(
        "host.thread_wake_p50_us",
        "us",
        per_batch(b, WAKES as u64, || {
            let woke = Arc::new(AtomicU64::new(0));
            let round = Arc::new(AtomicU64::new(0));
            let epoch = Instant::now();
            let sleeper = {
                let (woke, round) = (woke.clone(), round.clone());
                std::thread::spawn(move || {
                    for r in 1..=WAKES as u64 {
                        while round.load(Ordering::Acquire) < r {
                            std::thread::park();
                        }
                        woke.store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
                    }
                })
            };
            let mut s = Vec::with_capacity(WAKES);
            for r in 1..=WAKES as u64 {
                // Give the sleeper time to actually park.
                let until = Instant::now() + std::time::Duration::from_micros(50);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
                woke.store(0, Ordering::Release);
                let t0 = epoch.elapsed().as_nanos() as u64;
                round.store(r, Ordering::Release);
                sleeper.thread().unpark();
                let t1 = loop {
                    let t = woke.load(Ordering::Acquire);
                    if t != 0 {
                        break t;
                    }
                    std::hint::spin_loop();
                };
                s.push(t1.saturating_sub(t0) as u32);
            }
            sleeper.join().expect("sleeper thread does not panic");
            pct(&mut s, 50.0) / 1e3
        }),
    );
}

/// Wall seconds per simulated second of `sim_mixed`, at a short virtual
/// duration: guards the simulator harness against slow-downs.
fn simulator(out: &mut Outcome, b: usize, seed: u64) {
    const VIRTUAL_MS: u64 = 20;
    let db = sim::setup(seed);
    out.metric(
        "sim.wall_s_per_virtual_s",
        "ratio",
        per_batch(b.min(3), 1, || {
            let run = sim::simulate(&db, seed, VIRTUAL_MS, false);
            run.wall_s / run.virtual_s
        }),
    );
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let b = plan.probe_batches;
    let mut gen = Gen::fork(plan.seed, 300);
    observers(&mut out, b);
    context(&mut out, b);
    uintr(&mut out, b);
    sched(&mut out, b);
    core(&mut out, b, &mut gen);
    mvcc(&mut out, b, &mut gen);
    workloads(&mut out, b, plan.seed);
    server(&mut out, b);
    host(&mut out, b);
    simulator(&mut out, b, plan.seed);
    out
}
