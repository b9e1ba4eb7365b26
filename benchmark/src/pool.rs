//! `pool_preempt`: the paper's mechanism with no wire around it. One
//! pool worker is always inside a low-priority full-table scan; the
//! benchmark thread submits short high-priority transactions one at a
//! time with `Database::submit` and watches a flag the transaction sets
//! when it ends. Every one of them is delivered by user interrupt and
//! runs on the preempting context, and nothing on the way sleeps: no
//! socket, no channel, no system call. `uintr`, `context`, `sched`'s
//! queues and worker loop, `core` and a little `mvcc` do the work;
//! `server` is bypassed, so a front-door change must show no change here.
//!
//! It stands where the issue's wire-only `tcp_pipelined` was meant to: no
//! way of keeping more than one request in flight over TCP repeated on
//! this host (README, "Why there is no pipelined workload").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use preemptdb::mvcc::Oid;
use preemptdb::{Database, DatabaseConfig, Engine, Priority, Table, WorkOutcome};

use crate::client::REPLY_TIMEOUT;
use crate::cpus::Layout;
use crate::gen::Gen;
use crate::recorder::{calm_rate, us, Samples, Stat};
use crate::report::Outcome;
use crate::spans::{SpanLog, ROOT};
use crate::{Plan, TRACE_ROUNDS, WORKER_THREADS};

const ROWS: u64 = 65_536;
const INITIAL_BALANCE: u64 = 1_000;
/// Spans written to the trace file (all stay in memory).
const TRACE_FILE_SPANS: usize = 150_000;

/// What the transactions tell the benchmark thread. Times are ns since
/// the rig's epoch.
#[derive(Default)]
struct Board {
    /// Sequence number of the last high transaction that ended.
    high_done: AtomicU64,
    high_started_ns: AtomicU64,
    high_ended_ns: AtomicU64,
    /// 0 while running; 1 + retries once committed; `FAILED` otherwise.
    high_result: AtomicU64,
    scans_done: AtomicU64,
    /// Scans whose sum was not a whole number of deposits above the start.
    scans_wrong: AtomicU64,
}

const FAILED: u64 = u64::MAX;

struct Rig {
    db: Database,
    engine: Engine,
    table: Arc<Table>,
    oids: Arc<Vec<Oid>>,
    board: Arc<Board>,
    epoch: Instant,
    scans_submitted: u64,
    /// The engine's commit count once the ledger was loaded.
    commits_at_start: u64,
}

fn balance(raw: &[u8]) -> u64 {
    u64::from_le_bytes(raw[..8].try_into().expect("a balance is eight bytes"))
}

/// Sum of every balance in one snapshot; `None` if a row is missing.
fn scan(engine: &Engine, table: &Table, oids: &[Oid]) -> Option<u64> {
    let mut tx = engine.begin_si();
    let mut sum = 0u64;
    for &oid in oids {
        sum += balance(&tx.read(table, oid)?);
    }
    tx.commit().ok()?;
    Some(sum)
}

/// Credits two accounts by one each, as the server's `Deposit` does.
/// Returns the retries it took, `None` if it gave up.
fn deposit(engine: &Engine, table: &Arc<Table>, a: Oid, b: Oid) -> Option<u64> {
    for retries in 0..=100 {
        let mut tx = engine.begin_si();
        let credited = [a, b].into_iter().all(|oid| {
            let Some(v) = tx.read(table, oid).map(|raw| balance(&raw)) else {
                return false;
            };
            tx.update(table, oid, &(v + 1).to_le_bytes()).is_ok()
        });
        if credited && tx.commit().is_ok() {
            return Some(retries);
        }
    }
    None
}

impl Rig {
    /// Opens a one-worker pool, loads the ledger, places the worker and
    /// hands it its first scan.
    fn start(layout: Option<&Layout>) -> std::io::Result<Rig> {
        let db = Database::open(DatabaseConfig::default().workers(1));
        if let Some(layout) = layout {
            if layout.move_workers(WORKER_THREADS)? != 1 {
                return Err(std::io::Error::other(
                    "expected one pool worker thread to place",
                ));
            }
        }
        let engine = db.engine().clone();
        let table = engine.create_table("ledger");
        let mut tx = engine.begin_si();
        let oids: Vec<Oid> = (0..ROWS)
            .map(|_| {
                tx.insert(&table, &INITIAL_BALANCE.to_le_bytes())
                    .expect("insert into a fresh table")
            })
            .collect();
        tx.commit().expect("load commits");
        let mut rig = Rig {
            db,
            commits_at_start: engine.stats().commits,
            engine,
            table,
            oids: Arc::new(oids),
            board: Arc::new(Board::default()),
            epoch: Instant::now(),
            scans_submitted: 0,
        };
        rig.submit_scan();
        Ok(rig)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn submit_scan(&mut self) {
        let (engine, table, oids, board) = (
            self.engine.clone(),
            self.table.clone(),
            self.oids.clone(),
            self.board.clone(),
        );
        self.scans_submitted += 1;
        self.db.submit("scan", Priority::Low, move || {
            // Deposits add two at a time, whatever the snapshot.
            let sum = scan(&engine, &table, &oids);
            let right = sum.is_some_and(|s| s >= ROWS * INITIAL_BALANCE && s % 2 == 0);
            if !right {
                board.scans_wrong.fetch_add(1, Ordering::Relaxed);
            }
            board.scans_done.fetch_add(1, Ordering::Release);
            WorkOutcome::default()
        });
    }

    /// Spins until `ready` holds; `false` after [`REPLY_TIMEOUT`].
    fn wait(&self, ready: impl Fn(&Board) -> bool) -> bool {
        let mut since: Option<Instant> = None;
        let mut spins = 0u32;
        while !ready(&self.board) {
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1 << 20)
                && since.get_or_insert_with(Instant::now).elapsed() > REPLY_TIMEOUT
            {
                return false;
            }
        }
        true
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    high_ok: u64,
    deposits_ok: u64,
    seq: u64,
}

/// What one stretch of load measured.
#[derive(Default)]
struct Segment {
    span_us: u64,
    /// Submit → seen to have ended, `Deposit` only: the designated high op.
    deposit: Samples,
    read: Samples,
    /// Traced stretches only, `Deposit` only. Submit → first instruction
    /// of the transaction: queue, interrupt delivery, context switch.
    start: Samples,
    /// What the call to `submit` took.
    submit: Samples,
    /// First to last instruction of the transaction.
    run: Samples,
    high_ops: u64,
    scans: u64,
    retries: u64,
    spans: Option<SpanLog>,
}

impl Segment {
    fn append(&mut self, other: Segment) {
        for (mine, theirs) in [
            (&mut self.deposit, &other.deposit),
            (&mut self.read, &other.read),
            (&mut self.start, &other.start),
            (&mut self.submit, &other.submit),
            (&mut self.run, &other.run),
        ] {
            mine.extend_shifted(theirs, self.span_us);
        }
        self.span_us += other.span_us;
        self.high_ops += other.high_ops;
        self.scans += other.scans;
        self.retries += other.retries;
        if let Some(log) = other.spans {
            self.spans.get_or_insert_with(SpanLog::default).append(log);
        }
    }

    fn per_s(&self, count: u64) -> f64 {
        count as f64 / (self.span_us as f64 / 1e6)
    }
}

/// One stretch: high transactions one at a time, 50 % point reads and
/// 50 % deposits, while the worker is kept in scans.
fn segment(rig: &mut Rig, gen: &mut Gen, tally: &mut Tally, dur: Duration, trace: bool) -> Segment {
    let mut seg = Segment {
        span_us: dur.as_micros() as u64,
        spans: trace.then(SpanLog::default),
        ..Segment::default()
    };
    let start_ns = rig.now_ns();
    let end_ns = start_ns + dur.as_nanos() as u64;
    let scans_before = rig.board.scans_done.load(Ordering::Acquire);
    loop {
        // One scan running and one queued behind it, so the worker never
        // finds its low queue empty (it would go to sleep).
        while rig.scans_submitted < rig.board.scans_done.load(Ordering::Acquire) + 2 {
            rig.submit_scan();
        }
        let is_deposit = gen.below(2) == 1;
        let a = rig.oids[gen.below(ROWS) as usize];
        let b = rig.oids[gen.below(ROWS - 1) as usize];
        let b = if b == a {
            rig.oids[ROWS as usize - 1]
        } else {
            b
        };
        tally.seq += 1;
        let seq = tally.seq;
        let (engine, table, board, epoch) = (
            rig.engine.clone(),
            rig.table.clone(),
            rig.board.clone(),
            rig.epoch,
        );
        let t0 = rig.now_ns();
        if t0 >= end_ns {
            break;
        }
        tally.attempted += 1;
        rig.db.submit("high", Priority::High, move || {
            let started = epoch.elapsed().as_nanos() as u64;
            let result = if is_deposit {
                deposit(&engine, &table, a, b).map_or(FAILED, |retries| 1 + retries)
            } else {
                let mut tx = engine.begin_si();
                let read = tx.read(&table, a).is_some();
                if read && tx.commit().is_ok() {
                    1
                } else {
                    FAILED
                }
            };
            // The stamps and the result are published by the Release store
            // of `high_done`; the caller's Acquire load in `wait` pairs
            // with it.
            board.high_started_ns.store(started, Ordering::Relaxed);
            board.high_result.store(result, Ordering::Relaxed);
            board
                .high_ended_ns
                .store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
            board.high_done.store(seq, Ordering::Release);
            if result == FAILED {
                WorkOutcome::failed(0)
            } else {
                WorkOutcome::default()
            }
        });
        let submitted = rig.now_ns();
        if !rig.wait(|b| b.high_done.load(Ordering::Acquire) == seq) {
            // A wedged pool: nothing after this can be trusted.
            tally.failed += 1;
            break;
        }
        let t1 = rig.now_ns();
        let result = rig.board.high_result.load(Ordering::Relaxed);
        if result == FAILED {
            tally.failed += 1;
            continue;
        }
        tally.high_ok += 1;
        tally.deposits_ok += u64::from(is_deposit);
        if t1 >= end_ns {
            continue;
        }
        let started = rig.board.high_started_ns.load(Ordering::Relaxed);
        let ended = rig.board.high_ended_ns.load(Ordering::Relaxed);
        let at_us = (t1 - start_ns) / 1_000;
        seg.high_ops += 1;
        if is_deposit {
            seg.deposit.push(at_us, t1 - t0);
            seg.retries += result - 1;
            if trace {
                seg.start.push(at_us, started.saturating_sub(t0));
                seg.submit.push(at_us, submitted - t0);
                seg.run.push(at_us, ended.saturating_sub(started));
            }
        } else {
            seg.read.push(at_us, t1 - t0);
        }
        if let Some(log) = seg.spans.as_mut() {
            let name = if is_deposit {
                "pool.deposit"
            } else {
                "pool.read"
            };
            let call = log.push(name, t0, t1, ROOT, seq);
            log.push("core.submit", t0, submitted, call, seq);
            log.push("core.run", started, ended, call, seq);
        }
    }
    seg.scans = rig.board.scans_done.load(Ordering::Acquire) - scans_before;
    seg
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let layout = Layout::enter();
    println!("note pool_preempt placement: {}", Layout::describe(&layout));

    // Set-up, several times over: open the pool, place the worker, load
    // the ledger, submit the first scan. The last rig is the one measured.
    let mut setups = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..plan.setups {
        if let Some(old) = rig.take() {
            old.db.shutdown();
        }
        let t0 = Instant::now();
        match Rig::start(layout.as_ref()) {
            Ok(r) => rig = Some(r),
            Err(e) => {
                out.failed += 1;
                out.check("pool_start", false, e.to_string());
                return out;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("plan.setups is at least 1");
    out.metric(
        "setup_s",
        "s",
        Stat::of_batches(&setups, setups.len() as u64),
    );

    let mut gen = Gen::fork(plan.seed, 3);
    let mut tally = Tally::default();
    segment(&mut rig, &mut gen, &mut tally, plan.warmup, false);

    if !plan.trace {
        let seg = segment(&mut rig, &mut gen, &mut tally, plan.measure, false);
        let span = seg.span_us;
        out.metric_opt("high_p50_us", "us", us(seg.deposit.slice_calm(span, 50.0)));
        out.metric_opt("high_p90_us", "us", us(seg.deposit.slice_calm(span, 90.0)));
        out.metric_opt(
            "high_inproc_p95_us",
            "us",
            us(seg.deposit.slice_calm(span, 95.0)),
        );
        out.metric(
            "high_ops_per_s",
            "1/s",
            calm_rate(span, &[&seg.deposit, &seg.read]),
        );
        out.metric(
            "low_ops_per_s",
            "1/s",
            Stat::plain(seg.per_s(seg.scans), seg.scans),
        );
    } else {
        // Untraced and traced stretches alternate, and which goes first
        // alternates too, so drift does not read as tracing overhead.
        let (mut reference, mut seg) = (Segment::default(), Segment::default());
        let stretch = plan.measure / TRACE_ROUNDS;
        for round in 0..TRACE_ROUNDS {
            for traced in [round % 2 == 1, round % 2 == 0] {
                let part = segment(&mut rig, &mut gen, &mut tally, stretch, traced);
                if traced { &mut seg } else { &mut reference }.append(part);
            }
        }
        let span = seg.span_us;
        for (name, samples) in [
            ("core.preempt_submit_us", &seg.submit),
            ("core.preempt_start_us", &seg.start),
            ("core.preempt_run_us", &seg.run),
        ] {
            out.metric_opt(name, "us", us(samples.slice_median(span, 50.0)));
        }
        out.metric_opt(
            "high_inproc_p95_us",
            "us",
            us(seg.deposit.slice_median(span, 95.0)),
        );
        out.metric_opt(
            "core.preempt_p99_us",
            "us",
            us(seg.deposit.slice_median(span, 99.0)),
        );
        out.metric(
            "low_ops_per_s",
            "1/s",
            Stat::plain(seg.per_s(seg.scans), seg.scans),
        );
        let n = seg.deposit.len() as u64;
        out.metric(
            "mvcc.deposit_retries_per_commit",
            "ratio",
            Stat::plain(seg.retries as f64 / n.max(1) as f64, n),
        );
        out.metric(
            "bench.trace_overhead_frac",
            "ratio",
            Stat::plain(
                1.0 - seg.per_s(seg.high_ops) / reference.per_s(reference.high_ops),
                seg.high_ops,
            ),
        );
        // Printed beside the traced rows, not part of the contract's list.
        out.metric(
            "traced.high_ops_per_s",
            "1/s",
            Stat::plain(seg.per_s(seg.high_ops), seg.high_ops),
        );
        out.metric_opt(
            "traced.high_p50_us",
            "us",
            us(seg.deposit.slice_median(span, 50.0)),
        );
        if let Some(log) = &seg.spans {
            let path = plan.out_dir.join("trace-pool_preempt.json");
            if let Err(e) = log.write_json(&path, TRACE_FILE_SPANS) {
                out.check("trace_file", false, format!("{}: {e}", path.display()));
            }
        }
    }

    // Let the scans in flight end, then read the ledger from this thread:
    // it must hold exactly the deposits that reported a commit.
    let submitted = rig.scans_submitted;
    let drained = rig.wait(|b| b.scans_done.load(Ordering::Acquire) == submitted);
    out.check(
        "scans_drain",
        drained,
        format!("{submitted} scans submitted"),
    );
    let want = ROWS * INITIAL_BALANCE + 2 * tally.deposits_ok;
    let sum = scan(&rig.engine, &rig.table, &rig.oids);
    out.check(
        "ledger_conservation",
        sum == Some(want),
        format!(
            "final sum {sum:?}, want {want} ({} deposits)",
            tally.deposits_ok
        ),
    );
    let wrong = rig.board.scans_wrong.load(Ordering::Relaxed);
    out.check(
        "scans_see_whole_deposits",
        wrong == 0,
        format!("{wrong} of {submitted} scans saw a torn or missing deposit"),
    );
    let after = rig.engine.stats();
    // Every high transaction, every scan, and the final read above.
    let expect = tally.high_ok + submitted + 1;
    out.check(
        "completions_equal_commit_delta",
        after.commits - rig.commits_at_start == expect,
        format!(
            "{} high + {submitted} scans + 1, engine committed {}",
            tally.high_ok,
            after.commits - rig.commits_at_start
        ),
    );
    if plan.trace {
        out.metric(
            "mvcc.commits",
            "count",
            Stat::plain(after.commits as f64, 1),
        );
        out.metric("mvcc.aborts", "count", Stat::plain(after.aborts as f64, 1));
    }
    let active = rig.engine.registry().active_count();
    out.check(
        "no_transaction_left_active",
        active == 0,
        format!("{active} active at the end"),
    );
    out.attempted += tally.attempted + submitted;
    out.failed += tally.failed + wrong;
    rig.db.shutdown();
    out
}
