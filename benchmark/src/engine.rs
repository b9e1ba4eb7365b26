//! `engine_oltp`: no server, no pool. Two benchmark threads, one per
//! home warehouse, alternate TPC-C Payment and NewOrder directly on the
//! engine — `mvcc` and `workloads` only, with two threads contending on
//! the engine's shared structures. Front-door and scheduler changes must
//! show no change here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use preemptdb::workloads::tpcc::{NewOrderParams, PaymentParams};
use preemptdb::workloads::{setup_mixed, TpccDb, TpccScale, TpchScale};
use preemptdb::Engine;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::gen::Gen;
use crate::recorder::{calm_rate, us, Samples, Stat};
use crate::report::Outcome;
use crate::spans::{SpanLog, ROOT};
use crate::Plan;

const THREADS: u64 = 2;
const ROUNDS: u32 = 10;
/// The database's contents are part of the workload, like its size: they
/// are loaded from this seed, and only the transactions' parameters come
/// from `--seed`. Loaded from `--seed`, identical code read 12 % apart in
/// `high_ops_per_s` across ten seeds (3.9 % on one seed ten times); what a
/// Payment by last name costs depends on who was loaded.
const LOAD_SEED: u64 = 42;

/// The laptop-scaled TPC-C sizes the repository's experiments use
/// (`DESIGN.md` §1.4), built by field assignment so a new scale knob does
/// not break the frozen benchmark.
pub fn bench_tpcc_scale(warehouses: u64) -> TpccScale {
    let mut scale = TpccScale::new(warehouses);
    scale.districts_per_wh = 10;
    scale.customers_per_district = 300;
    scale.items = 2_000;
    scale.preloaded_orders = 20;
    scale
}

fn setup() -> (Engine, Arc<TpccDb>) {
    let (engine, tpcc, _tpch) = setup_mixed(
        THREADS,
        Some(bench_tpcc_scale(THREADS)),
        Some(TpchScale::tiny()),
        LOAD_SEED,
    );
    (engine, tpcc)
}

/// What one stretch of load measured: per thread, then merged.
#[derive(Default)]
struct Segment {
    span_us: u64,
    payment: Samples,
    neworder: Samples,
    /// Calls that completed inside the stretch.
    ops: u64,
    calls: u64,
    /// Calls that were meant to commit (NewOrder's 1 % spec rollbacks are not).
    expect_commits: u64,
    retries: u64,
    spans: Option<SpanLog>,
}

impl Segment {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.span_us as f64 / 1e6)
    }

    /// Adds `other`'s samples and counts, its samples moved `shift_us`
    /// later; the span is the caller's to set.
    fn absorb(&mut self, other: Segment, shift_us: u64) {
        self.payment.extend_shifted(&other.payment, shift_us);
        self.neworder.extend_shifted(&other.neworder, shift_us);
        self.ops += other.ops;
        self.calls += other.calls;
        self.expect_commits += other.expect_commits;
        self.retries += other.retries;
        if let Some(log) = other.spans {
            self.spans.get_or_insert_with(SpanLog::default).append(log);
        }
    }

    /// Appends a later stretch: its samples follow this one's in time.
    fn append(&mut self, other: Segment) {
        let (at, len) = (self.span_us, other.span_us);
        self.absorb(other, at);
        self.span_us += len;
    }
}

fn worker(
    db: &TpccDb,
    home: u64,
    seed: u64,
    epoch: Instant,
    start: Instant,
    dur: Duration,
    trace: bool,
) -> Segment {
    // The workload crate's own parameter generators, driven by a stream
    // that comes from `--seed` alone.
    let mut rng = SmallRng::seed_from_u64(Gen::fork(seed, 100 + home).next_u64());
    let mut r = Segment {
        spans: trace.then(SpanLog::default),
        ..Segment::default()
    };
    let end = start + dur;
    let ns = |t: Instant| (t - epoch).as_nanos() as u64;
    loop {
        let pay = PaymentParams::generate(&mut rng, &db.scale, home);
        let t0 = Instant::now();
        if t0 >= end {
            return r;
        }
        let retries = db.run_payment(&pay);
        let t1 = Instant::now();
        let order = NewOrderParams::generate(&mut rng, &db.scale, home);
        let t2 = Instant::now();
        let retries2 = db.run_new_order(&order);
        let t3 = Instant::now();

        r.calls += 2;
        r.expect_commits += 1 + u64::from(!order.rollback);
        r.retries += retries + retries2;
        if t3 < end {
            r.ops += 2;
            r.payment
                .push((t1 - start).as_micros() as u64, (t1 - t0).as_nanos() as u64);
            r.neworder
                .push((t3 - start).as_micros() as u64, (t3 - t2).as_nanos() as u64);
            if let Some(log) = r.spans.as_mut() {
                log.push("workloads.payment", ns(t0), ns(t1), ROOT, r.calls - 1);
                log.push("workloads.neworder", ns(t2), ns(t3), ROOT, r.calls);
            }
        }
    }
}

fn segment(db: &Arc<TpccDb>, seed: u64, epoch: Instant, dur: Duration, trace: bool) -> Segment {
    let start = Instant::now();
    let mut seg = Segment {
        span_us: dur.as_micros() as u64,
        ..Segment::default()
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=THREADS)
            .map(|home| scope.spawn(move || worker(db, home, seed, epoch, start, dur, trace)))
            .collect();
        for h in handles {
            seg.absorb(h.join().expect("benchmark thread does not panic"), 0);
        }
    });
    seg
}

/// The run is cut into [`ROUNDS`] rounds, each on a freshly loaded
/// database that is dropped afterwards. NewOrder inserts some 120 MB of
/// rows a second; left to grow for the whole run, the process reaches
/// memory the sandbox's hypervisor has not backed yet (free pages are
/// reported back to it), and NewOrder's median doubles at a point that
/// moves from run to run. A round's footprint stays near 300 MB, which
/// the allocator hands straight back to the next round.
pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let rounds = ROUNDS;
    let (warmup, measure) = (plan.warmup / rounds, plan.measure / rounds);
    let epoch = Instant::now();
    let mut setups = Vec::new();
    let (mut warmed, mut measured, mut reference) =
        (Segment::default(), Segment::default(), Segment::default());
    let (mut commits, mut aborts, mut left_active) = (0u64, 0u64, 0usize);
    for round in 0..u64::from(rounds) {
        let t0 = Instant::now();
        let (engine, db) = setup();
        setups.push(t0.elapsed().as_secs_f64());
        let before = engine.stats();
        // Each stretch draws from its own stream so no input repeats.
        let seed = |k: u64| plan.seed ^ (round * 4 + k) << 32;
        warmed.append(segment(&db, seed(0), epoch, warmup, false));
        let stretch = |k: u64, trace: bool, into: &mut Segment| {
            into.append(segment(&db, seed(k), epoch, measure, trace));
        };
        if !plan.trace {
            stretch(1, false, &mut measured);
        } else if round % 2 == 0 {
            // Alternate which side goes first so drift within a round
            // does not read as tracing overhead.
            stretch(1, false, &mut reference);
            stretch(2, true, &mut measured);
        } else {
            stretch(2, true, &mut measured);
            stretch(1, false, &mut reference);
        }
        let after = engine.stats();
        commits += after.commits - before.commits;
        aborts += after.aborts - before.aborts;
        left_active += engine.registry().active_count();
    }
    out.metric(
        "setup_s",
        "s",
        Stat::of_batches(&setups, setups.len() as u64),
    );

    let all = [&warmed, &measured, &reference];
    let all_calls: u64 = all.iter().map(|s| s.calls).sum();
    let expect: u64 = all.iter().map(|s| s.expect_commits).sum();
    let seg = &measured;
    let span = seg.span_us;
    if !plan.trace {
        out.metric_opt("high_p50_us", "us", us(seg.payment.slice_calm(span, 50.0)));
        out.metric_opt("high_p90_us", "us", us(seg.payment.slice_calm(span, 90.0)));
        out.metric_opt(
            "high_inproc_p95_us",
            "us",
            us(seg.payment.slice_calm(span, 95.0)),
        );
        out.metric(
            "high_ops_per_s",
            "1/s",
            calm_rate(span, &[&seg.payment, &seg.neworder]),
        );
    } else {
        out.metric_opt(
            "workloads.neworder_p50_us",
            "us",
            us(seg.neworder.slice_median(span, 50.0)),
        );
        out.metric_opt(
            "workloads.neworder_p90_us",
            "us",
            us(seg.neworder.slice_median(span, 90.0)),
        );
        out.metric_opt(
            "high_inproc_p95_us",
            "us",
            us(seg.payment.slice_median(span, 95.0)),
        );
        out.metric_opt(
            "workloads.payment_p99_us",
            "us",
            us(seg.payment.slice_median(span, 99.0)),
        );
        out.metric(
            "mvcc.retries_per_commit",
            "ratio",
            Stat::plain(
                seg.retries as f64 / seg.expect_commits.max(1) as f64,
                seg.expect_commits,
            ),
        );
        out.metric(
            "bench.trace_overhead_frac",
            "ratio",
            Stat::plain(1.0 - seg.ops_per_s() / reference.ops_per_s(), seg.ops),
        );
        out.metric(
            "traced.high_ops_per_s",
            "1/s",
            Stat::plain(seg.ops_per_s(), seg.ops),
        );
        out.metric_opt(
            "traced.high_p50_us",
            "us",
            us(seg.payment.slice_median(span, 50.0)),
        );
        let loaded_s = all.iter().map(|s| s.span_us).sum::<u64>() as f64 / 1e6;
        out.metric("mvcc.commits", "count", Stat::plain(commits as f64, 1));
        out.metric("mvcc.aborts", "count", Stat::plain(aborts as f64, 1));
        out.metric(
            "mvcc.commits_per_s",
            "1/s",
            Stat::plain(commits as f64 / loaded_s, commits),
        );
        if let Some(log) = &seg.spans {
            let path = plan.out_dir.join("trace-engine_oltp.json");
            if let Err(e) = log.write_json(&path, 200_000) {
                out.check("trace_file", false, format!("{}: {e}", path.display()));
            }
        }
    }

    out.attempted += all_calls;
    out.check(
        "completions_equal_commit_delta",
        commits == expect,
        format!("{all_calls} calls, {expect} meant to commit, engine committed {commits}"),
    );
    out.check(
        "no_transaction_left_active",
        left_active == 0,
        format!("{left_active} active at the end of a round"),
    );
    out
}
