//! `sim_mixed`: the paper's §6.1 mix through `sched::run` on the
//! virtual-time simulator — the only path through the scheduling thread
//! (dispatch, batching, starvation prevention, watchdog), which the TCP
//! front door bypasses. Open-loop by construction: 64 high-priority
//! NewOrder/Payment requests arrive every virtual millisecond whatever
//! the workers do, and `dropped_high` is the overload signal. Virtual
//! time makes every latency and count repeat exactly for a seed; only
//! `setup_s` and the wall-clock throughput of the harness are host time.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use preemptdb::prov::{Phase, ProvConfig};
use preemptdb::sched::clock::now_cycles;
use preemptdb::sched::{run as sched_run, Policy};
use preemptdb::trace::{TraceConfig, TraceSession};
use preemptdb::workloads::{kinds, setup_mixed, MixedWorkload, TpccDb, TpchDb, TpchScale};
use preemptdb::{
    DriverConfig, Request, RunReport, Runtime, SimConfig, WorkOutcome, WorkloadFactory,
};

use crate::engine::bench_tpcc_scale;
use crate::recorder::{us, Samples, Stat};
use crate::report::Outcome;
use crate::Plan;

const WORKERS: u64 = 16;
/// Virtual milliseconds of the determinism check (run twice).
const CHECK_MS: u64 = 50;

/// Completion stamps taken inside the closures the benchmark wraps
/// around each request: `(completed at, arrival→completion)`, in cycles.
#[derive(Default)]
struct Stamps {
    payment: Mutex<Vec<(u64, u64)>>,
    neworder: Mutex<Vec<(u64, u64)>>,
    q2: Mutex<Vec<(u64, u64)>>,
}

/// Hands out the mixed workload's requests with a stamp added after each
/// body. The simulator only switches contexts at the engine's preemption
/// points, none of which sit between lock and unlock here.
struct Stamping {
    inner: MixedWorkload,
    stamps: Arc<Stamps>,
}

impl Stamping {
    fn wrap(&self, mut req: Request) -> Request {
        let (kind, created) = (req.kind, req.created_at);
        let stamps = self.stamps.clone();
        let mut body = std::mem::replace(&mut req.work, Box::new(WorkOutcome::default));
        req.work = Box::new(move || {
            let outcome = body();
            let end = now_cycles();
            let list = match kind {
                kinds::PAYMENT => &stamps.payment,
                kinds::NEW_ORDER => &stamps.neworder,
                _ => &stamps.q2,
            };
            list.lock()
                .expect("a stamp push cannot panic")
                .push((end, end.saturating_sub(created)));
            outcome
        });
        req
    }
}

impl WorkloadFactory for Stamping {
    fn make_low(&mut self, now: u64) -> Option<Request> {
        self.inner.make_low(now).map(|r| self.wrap(r))
    }

    fn make_high(&mut self, now: u64) -> Option<Request> {
        self.inner.make_high(now).map(|r| self.wrap(r))
    }
}

pub type Db = (Arc<TpccDb>, Arc<TpchDb>);

pub fn setup(seed: u64) -> Db {
    let (_engine, tpcc, tpch) = setup_mixed(
        WORKERS,
        Some(bench_tpcc_scale(WORKERS)),
        Some(TpchScale::default_mix()),
        seed,
    );
    (tpcc, tpch)
}

/// One simulated run and what the stamps and the report say about it.
pub struct SimRun {
    pub virtual_s: f64,
    pub wall_s: f64,
    /// Virtual seconds from the start to the last high completion.
    high_window_s: f64,
    span_us: u64,
    payment: Samples,
    neworder: Samples,
    q2: Samples,
    report: RunReport,
}

impl SimRun {
    fn high_ops(&self) -> u64 {
        (self.payment.len() + self.neworder.len()) as u64
    }

    /// Completions over the time it took to complete them: the window
    /// ends with the last high completion, not with the nominal duration
    /// (the final batch arrives a millisecond before that and is done
    /// well inside it).
    fn high_per_s(&self) -> f64 {
        self.high_ops() as f64 / self.high_window_s
    }

    fn low_per_s(&self) -> f64 {
        self.q2.len() as f64 / self.virtual_s
    }

    /// The end-to-end rows, in the fixed text form the determinism check
    /// compares.
    fn end_to_end(&self) -> Vec<(&'static str, &'static str, Option<Stat>)> {
        vec![
            (
                "high_p50_us",
                "us",
                us(self.payment.slice_median(self.span_us, 50.0)),
            ),
            (
                "high_p90_us",
                "us",
                us(self.payment.slice_median(self.span_us, 90.0)),
            ),
            (
                "high_inproc_p95_us",
                "us",
                us(self.payment.slice_median(self.span_us, 95.0)),
            ),
            (
                "high_ops_per_s",
                "1/s",
                Some(Stat::plain(self.high_per_s(), self.high_ops())),
            ),
            (
                "low_ops_per_s",
                "1/s",
                Some(Stat::plain(self.low_per_s(), self.q2.len() as u64)),
            ),
        ]
    }

    fn fingerprint(&self) -> String {
        let s = &self.report.scheduler;
        format!(
            "{:?} dropped_high={} interrupts={} preemptions={}",
            self.end_to_end(),
            s.dropped_high,
            s.interrupts_sent,
            self.report.workers.preemptions
        )
    }
}

pub fn simulate(db: &Db, seed: u64, virtual_ms: u64, traced: bool) -> SimRun {
    let sim = SimConfig::default();
    let mut cfg = DriverConfig::paper_default(Policy::preemptdb());
    cfg.duration = sim.ms_to_cycles(virtual_ms);
    if traced {
        let mut tc = TraceConfig::default().without_latch_events();
        tc.capacity = 1 << 18;
        cfg.trace = Some(TraceSession::new(tc));
        cfg.prov = Some(ProvConfig::default());
    }
    let duration = cfg.duration;
    let stamps = Arc::new(Stamps::default());
    let factory = Stamping {
        inner: MixedWorkload::new(db.0.clone(), db.1.clone(), seed),
        stamps: stamps.clone(),
    };
    let t0 = Instant::now();
    let report = sched_run(Runtime::Simulated(sim), cfg, Box::new(factory));
    let wall_s = t0.elapsed().as_secs_f64();

    // Requests still running when the virtual clock ran out are not
    // completions of this interval.
    let collect = |list: &Mutex<Vec<(u64, u64)>>| {
        let mut s = Samples::default();
        for &(end, lat) in list.lock().expect("the run is over").iter() {
            if end <= duration {
                s.push(sim.cycles_to_ns(end) / 1_000, sim.cycles_to_ns(lat));
            }
        }
        s
    };
    let last_high = [&stamps.payment, &stamps.neworder]
        .into_iter()
        .flat_map(|list| {
            let ends = list.lock().expect("the run is over");
            ends.iter()
                .map(|&(end, _)| end)
                .filter(|&end| end <= duration)
                .max()
        })
        .max()
        .unwrap_or(duration);
    SimRun {
        virtual_s: virtual_ms as f64 / 1e3,
        wall_s,
        high_window_s: last_high as f64 / sim.freq_hz as f64,
        span_us: virtual_ms * 1_000,
        payment: collect(&stamps.payment),
        neworder: collect(&stamps.neworder),
        q2: collect(&stamps.q2),
        report,
    }
}

/// Attempted and failed operations of a run: every request the
/// scheduler dispatched or had to drop.
fn account(run: &SimRun, out: &mut Outcome) {
    let s = &run.report.scheduler;
    out.attempted += s.dispatched_high + s.dispatched_low + s.dropped_high;
    out.failed += s.dropped_high;
    let m = &run.report.metrics;
    let bad = m.total_failed() + m.total_deadline_aborted() + run.report.workers.panics;
    out.failed += bad;
}

/// Virtual milliseconds simulated for `--seconds`: 40 ms per second
/// asked for, which runs a little under that long on the host this was
/// sized on (≈ 19 wall seconds per virtual second). A fixed function of
/// `--seconds`, never of the host, so the simulated work is the same
/// everywhere.
pub fn virtual_ms(plan: &Plan) -> u64 {
    ((plan.measure.as_secs_f64() * 40.0) as u64).max(10)
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let ms = virtual_ms(plan);
    if !plan.trace {
        // Three set-ups: one for each determinism run and one for the
        // measured run, so each starts from the same freshly loaded state.
        let mut setups = Vec::new();
        let mut timed_setup = || {
            let t0 = Instant::now();
            let db = setup(plan.seed);
            setups.push(t0.elapsed().as_secs_f64());
            db
        };
        let a = simulate(&timed_setup(), plan.seed, CHECK_MS.min(ms), false).fingerprint();
        let b = simulate(&timed_setup(), plan.seed, CHECK_MS.min(ms), false).fingerprint();
        out.check(
            "same_seed_same_metrics",
            a == b,
            format!("first {a}; second {b}"),
        );

        let run = simulate(&timed_setup(), plan.seed, ms, false);
        out.metric(
            "setup_s",
            "s",
            Stat::of_batches(&setups, setups.len() as u64),
        );
        for (name, unit, stat) in run.end_to_end() {
            out.metric_opt(name, unit, stat);
        }
        out.metric(
            "sim.wall_s_per_virtual_s",
            "ratio",
            Stat::plain(run.wall_s / run.virtual_s, 1),
        );
        account(&run, &mut out);
    } else {
        let db = setup(plan.seed);
        let reference = simulate(&db, plan.seed, ms, false);
        let before = db.0.engine.stats();
        let run = simulate(&db, plan.seed ^ 1, ms, true);
        let after = db.0.engine.stats();
        traced_metrics(&run, &reference, &mut out);
        out.metric(
            "mvcc.commits",
            "count",
            Stat::plain((after.commits - before.commits) as f64, 1),
        );
        out.metric(
            "mvcc.aborts",
            "count",
            Stat::plain((after.aborts - before.aborts) as f64, 1),
        );
        account(&reference, &mut out);
        account(&run, &mut out);
        if let Some(trace) = &run.report.trace {
            let path = plan.out_dir.join("trace-sim_mixed.json");
            let written = std::fs::create_dir_all(&plan.out_dir)
                .and_then(|()| std::fs::write(&path, trace.to_chrome_json(run.report.freq_hz)));
            if let Err(e) = written {
                out.check("trace_file", false, format!("{}: {e}", path.display()));
            }
        }
    }
    out
}

/// Per-layer numbers of the traced simulated run: the program's own
/// phase attribution and the scheduler's exact counters.
fn traced_metrics(run: &SimRun, reference: &SimRun, out: &mut Outcome) {
    let report = &run.report;
    let sim = SimConfig::default();
    match &report.attribution {
        Some(attr) => {
            for (class, label) in attr.classes.iter().zip(["low", "high"]) {
                for phase in Phase::ALL {
                    out.metric(
                        format!("prov.{label}.{}_us", phase.label()),
                        "us",
                        Stat::plain(
                            sim.cycles_to_us(class.phase_mean(phase) as u64),
                            class.completed,
                        ),
                    );
                }
            }
            out.check(
                "trace_ring_kept_every_event",
                attr.ring_dropped == 0 && attr.unmatched == 0,
                format!(
                    "ring_dropped {} unmatched {}",
                    attr.ring_dropped, attr.unmatched
                ),
            );
        }
        None => out.check(
            "attribution_present",
            false,
            "RunReport.attribution is None".to_string(),
        ),
    }
    let s = &report.scheduler;
    let w = &report.workers;
    for (name, v) in [
        ("sched.interrupts_sent", s.interrupts_sent),
        ("sched.preemptions", w.preemptions),
        ("sched.skipped_starving", s.skipped_starving),
        ("sched.dropped_high", s.dropped_high),
        ("sched.watchdog_resends", s.watchdog_resends),
        ("uintr.delivered", w.uintr_delivered),
        ("uintr.deferred", w.uintr_deferred),
    ] {
        out.metric(name, "count", Stat::plain(v as f64, 1));
    }
    out.metric(
        "sched.utilization",
        "ratio",
        Stat::plain(report.utilization(WORKERS as usize), 1),
    );
    out.metric(
        "low_ops_per_s",
        "1/s",
        Stat::plain(run.low_per_s(), run.q2.len() as u64),
    );
    // In virtual time tracing is free; what it costs is harness speed:
    // high ops simulated per wall second, traced against untraced.
    let rate = |r: &SimRun| r.high_ops() as f64 / r.wall_s;
    out.metric(
        "bench.trace_overhead_frac",
        "ratio",
        Stat::plain(1.0 - rate(run) / rate(reference), run.high_ops()),
    );
    out.metric_opt(
        "high_inproc_p95_us",
        "us",
        us(run.payment.slice_median(run.span_us, 95.0)),
    );
    out.metric_opt(
        "workloads.payment_p99_us",
        "us",
        us(run.payment.slice_median(run.span_us, 99.0)),
    );
    out.metric(
        "traced.high_ops_per_s",
        "1/s",
        Stat::plain(run.high_per_s(), run.high_ops()),
    );
    out.metric_opt(
        "traced.high_p50_us",
        "us",
        us(run.payment.slice_median(run.span_us, 50.0)),
    );
}
