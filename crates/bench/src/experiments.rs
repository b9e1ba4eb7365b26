//! One experiment per evaluation artifact (paper §6). See DESIGN.md §4
//! for the per-experiment index and expected shapes.

use preemptdb::context::runtime::preempt_point;
use preemptdb::sched::{run, DriverConfig, Policy, Runtime, UINTR_POLL_COST};
use preemptdb::uintr::{cycles, latency};
use preemptdb::workloads::{kinds, MixedWorkload, TpccWorkload};
use preemptdb::{Database, DatabaseConfig, Priority, SimConfig};

use crate::table::{tps, us, Table};
use crate::{competing_policies, load_mixed, run_mixed, Scenario};

/// Figure 1 (right): scheduling-latency distribution of high-priority
/// transactions under Wait / Yield(Cooperative) / PreemptDB.
pub fn fig01(sc: &Scenario) -> Table {
    let (tpcc, tpch) = load_mixed(sc.workers, sc.seed);
    let mut t = Table::new(
        "Figure 1 (right): scheduling latency of high-priority transactions",
        &["policy", "p50", "p90", "p99", "p99.9", "max-observed"],
    );
    for (name, policy) in competing_policies() {
        let r = run_mixed(policy, sc, tpcc.clone(), tpch.clone());
        let s = |p: f64| {
            let a = r.sched_latency_us(kinds::NEW_ORDER, p);
            let b = r.sched_latency_us(kinds::PAYMENT, p);
            us(a.max(b))
        };
        let max_us = r
            .metrics
            .kind(kinds::NEW_ORDER)
            .map(|m| m.sched_latency.max() as f64 * 1e6 / r.freq_hz as f64)
            .unwrap_or(0.0);
        t.row(vec![
            name.into(),
            s(50.0),
            s(90.0),
            s(99.0),
            s(99.9),
            us(max_us),
        ]);
    }
    t
}

/// §6.1 measurement: user-interrupt delivery latency between two POSIX
/// threads ("consistently lower than 1 µs" on UINTR hardware), compared
/// with the kernel-mediated signal path; then what the receiver pays for
/// it at every preemption point — on a pool worker (the preemptive
/// policy's hook, nothing pending), with no hook installed, and as the
/// simulator models it (`UINTR_POLL_COST` cycles at the nominal clock).
/// Runs on real threads.
pub fn uintr_latency(samples: usize) -> Table {
    let mut t = Table::new(
        "§6.1: delivery latency, user-level vs kernel-mediated (real threads)",
        &["mechanism", "median", "p90", "p99"],
    );
    let to_us = |c: u64| format!("{:.2}us", cycles::cycles_to_ns(c) as f64 / 1000.0);
    let mut row = |name: &str, mut s: Vec<u64>, fmt: &dyn Fn(u64) -> String| {
        t.row(vec![
            name.into(),
            fmt(latency::median(&mut s)),
            fmt(latency::percentile(&mut s, 90.0)),
            fmt(latency::percentile(&mut s, 99.0)),
        ]);
    };
    row("uintr (emulated, flag+poll)", latency::uintr_latency_samples(samples), &to_us);
    row("signal (pthread_kill)", latency::signal_latency_samples(samples), &to_us);

    // One sample per round of `POINTS` points, in picoseconds per point.
    const POINTS: u64 = 100_000;
    let rounds = samples / 10;
    let per_point = move || -> Vec<u64> {
        (0..rounds)
            .map(|_| {
                let t0 = std::time::Instant::now();
                for _ in 0..POINTS {
                    preempt_point(std::hint::black_box(1));
                }
                (t0.elapsed().as_nanos() * 1000 / u128::from(POINTS)) as u64
            })
            .collect()
    };
    let to_ns = |ps: u64| format!("{:.2}ns", ps as f64 / 1000.0);
    let db = Database::open(DatabaseConfig::default().workers(1));
    let on_worker = db.call("point_cost", Priority::Low, per_point);
    db.shutdown();
    row("preempt_point, pool worker", on_worker, &to_ns);
    row("preempt_point, no hook", per_point(), &to_ns);
    let model_ps = UINTR_POLL_COST * 1_000_000_000_000 / SimConfig::default().freq_hz;
    row("preempt_point, model (UINTR_POLL_COST)", vec![model_ps], &to_ns);
    t
}

/// Figure 8: standard TPC-C throughput with and without the
/// user-interrupt machinery (paper: ~1.7 % slowdown).
///
/// "Without": Wait policy, no interrupts ever. "With": the preemptive
/// policy with `always_interrupt` — the scheduling thread interrupts
/// every worker every tick with no high-priority work behind it, so every
/// delivery is pure overhead (switch in, find nothing, switch back).
pub fn fig08(sc: &Scenario, worker_counts: &[usize]) -> Table {
    let sim = SimConfig::default();
    let mut t = Table::new(
        "Figure 8: standard TPC-C throughput, uintr machinery on vs off",
        &["workers", "off (tps)", "on (tps)", "overhead", "interrupts"],
    );
    for &workers in worker_counts {
        let (tpcc, _tpch) = load_mixed(workers, sc.seed);
        let mut results = Vec::new();
        for on in [false, true] {
            let policy = if on {
                Policy::preemptdb()
            } else {
                Policy::Wait
            };
            let cfg = DriverConfig {
                n_workers: workers,
                // Deep low queue keeps workers saturated with OLTP (the
                // overhead is invisible if workers idle between arrivals).
                queue_caps: vec![64, 4],
                batch_size: 0,
                arrival_interval: sim.us_to_cycles(sc.arrival_us),
                duration: sim.ms_to_cycles(sc.duration_ms),
                always_interrupt: on,
                ..DriverConfig::paper_default(policy)
            };
            let factory = TpccWorkload::new(tpcc.clone(), sc.seed);
            results.push(run(Runtime::Simulated(sim), cfg, Box::new(factory)));
        }
        let (off, on) = (&results[0], &results[1]);
        let overhead = 1.0 - on.total_tps() / off.total_tps();
        t.row(vec![
            workers.to_string(),
            tps(off.total_tps()),
            tps(on.total_tps()),
            format!("{:+.2}%", overhead * 100.0),
            on.scheduler.interrupts_sent.to_string(),
        ]);
    }
    t
}

/// Figure 9: scalability — throughput of the three transaction types in
/// the mix under each policy across core counts.
pub fn fig09(sc: &Scenario, worker_counts: &[usize]) -> Table {
    let mut t = Table::new(
        "Figure 9: mixed-workload throughput vs workers",
        &["workers", "policy", "neworder", "payment", "q2"],
    );
    for &workers in worker_counts {
        let (tpcc, tpch) = load_mixed(workers, sc.seed);
        for (name, policy) in competing_policies() {
            let sc_n = Scenario { workers, ..*sc };
            let r = run_mixed(policy, &sc_n, tpcc.clone(), tpch.clone());
            t.row(vec![
                workers.to_string(),
                name.into(),
                tps(r.tps(kinds::NEW_ORDER)),
                tps(r.tps(kinds::PAYMENT)),
                tps(r.tps(kinds::Q2)),
            ]);
        }
    }
    t
}

/// One row of the sharded-plane scaling sweep (`fig09_sharded`).
pub struct ShardScalePoint {
    pub workers: usize,
    /// Shard count used for the sharded configuration at this size.
    pub shards: usize,
    pub baseline_tps: f64,
    pub sharded_tps: f64,
}

impl ShardScalePoint {
    pub fn speedup(&self) -> f64 {
        if self.baseline_tps > 0.0 {
            self.sharded_tps / self.baseline_tps
        } else {
            0.0
        }
    }
}

/// Virtual cycles burned by one point transaction in the scaling sweep.
/// Short enough that the dispatch plane, not the workers, is the
/// binding resource once four or more workers drain a single queue:
/// each push charges `DISPATCH_PUSH_COST` (250 cycles) to the
/// scheduling core's virtual clock, so one scheduler saturates near
/// 2.4 GHz / 250 ≈ 9.6 M dispatches/s while each worker consumes
/// ~2.8 M/s — the single global queue stops scaling at ~4 workers and
/// the per-shard planes keep going.
const POINT_BODY_CYCLES: u64 = 700;

/// Figure 9 (sharded-plane extension, ISSUE 8): throughput of the
/// sharded scheduler plane (two workers per shard, one dispatch core
/// per shard) against the single-global-queue baseline across worker
/// counts, on a dispatch-bound point-transaction stream. The shard
/// count grows with the machine (`workers / 2`, floored at one), so a
/// 1- or 2-worker sweep point degenerates to the baseline exactly.
pub fn fig09_sharded(duration_ms: u64, worker_counts: &[usize]) -> (Table, Vec<ShardScalePoint>) {
    use preemptdb::sched::{Request, WorkOutcome, WorkloadFactory};

    /// A stateless stream of minimal low-priority "point" transactions;
    /// splitting it hands every shard an identical independent stream.
    struct PointStream;
    impl WorkloadFactory for PointStream {
        fn make_low(&mut self, now: u64) -> Option<Request> {
            Some(Request::new("point", 0, now, || {
                preemptdb::context::runtime::preempt_point(POINT_BODY_CYCLES);
                WorkOutcome::default()
            }))
        }
        fn make_high(&mut self, _now: u64) -> Option<Request> {
            None
        }
        fn try_split(&mut self, shards: usize) -> Option<Vec<Box<dyn WorkloadFactory>>> {
            Some(
                (0..shards)
                    .map(|_| Box::new(PointStream) as Box<dyn WorkloadFactory>)
                    .collect(),
            )
        }
    }

    let run_one = |workers: usize, shards: usize| {
        let sim = SimConfig::default();
        let cfg = DriverConfig {
            n_workers: workers,
            shards,
            // Deep low queues: the refill cadence (10 us) must never be
            // what limits a worker, only dispatch-plane capacity.
            queue_caps: vec![32, 4],
            batch_size: 0,
            arrival_interval: sim.us_to_cycles(10),
            duration: sim.ms_to_cycles(duration_ms),
            ..DriverConfig::paper_default(Policy::preemptdb())
        };
        run(Runtime::Simulated(sim), cfg, Box::new(PointStream))
    };

    let mut t = Table::new(
        "Figure 9 (sharded plane): dispatch-bound throughput vs workers",
        &["workers", "shards", "single-queue", "sharded", "speedup", "steals"],
    );
    let mut points = Vec::new();
    for &workers in worker_counts {
        let shards = (workers / 2).max(1);
        let baseline = run_one(workers, 1);
        let sharded = run_one(workers, shards);
        let p = ShardScalePoint {
            workers,
            shards,
            baseline_tps: baseline.total_tps(),
            sharded_tps: sharded.total_tps(),
        };
        t.row(vec![
            workers.to_string(),
            shards.to_string(),
            tps(p.baseline_tps),
            tps(p.sharded_tps),
            format!("{:.2}x", p.speedup()),
            sharded.workers.steals.to_string(),
        ]);
        points.push(p);
    }
    (t, points)
}

/// Figure 10: end-to-end latency percentiles of NewOrder (top) and Q2
/// (bottom) under the three policies.
pub fn fig10(sc: &Scenario) -> (Table, Table) {
    let (tpcc, tpch) = load_mixed(sc.workers, sc.seed);
    let mut top = Table::new(
        "Figure 10 (top): NewOrder end-to-end latency",
        &["policy", "p50", "p90", "p99", "p99.9"],
    );
    let mut bottom = Table::new(
        "Figure 10 (bottom): Q2 end-to-end latency",
        &["policy", "p50", "p90", "p99", "p99.9"],
    );
    for (name, policy) in competing_policies() {
        let r = run_mixed(policy, sc, tpcc.clone(), tpch.clone());
        top.row(vec![
            name.into(),
            us(r.latency_us(kinds::NEW_ORDER, 50.0)),
            us(r.latency_us(kinds::NEW_ORDER, 90.0)),
            us(r.latency_us(kinds::NEW_ORDER, 99.0)),
            us(r.latency_us(kinds::NEW_ORDER, 99.9)),
        ]);
        bottom.row(vec![
            name.into(),
            us(r.latency_us(kinds::Q2, 50.0)),
            us(r.latency_us(kinds::Q2, 90.0)),
            us(r.latency_us(kinds::Q2, 99.0)),
            us(r.latency_us(kinds::Q2, 99.9)),
        ]);
    }
    (top, bottom)
}

/// Figure 11: yield-interval sensitivity of Cooperative, vs the
/// handcrafted variant and PreemptDB.
pub fn fig11(sc: &Scenario, intervals: &[u64]) -> Table {
    let (tpcc, tpch) = load_mixed(sc.workers, sc.seed);
    let mut t = Table::new(
        "Figure 11: yield interval vs throughput and latency",
        &[
            "variant",
            "neworder p50",
            "neworder p99",
            "neworder tps",
            "q2 p99",
            "q2 tps",
        ],
    );
    let mut add = |label: String, policy: Policy| {
        let r = run_mixed(policy, sc, tpcc.clone(), tpch.clone());
        t.row(vec![
            label,
            us(r.latency_us(kinds::NEW_ORDER, 50.0)),
            us(r.latency_us(kinds::NEW_ORDER, 99.0)),
            tps(r.tps(kinds::NEW_ORDER)),
            us(r.latency_us(kinds::Q2, 99.0)),
            tps(r.tps(kinds::Q2)),
        ]);
    };
    for &iv in intervals {
        add(
            format!("Cooperative({iv})"),
            Policy::Cooperative { yield_interval: iv },
        );
    }
    // The handcrafted variant is tuned per workload (that is the paper's
    // point): our Q2 evaluates ~20k nested blocks, so checking every 200
    // blocks yields every ~45 µs of Q2 work — the "right" spot a DBMS
    // developer would have to find by profiling.
    add(
        "Coop-Handcrafted(200)".into(),
        Policy::CooperativeHandcrafted {
            block_interval: 200,
        },
    );
    add("PreemptDB".into(), Policy::preemptdb());
    t
}

/// Figure 12: starvation-threshold sweep under overload (high queue 100,
/// 1600 high-priority transactions per 1 ms across 16 workers).
pub fn fig12(sc: &Scenario, thresholds: &[f64]) -> Table {
    let overload = sc.overload();
    let (tpcc, tpch) = load_mixed(overload.workers, overload.seed);
    let mut t = Table::new(
        "Figure 12: starvation threshold under overload",
        &[
            "policy",
            "neworder p50",
            "neworder p99",
            "neworder tps",
            "q2 p99",
            "q2 tps",
            "skipped",
        ],
    );
    let mut add = |label: String, policy: Policy| {
        let r = run_mixed(policy, &overload, tpcc.clone(), tpch.clone());
        t.row(vec![
            label,
            us(r.latency_us(kinds::NEW_ORDER, 50.0)),
            us(r.latency_us(kinds::NEW_ORDER, 99.0)),
            tps(r.tps(kinds::NEW_ORDER)),
            us(r.latency_us(kinds::Q2, 99.0)),
            tps(r.tps(kinds::Q2)),
            r.scheduler.skipped_starving.to_string(),
        ]);
    };
    add("Wait".into(), Policy::Wait);
    for &thr in thresholds {
        add(
            format!("PreemptDB(Lmax={thr})"),
            Policy::Preemptive {
                starvation_threshold: thr,
            },
        );
    }
    t
}

/// Figure 13: robustness across arrival intervals — geometric-mean
/// end-to-end latency of NewOrder and Q2.
pub fn fig13(sc: &Scenario, arrival_us: &[u64]) -> Table {
    let (tpcc, tpch) = load_mixed(sc.workers, sc.seed);
    let mut t = Table::new(
        "Figure 13: geomean latency vs arrival interval",
        &["arrival", "policy", "neworder geomean", "q2 geomean"],
    );
    for &a_us in arrival_us {
        for (name, policy) in competing_policies() {
            let sc_a = Scenario {
                arrival_us: a_us,
                ..*sc
            };
            let r = run_mixed(policy, &sc_a, tpcc.clone(), tpch.clone());
            t.row(vec![
                format!("{a_us}us"),
                name.into(),
                us(r.geomean_latency_us(kinds::NEW_ORDER)),
                us(r.geomean_latency_us(kinds::Q2)),
            ]);
        }
    }
    t
}

/// Ablation (DESIGN.md §5.1): sensitivity of PreemptDB's high-priority
/// latency to the emulated user-interrupt delivery latency. The paper's
/// hardware delivers in < 1 µs; the results should be insensitive for
/// any delivery latency well below the transaction scale (~10 µs) —
/// which is what makes the software emulation a faithful substitute.
pub fn ablation_delivery(sc: &Scenario, delivery_us: &[f64]) -> Table {
    let (tpcc, tpch) = crate::load_mixed(sc.workers, sc.seed);
    let mut t = Table::new(
        "Ablation: emulated uintr delivery latency vs NewOrder latency",
        &["delivery", "neworder p50", "neworder p99", "q2 p99"],
    );
    for &d_us in delivery_us {
        let sim = SimConfig {
            uintr_delivery_cycles: (d_us * 2_400.0) as u64,
            ..SimConfig::default()
        };
        let cfg = sc.driver_config(Policy::preemptdb(), &sim);
        let factory = MixedWorkload::new(tpcc.clone(), tpch.clone(), sc.seed);
        let r = run(Runtime::Simulated(sim), cfg, Box::new(factory));
        t.row(vec![
            format!("{d_us}us"),
            us(r.latency_us(kinds::NEW_ORDER, 50.0)),
            us(r.latency_us(kinds::NEW_ORDER, 99.0)),
            us(r.latency_us(kinds::Q2, 99.0)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        Scenario {
            workers: 2,
            duration_ms: 30,
            arrival_us: 1_000,
            high_queue: 4,
            batch: None,
            seed: 1,
        }
    }

    #[test]
    fn fig01_has_three_policies() {
        let t = fig01(&tiny_scenario());
        let md = t.to_markdown();
        assert!(md.contains("Wait") && md.contains("PreemptDB"));
    }

    #[test]
    fn fig10_produces_both_tables() {
        let (top, bottom) = fig10(&tiny_scenario());
        assert!(!top.is_empty() && !bottom.is_empty());
    }

    #[test]
    fn fig08_reports_overhead() {
        let t = fig08(&tiny_scenario(), &[2]);
        assert!(t.to_markdown().contains('%'));
    }
}
