//! Extension experiment: do the paper's conclusions generalize beyond
//! TPC-C? Same mixed-workload design, but the high-priority stream is
//! YCSB-B (95/5 read/update, zipfian) instead of NewOrder/Payment.
//!
//! ```sh
//! cargo run --release -p preempt-bench --bin run_all -- ext_ycsb
//! ```

use crate::{bench_tpch_scale, competing_policies, Scenario, Table};
use preemptdb::sched::{self, Request, Runtime, WorkOutcome, WorkloadFactory};
use preemptdb::workloads::{Q2Params, TpchDb, YcsbConfig, YcsbDb, YcsbMix};
use preemptdb::SimConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::sync::Arc;

/// Q2 lows + YCSB highs.
struct YcsbQ2 {
    ycsb: Arc<YcsbDb>,
    tpch: Arc<TpchDb>,
    rng: SmallRng,
}

impl WorkloadFactory for YcsbQ2 {
    fn make_low(&mut self, now: u64) -> Option<Request> {
        let params = Q2Params::generate(&mut self.rng, &self.tpch.scale);
        let db = self.tpch.clone();
        Some(Request::new("q2", 0, now, move || {
            std::hint::black_box(db.q2(&params).expect("read-only").len());
            WorkOutcome::default()
        }))
    }

    fn make_high(&mut self, now: u64) -> Option<Request> {
        let db = self.ycsb.clone();
        let seed = self.rng.random::<u64>();
        Some(Request::new("ycsb", 1, now, move || {
            let mut rng = SmallRng::seed_from_u64(seed);
            WorkOutcome::committed(db.run_op(YcsbMix::B, &mut rng))
        }))
    }
}

pub fn run(_args: &[String]) -> ExitCode {
    let sc = Scenario::quick();
    let mut t = Table::new(
        "Extension: YCSB-B high-priority stream vs Q2 (paper's design, new workload)",
        &["policy", "ycsb p50", "ycsb p99", "ycsb tps", "q2 p99", "q2 tps"],
    );
    for (name, policy) in competing_policies() {
        let engine = preemptdb::Engine::new(preemptdb::EngineConfig::default());
        let ycsb = YcsbDb::load(&engine, YcsbConfig::default(), 21).unwrap();
        let tpch = TpchDb::load(&engine, bench_tpch_scale(), 22).unwrap();
        let sim = SimConfig::default();
        let cfg = sc.driver_config(policy, &sim);
        let factory = YcsbQ2 {
            ycsb,
            tpch,
            rng: SmallRng::seed_from_u64(23),
        };
        let r = sched::run(Runtime::Simulated(sim), cfg, Box::new(factory));
        t.row(vec![
            name.into(),
            format!("{:.1}us", r.latency_us("ycsb", 50.0)),
            format!("{:.1}us", r.latency_us("ycsb", 99.0)),
            format!("{:.0}", r.tps("ycsb")),
            format!("{:.1}us", r.latency_us("q2", 99.0)),
            format!("{:.0}", r.tps("q2")),
        ]);
    }
    t.print();
    println!("the latency gap should mirror Figure 10: the mechanism is workload-agnostic.");
    ExitCode::SUCCESS
}
