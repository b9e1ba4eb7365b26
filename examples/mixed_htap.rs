//! The paper's headline scenario, end to end: a mixed HTAP workload
//! (long low-priority TPC-H Q2 + short high-priority TPC-C NewOrder and
//! Payment) run under Wait, Cooperative, and PreemptDB policies on the
//! deterministic virtual-time simulator, with a side-by-side latency and
//! throughput comparison (a compact version of Figures 9–10).
//!
//! ```sh
//! cargo run --release --example mixed_htap
//! ```

use preemptdb::sched::{run, DriverConfig, Policy, Runtime};
use preemptdb::workloads::{kinds, setup_mixed, MixedWorkload, TpccScale, TpchScale};
use preemptdb::SimConfig;

fn main() {
    let workers = 4;
    let sim = SimConfig::default();
    println!("loading TPC-C ({workers} warehouses) + TPC-H subset ...");

    let policies = [
        ("Wait", Policy::Wait),
        ("Cooperative", Policy::cooperative()),
        ("PreemptDB", Policy::preemptdb()),
    ];

    println!(
        "\n{:<14} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "policy", "NO p50us", "NO p99us", "Q2 p50ms", "Q2 p99ms", "NO tps", "Q2 tps"
    );
    for (name, policy) in policies {
        // Each policy gets a fresh, identically-seeded database.
        let mut tpcc = TpccScale::new(workers as u64);
        tpcc.customers_per_district = 300; // quick demo scale
        tpcc.items = 2_000;
        let (_engine, tpcc_db, tpch_db) =
            setup_mixed(workers as u64, Some(tpcc), Some(TpchScale::default_mix()), 42);
        let factory = MixedWorkload::new(tpcc_db, tpch_db, 7);

        let cfg = DriverConfig {
            n_workers: workers,
            batch_size: workers * 4,
            arrival_interval: sim.ms_to_cycles(1),
            duration: sim.ms_to_cycles(250),
            ..DriverConfig::paper_default(policy)
        };
        let report = run(Runtime::Simulated(sim), cfg, Box::new(factory));

        println!(
            "{:<14} {:>10.1} {:>10.1} {:>10.2} {:>10.2} {:>9.0} {:>9.0}",
            name,
            report.latency_us(kinds::NEW_ORDER, 50.0),
            report.latency_us(kinds::NEW_ORDER, 99.0),
            report.latency_us(kinds::Q2, 50.0) / 1_000.0,
            report.latency_us(kinds::Q2, 99.0) / 1_000.0,
            report.tps(kinds::NEW_ORDER) + report.tps(kinds::PAYMENT),
            report.tps(kinds::Q2),
        );
    }
    println!(
        "\nPreemptDB should show order-of-magnitude lower NewOrder latency \
         than Wait with comparable Q2 throughput (paper Figures 9-10)."
    );
}
