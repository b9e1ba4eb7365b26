//! # preempt-bench
//!
//! The experiment harness: one module per evaluation artifact of the
//! paper (§6, Figures 1 and 8–13 plus the §6.1 delivery-latency
//! measurement). Each experiment
//!
//! 1. loads the workload at a laptop-scaled size (DESIGN.md §1.4),
//! 2. runs the scheduling configurations on the deterministic
//!    virtual-time simulator, and
//! 3. prints the same rows/series the paper reports and returns them
//!    structured, so `run_all` can regenerate `EXPERIMENTS.md`.
//!
//! Absolute numbers are not expected to match the authors' Xeon testbed;
//! the *shape* (who wins, by what factor, where crossovers fall) is the
//! reproduction target.
//!
//! The crate builds one binary, `run_all`; [`cli`] holds the table of
//! experiment names it accepts, and each self-checking experiment is a
//! module here with a `run(args) -> ExitCode` entry point.

pub mod attr_gate;
pub mod autotune_threshold;
pub mod cli;
pub mod experiments;
pub mod ext_ycsb;
pub mod fig09;
pub mod fig_adaptive;
pub mod metrics_dump;
pub mod server_bench;
pub mod table;
pub mod trace_dump;

pub use experiments::*;
pub use table::Table;

use preemptdb::sched::{run, DriverConfig, Policy, RunReport, Runtime};
use preemptdb::workloads::{setup_mixed, MixedWorkload, TpccDb, TpccScale, TpchDb, TpchScale};
use preemptdb::SimConfig;
use std::sync::Arc;

/// Shared knobs for the mixed-workload experiments. `quick()` keeps a
/// full figure under a couple of minutes on a laptop; `full()` stretches
/// durations toward the paper's 30 s runs.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    pub workers: usize,
    /// Virtual run duration, milliseconds.
    pub duration_ms: u64,
    /// High-priority arrival interval, microseconds (paper default 1000).
    pub arrival_us: u64,
    /// High-priority queue capacity per worker (paper default 4).
    pub high_queue: usize,
    /// Batch per arrival; `None` = workers × high_queue (paper default).
    pub batch: Option<usize>,
    pub seed: u64,
}

impl Scenario {
    pub fn quick() -> Scenario {
        Scenario {
            workers: 16,
            duration_ms: 200,
            arrival_us: 1_000,
            high_queue: 4,
            batch: None,
            seed: 42,
        }
    }

    pub fn full() -> Scenario {
        Scenario {
            duration_ms: 2_000,
            ..Scenario::quick()
        }
    }

    /// `full()` if `full`, else `quick()` — the `--full` switch.
    pub fn pick(full: bool) -> Scenario {
        if full {
            Scenario::full()
        } else {
            Scenario::quick()
        }
    }

    /// The Figure 12 overload: high queue 100, 100 × workers
    /// high-priority transactions per arrival.
    pub fn overload(&self) -> Scenario {
        Scenario {
            high_queue: 100,
            batch: Some(100 * self.workers),
            ..*self
        }
    }

    pub fn batch_size(&self) -> usize {
        self.batch.unwrap_or(self.workers * self.high_queue)
    }

    /// The driver configuration this scenario describes: paper defaults
    /// with its worker count, high-queue depth, batch, arrival interval
    /// and duration (converted at `sim`'s clock).
    pub fn driver_config(&self, policy: Policy, sim: &SimConfig) -> DriverConfig {
        DriverConfig {
            n_workers: self.workers,
            queue_caps: vec![1, self.high_queue],
            batch_size: self.batch_size(),
            arrival_interval: sim.us_to_cycles(self.arrival_us),
            duration: sim.ms_to_cycles(self.duration_ms),
            ..DriverConfig::paper_default(policy)
        }
    }
}

/// The laptop-scaled workload sizes used by all experiments
/// (documented substitution, DESIGN.md §1.4).
pub fn bench_tpcc_scale(warehouses: u64) -> TpccScale {
    TpccScale {
        warehouses,
        districts_per_wh: 10,
        customers_per_district: 300,
        items: 2_000,
        preloaded_orders: 20,
    }
}

pub fn bench_tpch_scale() -> TpchScale {
    TpchScale::default_mix()
}

/// Loads one mixed-workload database (shared by the runs of one figure;
/// the TPC-H side is read-only and TPC-C growth between runs does not
/// affect scheduling metrics).
pub fn load_mixed(workers: usize, seed: u64) -> (Arc<TpccDb>, Arc<TpchDb>) {
    let (_engine, tpcc, tpch) = setup_mixed(
        workers as u64,
        Some(bench_tpcc_scale(workers as u64)),
        Some(bench_tpch_scale()),
        seed,
    );
    (tpcc, tpch)
}

/// Runs the paper's mixed workload under `policy`.
pub fn run_mixed(
    policy: Policy,
    sc: &Scenario,
    tpcc: Arc<TpccDb>,
    tpch: Arc<TpchDb>,
) -> RunReport {
    let sim = SimConfig::default();
    let cfg = sc.driver_config(policy, &sim);
    let factory = MixedWorkload::new(tpcc, tpch, sc.seed);
    run(Runtime::Simulated(sim), cfg, Box::new(factory))
}

/// The three §6.1 competing methods with paper-default settings.
pub fn competing_policies() -> [(&'static str, Policy); 3] {
    [
        ("Wait", Policy::Wait),
        ("Cooperative", Policy::cooperative()),
        ("PreemptDB", Policy::preemptdb()),
    ]
}
