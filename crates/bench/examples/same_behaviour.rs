//! The same-behaviour matrix: the paper's §6.1 mix (TPC-C NewOrder and
//! Payment at high priority over TPC-H Q2 scans) through `sched::run` on
//! the virtual-time simulator, for every combination of
//!
//! * policy: Wait, Cooperative(500), Preemptive(0.25), Adaptive;
//! * scheduler shards: 1, 2, 4;
//! * fault plan: none, lossy (dropped interrupts and forced aborts),
//!   chaos (every fault kind, latch panics included);
//! * workers: 4, 16;
//!
//! 72 blocks, 40 virtual ms each. A block prints every `SchedulerStats`
//! and `WorkerTotals` field, per-kind counts and percentiles, every
//! counter of the final snapshot by name, and hashes of the canonical
//! event trace, the fault-decision trace, the controller trajectory and
//! the contained panic messages. Virtual time makes the output a pure
//! function of the source, so two trees that behave the same print the
//! same bytes:
//!
//!   cargo run --release -p preempt-bench --example same_behaviour > out.txt
//!   cargo run --release -p preempt-bench --example same_behaviour -- wait none
//!
//! Arguments filter blocks: a block runs if its label contains every
//! argument. `scripts/same_behaviour.sh <ref>` builds this file in an
//! export of `<ref>` and in the working tree and diffs the two outputs.

use std::fmt::Write as _;

use preempt_faults::FaultPlan;
use preemptdb::metrics::Counter;
use preemptdb::sched::{run, DriverConfig, Policy, RunReport, Runtime};
use preemptdb::trace::{TraceConfig, TraceSession};
use preemptdb::workloads::{setup_mixed, MixedWorkload, TpccScale, TpchScale};
use preemptdb::SimConfig;

const DURATION_MS: u64 = 40;
const SEED: u64 = 7;

fn policies() -> [(&'static str, Policy); 4] {
    [
        ("wait", Policy::Wait),
        ("coop", Policy::Cooperative { yield_interval: 500 }),
        (
            "preempt",
            Policy::Preemptive {
                starvation_threshold: 0.25,
            },
        ),
        ("adaptive", Policy::preemptdb_adaptive()),
    ]
}

fn plans() -> [(&'static str, Option<FaultPlan>); 3] {
    [
        ("none", None),
        ("lossy", Some(FaultPlan::lossy(SEED, 300_000, 50_000))),
        (
            "chaos",
            Some(
                FaultPlan::lossy(SEED, 200_000, 20_000)
                    .with_delay(100_000, 50_000)
                    .with_duplicate_ppm(50_000)
                    .with_spurious_ppm(50_000)
                    .with_stall(20_000, 20_000)
                    .with_txn_panic_ppm(5_000)
                    .with_latch_panic_ppm(20_000),
            ),
        ),
    ]
}

/// FNV-1a: stable across builds and toolchains, unlike `DefaultHasher`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn run_block(policy: Policy, shards: usize, plan: Option<FaultPlan>, workers: usize) -> RunReport {
    let sim = SimConfig {
        faults: plan,
        ..SimConfig::default()
    };
    let w = workers as u64;
    let tpcc = TpccScale {
        warehouses: w,
        districts_per_wh: 4,
        customers_per_district: 100,
        items: 500,
        preloaded_orders: 10,
    };
    let tpch = TpchScale {
        parts: 12_000,
        suppliers: 200,
        suppliers_per_part: 4,
        nations: 25,
        regions: 5,
        sizes: 20,
        types: 10,
    };
    let (_engine, tpcc, tpch) = setup_mixed(w, Some(tpcc), Some(tpch), 17);
    let cfg = DriverConfig {
        n_workers: workers,
        shards,
        queue_caps: vec![1, 4],
        batch_size: workers * 4,
        arrival_interval: sim.us_to_cycles(1_000),
        duration: sim.ms_to_cycles(DURATION_MS),
        trace: Some(TraceSession::new(TraceConfig::default())),
        ..DriverConfig::paper_default(policy)
    };
    run(
        Runtime::Simulated(sim),
        cfg,
        Box::new(MixedWorkload::new(tpcc, tpch, 23)),
    )
}

fn print_block(label: &str, r: &RunReport) {
    let mut out = String::new();
    let _ = writeln!(out, "== {label}");
    let _ = writeln!(out, "scheduler {:?}", r.scheduler);
    let _ = writeln!(out, "workers {:?}", r.workers);
    let mut kinds: Vec<_> = r.metrics.kinds().collect();
    kinds.sort_by_key(|(k, _)| *k);
    for (kind, m) in kinds {
        let _ = writeln!(
            out,
            "kind {kind} completed {} failed {} deadline {} retries {} p50 {} p99 {} sched_p99 {}",
            m.completed,
            m.failed,
            m.deadline_aborted,
            m.retries,
            m.latency.percentile(50.0),
            m.latency.percentile(99.0),
            m.sched_latency.percentile(99.0),
        );
    }
    for c in Counter::ALL {
        let _ = writeln!(out, "counter {} {}", c.name(), r.metrics_snapshot.counter(c));
    }
    let trace = r.trace.as_ref().map_or(0, |t| fnv(&t.canonical_text()));
    let faults = r.fault_trace.as_deref().map_or(0, fnv);
    let controller = r.controller.as_ref().map_or(0, |c| fnv(&c.trajectory_text()));
    let panics = fnv(&r.panic_messages.join("\n"));
    let _ = writeln!(
        out,
        "hash trace {trace:016x} faults {faults:016x} controller {controller:016x} \
         panics {panics:016x} ({}) core_failures {}",
        r.panic_messages.len(),
        r.core_failures.len(),
    );
    print!("{out}");
}

fn main() {
    let filters: Vec<String> = std::env::args().skip(1).collect();
    for workers in [4, 16] {
        for (pname, policy) in policies() {
            for shards in [1, 2, 4] {
                for (fname, plan) in plans() {
                    let label = format!("{workers}w {pname} s{shards} {fname}");
                    if !filters.iter().all(|f| label.contains(f.as_str())) {
                        continue;
                    }
                    eprintln!("{label}");
                    print_block(&label, &run_block(policy, shards, plan, workers));
                }
            }
        }
    }
}
