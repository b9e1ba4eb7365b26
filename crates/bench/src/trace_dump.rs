//! Dumps a preemption event trace from a deterministic simulator run.
//!
//! Runs the Figure 9 mixed TPC-C + TPC-H scenario under the preemptive
//! policy with `preempt-trace` recording enabled, prints the derived
//! preemption-latency breakdown (send→notice, notice→handler,
//! handler→switch), and writes the merged trace as a chrome://tracing
//! JSON file — open it at `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ```sh
//! cargo run --release -p preempt-bench --bin run_all -- trace_dump [out.json]
//! ```

use std::process::ExitCode;

use preemptdb::sched::{self, DriverConfig, Policy, Runtime};
use preemptdb::trace::{LatencyStats, TraceConfig, TraceSession};
use preemptdb::workloads::{setup_mixed, MixedWorkload};
use preemptdb::SimConfig;

fn row(name: &str, s: &LatencyStats, freq_hz: u64) {
    let us = |c: u64| c as f64 * 1e6 / freq_hz as f64;
    println!(
        "  {name:<18} n={:<6} min={:>8.3}us p50={:>8.3}us p99={:>8.3}us max={:>8.3}us",
        s.count,
        us(s.min),
        us(s.p50),
        us(s.p99),
        us(s.max),
    );
}

pub fn run(args: &[String]) -> ExitCode {
    let out = args.first().map_or("trace.json", String::as_str);
    let sim = SimConfig::default();
    let workers = 8usize;
    let (_e, tpcc, tpch) = setup_mixed(workers as u64, None, None, 42);
    // Latch traffic would evict the rare preemption-lifecycle events
    // this dump exists to show; keep only the interesting kinds.
    let trace = TraceSession::new(TraceConfig::default().without_latch_events());
    let cfg = DriverConfig {
        n_workers: workers,
        queue_caps: vec![1, 100],
        batch_size: 100 * workers,
        duration: sim.ms_to_cycles(50),
        trace: Some(trace),
        ..DriverConfig::paper_default(Policy::preemptdb())
    };
    let factory = MixedWorkload::new(tpcc, tpch, 42);
    let report = sched::run(Runtime::Simulated(sim), cfg, Box::new(factory));

    let merged = report.trace.as_ref().expect("trace session was installed");
    println!(
        "merged trace: {} events across {} rings ({} dropped)",
        merged.len(),
        merged.ring_labels.len(),
        merged.dropped
    );
    if let Some(b) = &report.preempt_breakdown {
        println!("preemption latency breakdown (virtual time @ {} Hz):", sim.freq_hz);
        row("send->notice", &b.send_to_notice, sim.freq_hz);
        row("notice->handler", &b.notice_to_handler, sim.freq_hz);
        row("handler->switch", &b.handler_to_switch, sim.freq_hz);
        row("send->handler", &b.send_to_handler, sim.freq_hz);
    }

    let json = merged.to_chrome_json(sim.freq_hz);
    std::fs::write(out, &json).expect("write trace file");
    println!("wrote {} bytes to {out} (load in chrome://tracing)", json.len());
    ExitCode::SUCCESS
}
