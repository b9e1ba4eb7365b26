//! Adaptive starvation-threshold controller vs the static sweep
//! (paper §6.4 leaves automatic `L_max` tuning as future work; this
//! experiment closes the loop).
//!
//! Scenario: the Figure 12 mixed workload with a deterministic mid-run
//! **load shift** — the high-priority stream runs light for the first
//! half, then jumps to the full batch rate. Any static `L_max` is
//! stranded on the wrong side of the trade-off in one of the two
//! regimes; the closed-loop controller re-converges within a few
//! evaluation windows of the shift.
//!
//! Post-shift numbers are exact, not sampled: determinism makes a
//! `duration = shift` run a byte-identical prefix of the full run, so
//! `full − prefix` (counts and histograms, via
//! [`Histogram::subtracting`]) is precisely the post-shift regime.
//!
//! Self-checking — the run fails (nonzero exit) unless:
//!
//! 1. adaptive post-shift Q2 throughput ≥ 95 % of the best static
//!    threshold that still meets the high-priority p99 SLO;
//! 2. adaptive post-shift high-priority p99 is within the SLO;
//! 3. two same-seed adaptive runs produce byte-identical threshold
//!    trajectories;
//! 4. no run abandons a batch remainder on the no-progress retry path
//!    (`retry_abandoned_high == 0`).
//!
//! ```sh
//! cargo run --release -p preempt-bench --bin run_all -- fig_adaptive [--check]
//! ```
//!
//! `--check` (alias `--quick`) shrinks the run for CI.

use std::process::ExitCode;

use crate::cli::flag;
use crate::{load_mixed, Table};
use preemptdb::sched::{
    self, ControllerConfig, DriverConfig, Histogram, Policy, RobustnessConfig, RunReport, Runtime,
};
use preemptdb::workloads::{kinds, LoadShift, MixedWorkload};
use preemptdb::SimConfig;

/// The load-shift scenario. High-priority demand is capped per arrival
/// tick: `pre_cap` requests/tick before `shift_ms`, `post_cap` after.
#[derive(Clone, Copy)]
struct Shift {
    workers: usize,
    duration_ms: u64,
    shift_ms: u64,
    /// Convergence allowance after the shift: the controller needs a few
    /// evaluation windows to climb out of the light-phase threshold, so
    /// the steady-state comparison starts at `shift_ms + settle_ms`.
    /// (Statics are stationary; measuring them over the same window
    /// keeps the comparison fair.)
    settle_ms: u64,
    arrival_us: u64,
    high_queue: usize,
    pre_cap: u32,
    post_cap: u32,
    seed: u64,
}

impl Shift {
    fn quick() -> Shift {
        Shift {
            workers: 8,
            duration_ms: 165,
            shift_ms: 60,
            settle_ms: 45,
            arrival_us: 1_000,
            high_queue: 8,
            pre_cap: 2,
            post_cap: u32::MAX,
            seed: 42,
        }
    }

    fn full() -> Shift {
        Shift {
            duration_ms: 285,
            shift_ms: 120,
            ..Shift::quick()
        }
    }

    fn batch_size(&self) -> usize {
        self.workers * self.high_queue
    }

    /// Start of the measured steady-state regime, ms.
    fn measure_from_ms(&self) -> u64 {
        self.shift_ms + self.settle_ms
    }
}

/// One deterministic simulated run under `policy`, truncated at
/// `duration_ms`. The database is rebuilt per run so every run replays
/// the same virtual-time execution from the same initial state.
fn run_shifted(policy: Policy, sc: &Shift, duration_ms: u64) -> RunReport {
    let sim = SimConfig::default();
    let (tpcc, tpch) = load_mixed(sc.workers, sc.seed);
    let cfg = DriverConfig {
        n_workers: sc.workers,
        queue_caps: vec![1, sc.high_queue],
        batch_size: sc.batch_size(),
        arrival_interval: sim.us_to_cycles(sc.arrival_us),
        duration: sim.ms_to_cycles(duration_ms),
        // Give the dispatch loop enough no-progress retry budget that a
        // full-queue tick always ends on the paper's abandon-at-next-
        // arrival path, never the emergency give-up path — the checks
        // below assert `retry_abandoned_high == 0` on exactly that basis
        // (one tick is ~100 retry pauses, so 1000 rounds cannot run out).
        robustness: RobustnessConfig {
            max_full_retries: 1_000,
            ..Default::default()
        },
        ..DriverConfig::paper_default(policy)
    };
    let factory = LoadShift::new(
        MixedWorkload::new(tpcc, tpch, sc.seed),
        sim.ms_to_cycles(sc.shift_ms),
        sc.pre_cap,
        sc.post_cap,
    );
    sched::run(Runtime::Simulated(sim), cfg, Box::new(factory))
}

/// Post-shift regime metrics extracted by prefix subtraction.
struct PostShift {
    q2: u64,
    high: u64,
    p99_us: f64,
}

fn high_latency(r: &RunReport) -> Histogram {
    let mut h = Histogram::new();
    for kind in [kinds::NEW_ORDER, kinds::PAYMENT] {
        if let Some(m) = r.metrics.kind(kind) {
            h.merge(&m.latency);
        }
    }
    h
}

fn post_shift(pre: &RunReport, full: &RunReport, sim: &SimConfig) -> PostShift {
    let q2 = full
        .completed(kinds::Q2)
        .saturating_sub(pre.completed(kinds::Q2));
    let high = high_latency(full).subtracting(&high_latency(pre));
    PostShift {
        q2,
        high: high.count(),
        p99_us: sim.cycles_to_us(high.percentile(99.0)),
    }
}

/// Check 1: the adaptive run's post-shift Q2 count against the best
/// static threshold that met the SLO — the passing line to print, or the
/// failure.
fn competitive(best_static_q2: Option<u64>, adaptive_q2: u64) -> Result<String, String> {
    match best_static_q2 {
        Some(best) if best > 0 => {
            let floor = (best as f64 * 0.95).ceil() as u64;
            if adaptive_q2 < floor {
                Err(format!(
                    "adaptive post-shift Q2 {adaptive_q2} < 95% of best compliant static ({best})"
                ))
            } else {
                Ok(format!(
                    "adaptive post-shift Q2 {adaptive_q2} >= 95% of best compliant static ({best})"
                ))
            }
        }
        _ => Err("no static threshold met the p99 SLO post-shift".into()),
    }
}

pub fn run(args: &[String]) -> ExitCode {
    let check = flag(args, "--check") || flag(args, "--quick");
    let sc = if check { Shift::quick() } else { Shift::full() };
    let sim = SimConfig::default();
    // floor_decay 1.0: never re-probe below a threshold that violated.
    // One probe window below the analytics latency cliff costs ~5 ms of
    // millisecond tails — several percent of this short run's samples —
    // so any nonzero re-probe rate blows a p99 SLO here. The crate
    // default (0.98) suits long-running services, where an occasional
    // probe window is amortized over minutes.
    let ctl = ControllerConfig {
        floor_decay: 1.0,
        ..ControllerConfig::default_2_4ghz()
    };
    let bound_us = sim.cycles_to_us(ctl.high_p99_bound);

    eprintln!(
        "load shift at {} ms: high-priority cap {}/tick -> {}; SLO p99 <= {:.0} us",
        sc.shift_ms,
        sc.pre_cap,
        sc.batch_size(),
        bound_us
    );

    let mut table = Table::new(
        format!(
            "Adaptive L_max vs static sweep (steady state {}..{} ms, shift at {} ms)",
            sc.measure_from_ms(),
            sc.duration_ms,
            sc.shift_ms
        ),
        &["policy", "post q2", "post high", "post p99 us", "slo", "final L_max"],
    );

    let mut failures: Vec<String> = Vec::new();
    let mut best_static_q2: Option<u64> = None;

    for threshold in [0.1, 0.25, 0.5, 1.0] {
        let policy = Policy::Preemptive {
            starvation_threshold: threshold,
        };
        let pre = run_shifted(policy, &sc, sc.measure_from_ms());
        let full = run_shifted(policy, &sc, sc.duration_ms);
        if full.scheduler.retry_abandoned_high != 0 {
            failures.push(format!(
                "static L_max={threshold}: abandoned {} high requests on the retry path",
                full.scheduler.retry_abandoned_high
            ));
        }
        let post = post_shift(&pre, &full, &sim);
        let ok = post.p99_us <= bound_us;
        if ok {
            best_static_q2 = Some(best_static_q2.unwrap_or(0).max(post.q2));
        }
        table.row(vec![
            format!("static L_max={threshold}"),
            post.q2.to_string(),
            post.high.to_string(),
            format!("{:.0}", post.p99_us),
            if ok { "meets" } else { "violates" }.into(),
            format!("{threshold:.3}"),
        ]);
    }

    let adaptive = Policy::PreemptiveAdaptive { controller: ctl };
    let pre = run_shifted(adaptive, &sc, sc.measure_from_ms());
    let full = run_shifted(adaptive, &sc, sc.duration_ms);
    let rerun = run_shifted(adaptive, &sc, sc.duration_ms);
    let post = post_shift(&pre, &full, &sim);

    let report = full
        .controller
        .as_ref()
        .expect("adaptive run must produce a controller report");
    let report2 = rerun
        .controller
        .as_ref()
        .expect("adaptive rerun must produce a controller report");

    let adaptive_ok = post.p99_us <= bound_us;
    table.row(vec![
        "adaptive".into(),
        post.q2.to_string(),
        post.high.to_string(),
        format!("{:.0}", post.p99_us),
        if adaptive_ok { "meets" } else { "violates" }.into(),
        format!("{:.3}", report.final_threshold),
    ]);
    table.print();

    println!(
        "controller: {} evaluations, final L_max = {:.3}",
        report.trajectory.len(),
        report.final_threshold
    );
    if std::env::var_os("FIG_ADAPTIVE_TRAJECTORY").is_some() {
        eprint!("{}", report.trajectory_text());
    }

    // 1. Competitive with the best SLO-compliant static threshold.
    match competitive(best_static_q2, post.q2) {
        Ok(line) => println!("{line}"),
        Err(f) => failures.push(f),
    }

    // 2. SLO compliance.
    if !adaptive_ok {
        failures.push(format!(
            "adaptive post-shift p99 {:.0} us exceeds the {bound_us:.0} us SLO",
            post.p99_us
        ));
    }

    // 3. Determinism: same seed, byte-identical threshold trajectory.
    if report.trajectory_text() != report2.trajectory_text() {
        failures.push("same-seed adaptive runs diverged in threshold trajectory".into());
    } else {
        println!(
            "determinism: two same-seed adaptive runs produced identical {}-window trajectories",
            report.trajectory.len()
        );
    }
    if report.trajectory.is_empty() {
        failures.push("controller never evaluated a window".into());
    }

    // 4. Clean runs: nothing abandoned on the no-progress retry path.
    for (label, r) in [("adaptive", &full), ("adaptive-rerun", &rerun)] {
        if r.scheduler.retry_abandoned_high != 0 {
            failures.push(format!(
                "{label}: abandoned {} high requests on the retry path",
                r.scheduler.retry_abandoned_high
            ));
        }
    }

    if failures.is_empty() {
        println!("fig_adaptive: all checks passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("fig_adaptive FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::competitive;

    #[test]
    fn below_95_percent_of_best_static_fails() {
        // ceil(0.95 * 200) = 190 is the floor.
        assert!(competitive(Some(200), 190).is_ok());
        let err = competitive(Some(200), 189).unwrap_err();
        assert!(err.contains("189 < 95% of best compliant static (200)"), "{err}");
    }

    #[test]
    fn no_compliant_static_fails() {
        for best in [None, Some(0)] {
            let err = competitive(best, 1_000).unwrap_err();
            assert!(err.contains("no static threshold met the p99 SLO"), "{err}");
        }
    }
}
