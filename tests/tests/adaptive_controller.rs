//! End-to-end tests for the closed-loop starvation-threshold controller
//! ([`Policy::PreemptiveAdaptive`], ISSUE 4 tentpole):
//!
//! * determinism — two same-seed adaptive runs produce byte-identical
//!   threshold trajectories, equal reports, and byte-identical merged
//!   traces (the `ControllerDecision` events included);
//! * convergence — under a synthetic mid-run load shift the controller
//!   lands on a threshold whose post-shift Q2 throughput is no worse
//!   than the worst static's while keeping the high-priority p99 within
//!   its bound;
//! * composition with robustness — a 100 % interrupt outage confined to
//!   the opening phase (via [`FaultPlan::with_drop_before`]) degrades
//!   the scheduler exactly once, and the rolling degradation window
//!   re-arms it once the outage ends.

use preempt_faults::FaultPlan;
use preemptdb::sched::{
    run, ControllerConfig, DriverConfig, Policy, Request, RunReport, Runtime, WorkOutcome,
    WorkloadFactory,
};
use preemptdb::trace::{TraceConfig, TraceEvent, TraceSession};
use preemptdb::workloads::LoadShift;
use preemptdb::SimConfig;

/// Long low-priority "scans" and short high-priority "points", as in the
/// fault-injection and trace tests: scans sit in preemption-point loops
/// long enough that threshold choices visibly trade Q2-style progress
/// against point latency.
struct Counted {
    scan_iters: u64,
}

impl WorkloadFactory for Counted {
    fn make_low(&mut self, now: u64) -> Option<Request> {
        let iters = self.scan_iters;
        Some(Request::new("scan", 0, now, move || {
            for _ in 0..iters {
                preemptdb::context::runtime::preempt_point(1_000);
            }
            WorkOutcome::default()
        }))
    }

    fn make_high(&mut self, now: u64) -> Option<Request> {
        Some(Request::new("point", 1, now, move || {
            for _ in 0..20 {
                preemptdb::context::runtime::preempt_point(1_000);
            }
            WorkOutcome::default()
        }))
    }
}

const N_WORKERS: usize = 4;
const MS: u64 = 2_400_000; // one virtual millisecond at the 2.4 GHz time base

/// Controller sized for short test runs: 1 ms windows (so a 40 ms run
/// evaluates ~40 times) and a sample floor the 8-request batches can
/// actually meet. `floor_decay = 1.0` keeps short trajectories stable
/// (no re-probing below a violated threshold inside the test horizon).
fn test_controller() -> ControllerConfig {
    ControllerConfig {
        window_cycles: MS,
        min_high_samples: 4,
        floor_decay: 1.0,
        ..ControllerConfig::default_2_4ghz()
    }
}

fn small_cfg(policy: Policy, duration_ms: u64, trace: Option<TraceSession>) -> DriverConfig {
    DriverConfig {
        n_workers: N_WORKERS,
        batch_size: 8,
        arrival_interval: MS,
        duration: duration_ms * MS,
        trace,
        ..DriverConfig::paper_default(policy)
    }
}

fn run_counted(cfg: DriverConfig, faults: Option<FaultPlan>) -> RunReport {
    let sim = SimConfig {
        faults,
        ..SimConfig::default()
    };
    run(
        Runtime::Simulated(sim),
        cfg,
        Box::new(Counted { scan_iters: 2_000 }),
    )
}

/// Same seed, same config → byte-identical threshold trajectory, equal
/// controller reports, and a byte-identical merged trace that records
/// one `ControllerDecision` per evaluation.
#[test]
fn adaptive_runs_are_deterministic() {
    let adaptive = Policy::PreemptiveAdaptive {
        controller: test_controller(),
    };
    let go = || {
        run_counted(
            small_cfg(adaptive, 40, Some(TraceSession::new(TraceConfig::default()))),
            None,
        )
    };
    let a = go();
    let b = go();

    let ra = a.controller.as_ref().expect("adaptive run reports");
    let rb = b.controller.as_ref().expect("adaptive run reports");
    assert!(
        ra.trajectory.len() >= 20,
        "a 40 ms run with 1 ms windows must evaluate many times, got {}",
        ra.trajectory.len()
    );
    assert_eq!(
        a.scheduler.controller_evals,
        ra.trajectory.len() as u64,
        "every evaluation appears in the trajectory"
    );
    assert_eq!(
        ra.trajectory_text(),
        rb.trajectory_text(),
        "same-seed trajectories must be byte-identical"
    );
    assert_eq!(ra.final_threshold, rb.final_threshold);

    let ta = a.trace.as_ref().expect("session installed");
    let tb = b.trace.as_ref().expect("session installed");
    assert_eq!(ta.dropped, 0, "rings must not overflow at this scale");
    assert_eq!(
        ta.canonical_text(),
        tb.canonical_text(),
        "same-seed merged traces must be byte-identical"
    );
    let decisions = ta
        .records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::ControllerDecision { .. }))
        .count() as u64;
    assert_eq!(
        decisions, a.scheduler.controller_evals,
        "one ControllerDecision trace event per evaluation"
    );
}

/// The load-shift scenario used by the convergence test: the
/// high-priority stream is capped at 1 request/tick for the first half,
/// then uncapped. Reports for a truncated run are byte-identical
/// prefixes of the full run, so `full − prefix` isolates the post-shift
/// regime exactly (same technique as the `fig_adaptive` bench).
struct ShiftRun {
    full: RunReport,
    prefix: RunReport,
}

const SHIFT_MS: u64 = 25;
const SETTLE_MS: u64 = 10;
const DURATION_MS: u64 = 60;

fn run_shifted(policy: Policy) -> ShiftRun {
    let go = |duration_ms: u64| {
        let factory = LoadShift::new(
            Counted { scan_iters: 2_000 },
            SHIFT_MS * MS,
            1,
            u32::MAX,
        );
        run(
            Runtime::Simulated(SimConfig::default()),
            small_cfg(policy, duration_ms, None),
            Box::new(factory),
        )
    };
    ShiftRun {
        full: go(DURATION_MS),
        prefix: go(SHIFT_MS + SETTLE_MS),
    }
}

impl ShiftRun {
    /// Post-shift scan completions (the synthetic stand-in for Q2).
    fn post_scans(&self) -> u64 {
        self.full
            .completed("scan")
            .saturating_sub(self.prefix.completed("scan"))
    }

    /// Post-shift high-priority p99, cycles.
    fn post_p99(&self) -> u64 {
        let lat = |r: &RunReport| {
            r.metrics
                .kind("point")
                .map(|m| m.latency.clone())
                .unwrap_or_default()
        };
        lat(&self.full).subtracting(&lat(&self.prefix)).percentile(99.0)
    }
}

/// Under the load shift, the adaptive run's post-shift scan throughput
/// is at least the worst static threshold's, while its post-shift
/// high-priority p99 stays within the controller's bound. (Statics are
/// stranded: a low threshold over-protects scans at the points' expense
/// after the shift; `L_max = 1` gives up scan protection entirely.)
#[test]
fn adaptive_converges_under_load_shift() {
    let ctl = test_controller();
    let worst_static_scans = [ctl.min_threshold, 1.0]
        .into_iter()
        .map(|t| {
            run_shifted(Policy::Preemptive {
                starvation_threshold: t,
            })
            .post_scans()
        })
        .min()
        .expect("two static runs");

    let adaptive = run_shifted(Policy::PreemptiveAdaptive { controller: ctl });
    let report = adaptive
        .full
        .controller
        .as_ref()
        .expect("adaptive run reports");
    assert!(
        report.trajectory.len() as u64 >= (DURATION_MS - 5),
        "windows evaluated across the whole run, got {}",
        report.trajectory.len()
    );

    let scans = adaptive.post_scans();
    assert!(
        scans >= worst_static_scans,
        "adaptive post-shift scans {scans} fell below the worst static's {worst_static_scans}"
    );
    let p99 = adaptive.post_p99();
    assert!(
        p99 <= ctl.high_p99_bound,
        "adaptive post-shift point p99 {p99} cycles exceeds the {} cycle bound",
        ctl.high_p99_bound
    );
}

/// A total interrupt outage confined to the first 20 ms (every
/// user-interrupt send dropped, then none) must downgrade the scheduler
/// to plain wakes exactly once, and the rolling degradation window must
/// re-arm it after the outage — the run ends upgraded, with every
/// downgrade matched by an upgrade.
#[test]
fn phased_outage_degrades_once_and_rearms() {
    let outage_ms = 20;
    let plan = FaultPlan::quiet(7)
        .with_drop_ppm(1_000_000)
        .with_drop_before(outage_ms * MS);
    let r = run_counted(small_cfg(Policy::preemptdb(), 60, None), Some(plan));

    let faults = r.faults.as_ref().expect("ran under a fault plan");
    assert!(faults.uipi_dropped > 0, "the outage actually dropped sends");
    assert!(
        r.scheduler.watchdog_resends > 0,
        "the watchdog fought the outage before degrading"
    );
    assert!(
        r.scheduler.policy_downgrades >= 1,
        "a 100% outage must trip the degradation window"
    );
    assert_eq!(
        r.scheduler.policy_upgrades, r.scheduler.policy_downgrades,
        "the rolling window must re-arm after the outage ends"
    );
    assert!(
        r.completed("point") > 0,
        "high-priority work completed through outage and recovery"
    );
}
