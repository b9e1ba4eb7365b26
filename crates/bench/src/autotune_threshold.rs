//! Automatic starvation-threshold tuning (paper §6.4: "we leave the
//! automatic tuning of this threshold for future work").
//!
//! Given a target share of CPU the operator wants preserved for
//! low-priority analytics under overload, this tool searches `L_max` by
//! bisection over deterministic simulator runs: each probe replays the
//! Figure 12 overload scenario and measures the achieved Q2 throughput
//! fraction (relative to a fully-protected run). Determinism makes the
//! objective monotone enough for bisection to converge in a handful of
//! probes.
//!
//! For comparison it then runs the same scenario once under the online
//! closed-loop controller ([`Policy::PreemptiveAdaptive`]): bisection
//! optimizes a Q2-share objective offline with perfect replay; the
//! controller chases a high-priority p99 SLO online with no replay at
//! all. Reporting both shows where the two objectives land.
//!
//! ```sh
//! cargo run --release -p preempt-bench --bin run_all -- autotune_threshold [q2-share]
//! ```

use std::process::ExitCode;

use crate::{load_mixed, run_mixed, Scenario, Table};
use preemptdb::sched::{Policy, RunReport};
use preemptdb::workloads::kinds;

/// One run of the overload scenario on a freshly loaded database.
fn run_policy(policy: Policy, sc: &Scenario) -> RunReport {
    let (tpcc, tpch) = load_mixed(sc.workers, sc.seed);
    run_mixed(policy, sc, tpcc, tpch)
}

fn probe(threshold: f64, sc: &Scenario) -> (f64, f64) {
    let r = run_policy(
        Policy::Preemptive {
            starvation_threshold: threshold,
        },
        sc,
    );
    (
        r.tps(kinds::Q2),
        r.tps(kinds::NEW_ORDER) + r.tps(kinds::PAYMENT),
    )
}

pub fn run(args: &[String]) -> ExitCode {
    let target_share: f64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(0.5);
    let sc = Scenario {
        duration_ms: 100,
        ..Scenario::quick().overload()
    };
    eprintln!(
        "tuning L_max for a >= {:.0}% Q2 share under the Figure 12 overload ...",
        target_share * 100.0
    );

    // Reference: fully protected run (threshold 0) ≈ max Q2 throughput.
    let (q2_max, _) = probe(0.0, &sc);
    let target = q2_max * target_share;

    let mut table = Table::new(
        format!("Auto-tuning L_max (target Q2 >= {target:.0} tps)"),
        &["probe", "L_max", "q2 tps", "high tps", "verdict"],
    );

    // Bisect on threshold: higher L_max → more high-priority CPU → less
    // Q2. Find the largest threshold still meeting the Q2 target.
    let (mut lo, mut hi) = (0.0f64, 4.0f64);
    let mut best = 0.0;
    for i in 0..8 {
        let mid = (lo + hi) / 2.0;
        let (q2, high) = probe(mid, &sc);
        let ok = q2 >= target;
        table.row(vec![
            (i + 1).to_string(),
            format!("{mid:.3}"),
            format!("{q2:.0}"),
            format!("{high:.0}"),
            if ok { "meets target" } else { "too starved" }.into(),
        ]);
        if ok {
            best = mid;
            lo = mid;
        } else {
            hi = mid;
        }
    }
    table.print();
    println!(
        "recommended starvation threshold: L_max = {best:.3} \
         (largest probed value meeting the Q2 target; higher values favor \
         high-priority latency)"
    );

    // The online alternative: no replay, no bisection — the closed-loop
    // controller converges on a threshold from live sensors.
    let r = run_policy(Policy::preemptdb_adaptive(), &sc);
    let report = r
        .controller
        .as_ref()
        .expect("adaptive run must produce a controller report");
    println!(
        "online controller (p99 objective): converged to L_max = {:.3} after {} windows; \
         q2 {:.0} tps, high {:.0} tps",
        report.final_threshold,
        report.trajectory.len(),
        r.tps(kinds::Q2),
        r.tps(kinds::NEW_ORDER) + r.tps(kinds::PAYMENT),
    );
    println!(
        "note: bisection optimizes an offline Q2-share target; the controller \
         chases a high-priority p99 SLO online — the two land on the same \
         threshold only when the SLO and the share target agree"
    );
    ExitCode::SUCCESS
}
