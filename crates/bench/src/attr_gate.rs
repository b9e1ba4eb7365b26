//! The latency-provenance attribution gate (DESIGN.md §15): the
//! paper's thesis — preemption wins by removing queue-wait for
//! high-priority transactions — as a machine-checked artifact.
//!
//! Scenario: the Figure 12 mixed workload under Wait and Preempt on the
//! same seed, with the trace session, metrics registry, and provenance
//! plane all enabled. Two independent measurement paths run in
//! parallel: workers feed per-class phase histograms into the registry
//! directly, and [`reconstruct`] re-derives the same numbers from
//! nothing but the per-worker trace rings.
//!
//! Self-checking — the run fails (nonzero exit) unless:
//!
//! 1. reconstruction is lossless: no ring drops, no unmatched or
//!    in-flight spans, no window mismatches, no missed exemplar
//!    captures;
//! 2. the two planes reconcile exactly: per class and phase, the
//!    registry histogram's count and cycle sum equal the trace-side
//!    attribution (a lost event or double charge shows up here);
//! 3. phase sums reconcile with measured end-to-end latency: per
//!    class, the sum-of-phases p99 matches the independent metrics
//!    plane's p99 within 1% plus one log-bucket width, and the means
//!    match within 1%;
//! 4. the thesis holds: Preempt's high-class mean queue-wait
//!    attribution is lower than Wait's on the same seed;
//! 5. two same-seed runs produce byte-identical attribution
//!    (`canonical_text`);
//! 6. the flight recorder fires on SLO breach: a rerun with the SLO
//!    pinned to the observed p99 captures exemplars, every exemplar
//!    breaches its bound, and its phases sum to its latency.
//!
//! ```sh
//! cargo run --release -p preempt-bench --bin run_all -- attr_gate [--check] [--dump DIR]
//! ```
//!
//! `--check` (alias `--quick`) shrinks the run for CI; `--dump DIR`
//! writes `BENCH_attr.json` (the attribution artifact) and
//! `flight_exemplars.json` (chrome://tracing dump of the worst SLO
//! offenders) into `DIR`.

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::cli::flag;
use crate::{load_mixed, Scenario, Table};
use preemptdb::metrics::{MetricsConfig, MetricsRegistry};
use preemptdb::prov::{
    exemplars_to_chrome_json, AttributionReport, Phase, ProvConfig, CLASS_LABELS,
};
use preemptdb::sched::{
    self, DriverConfig, Histogram, Policy, RobustnessConfig, RunReport, Runtime,
};
use preemptdb::trace::{TraceConfig, TraceSession};
use preemptdb::workloads::{kinds, MixedWorkload};
use preemptdb::SimConfig;

/// Relative width of one log-histogram bucket (32 sub-buckets
/// per octave): the registry plane's p99 is a bucket lower bound, so
/// cross-plane p99 agreement is only meaningful to this resolution.
const BUCKET_WIDTH: f64 = 1.0 / 32.0;

/// Transaction kinds the workers tag high-priority (`priority > 0`);
/// everything else in the mixed workload is the low class.
const HIGH_KINDS: [&str; 2] = [kinds::NEW_ORDER, kinds::PAYMENT];

/// The gate scenario: the Figure 12 mixed workload, sized to produce
/// enough completions per class that a p99 is meaningful.
fn scenario(check: bool) -> Scenario {
    Scenario {
        workers: 8,
        duration_ms: if check { 60 } else { 200 },
        high_queue: 8,
        ..Scenario::quick()
    }
}

/// One deterministic simulated run with the full provenance plane
/// enabled. The database is rebuilt per run so every run replays the
/// same virtual-time execution from the same initial state.
fn run_attributed(policy: Policy, sc: &Scenario, slo_cycles: [u64; 2]) -> RunReport {
    let sim = SimConfig::default();
    let (tpcc, tpch) = load_mixed(sc.workers, sc.seed);
    let cfg = DriverConfig {
        robustness: RobustnessConfig {
            max_full_retries: 1_000,
            ..Default::default()
        },
        metrics: Some(MetricsRegistry::new(MetricsConfig::default())),
        // Sized so the rings hold the whole run: check 1 asserts zero
        // drops, because a lossy trace cannot certify attribution.
        trace: Some(TraceSession::new(TraceConfig {
            capacity: 1 << 20,
            ..TraceConfig::default()
        })),
        prov: Some(ProvConfig {
            slo_cycles,
            exemplars_per_worker: 8,
        }),
        ..sc.driver_config(policy, &sim)
    };
    let factory = MixedWorkload::new(tpcc, tpch, sc.seed);
    sched::run(Runtime::Simulated(sim), cfg, Box::new(factory))
}

/// The attribution report, or a gate failure if the run lacks one.
fn attribution<'a>(label: &str, r: &'a RunReport, failures: &mut Vec<String>) -> Option<&'a AttributionReport> {
    let attr = r.attribution.as_ref();
    if attr.is_none() {
        failures.push(format!("{label}: run produced no attribution report"));
    }
    attr
}

/// Per-class end-to-end latency from the per-kind latency histograms
/// (`finished - created` per request, recorded apart from the phase
/// vectors) — the independent p99 the phase sums must reconcile with.
fn class_latency(r: &RunReport, high: bool) -> Histogram {
    let mut h = Histogram::new();
    for (kind, m) in r.metrics.kinds() {
        if HIGH_KINDS.contains(&kind) == high {
            h.merge(&m.latency);
        }
    }
    h
}

/// Check 1: the reconstruction is lossless — anything dropped or
/// unreconciled disqualifies the attribution as evidence.
fn check_lossless(label: &str, r: &RunReport, failures: &mut Vec<String>) {
    let Some(attr) = attribution(label, r, failures) else {
        return;
    };
    for (what, n) in [
        ("ring_dropped", attr.ring_dropped),
        ("unmatched", attr.unmatched),
        ("incomplete", attr.incomplete),
        ("window_mismatch", attr.window_mismatch),
        ("flight_missed", r.flight_missed),
    ] {
        if n != 0 {
            failures.push(format!("{label}: {what} = {n}, expected 0"));
        }
    }
    if attr.attributed == 0 {
        failures.push(format!("{label}: no spans attributed"));
    }
    for (c, cls) in attr.classes.iter().enumerate() {
        if cls.completed == 0 {
            failures.push(format!("{label}: class {} has no completions", CLASS_LABELS[c]));
        }
    }
}

/// Checks 2–3: the trace-side attribution reconciles with the
/// registry-side phase histograms (exactly) and with the per-kind
/// end-to-end latency plane (p99 within 1% + one bucket).
fn check_reconciles(label: &str, r: &RunReport, failures: &mut Vec<String>) {
    let Some(attr) = attribution(label, r, failures) else {
        return;
    };
    let snap = &r.metrics_snapshot;
    for (c, cls) in attr.classes.iter().enumerate() {
        let high = c == 1;
        // Exact: every phase histogram in the registry carries one
        // sample per commit, and its cycle sum equals the trace-side
        // phase sum. Any drift means an event was lost or a phase
        // charged twice on one plane only.
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let reg = snap.fixed(preemptdb::metrics::FixedHist::phase(i, high));
            if reg.count() != cls.completed {
                failures.push(format!(
                    "{label}: class {} phase {} registry count {} != attributed completions {}",
                    CLASS_LABELS[c],
                    phase.label(),
                    reg.count(),
                    cls.completed
                ));
            }
            if reg.sum != cls.phase_sums[i] {
                failures.push(format!(
                    "{label}: class {} phase {} registry sum {} != trace-side sum {}",
                    CLASS_LABELS[c],
                    phase.label(),
                    reg.sum,
                    cls.phase_sums[i]
                ));
            }
        }
        // Identity: phase sums equal the end-to-end population. The
        // per-kind latency series measured `finished - created` per
        // request wholly independently of the phase vectors.
        let e2e = class_latency(r, high);
        if e2e.count() != cls.completed {
            failures.push(format!(
                "{label}: class {} per-kind completion count {} != attributed {}",
                CLASS_LABELS[c],
                e2e.count(),
                cls.completed
            ));
            continue;
        }
        let phase_total: u64 = cls.phase_sums.iter().sum();
        let e2e_total = e2e.mean() * e2e.count() as f64;
        if relative_gap(phase_total as f64, e2e_total) > 0.01 {
            failures.push(format!(
                "{label}: class {} phase-sum total {} vs end-to-end total {:.0} off by > 1%",
                CLASS_LABELS[c], phase_total, e2e_total
            ));
        }
        // p99: attribution is sample-exact; the per-kind histogram
        // reports a log-bucket lower bound, so allow one bucket width
        // on top of the 1% reconciliation tolerance.
        let attr_p99 = cls.e2e.p99 as f64;
        let e2e_p99 = e2e.percentile(99.0) as f64;
        if relative_gap(attr_p99, e2e_p99) > 0.01 + BUCKET_WIDTH {
            failures.push(format!(
                "{label}: class {} phase-sum p99 {:.0} vs end-to-end p99 {:.0} \
                 off by > 1% + bucket width",
                CLASS_LABELS[c], attr_p99, e2e_p99
            ));
        }
    }
}

fn relative_gap(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

pub fn run(args: &[String]) -> ExitCode {
    let check = flag(args, "--check") || flag(args, "--quick");
    let dump_dir = args
        .iter()
        .position(|a| a == "--dump")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let sc = scenario(check);
    let sim = SimConfig::default();
    let mut failures: Vec<String> = Vec::new();

    let no_slo = [u64::MAX, u64::MAX];
    let wait = run_attributed(Policy::Wait, &sc, no_slo);
    let preempt = run_attributed(Policy::preemptdb(), &sc, no_slo);
    let rerun = run_attributed(Policy::preemptdb(), &sc, no_slo);

    // Checks 1–3 on both policies.
    for (label, r) in [("wait", &wait), ("preempt", &preempt)] {
        check_lossless(label, r, &mut failures);
        check_reconciles(label, r, &mut failures);
    }

    // Attribution table: where every committed transaction's cycles
    // went, per class, under each policy.
    let mut table = Table::new(
        format!(
            "Phase attribution, mean cycles per completion ({} ms mixed workload, seed {})",
            sc.duration_ms, sc.seed
        ),
        &["policy", "class", "n", "queue", "run", "preempted", "latch", "retry", "handler", "e2e p99"],
    );
    for (label, r) in [("wait", &wait), ("preempt", &preempt)] {
        if let Some(attr) = r.attribution.as_ref() {
            for (c, cls) in attr.classes.iter().enumerate() {
                table.row(vec![
                    label.into(),
                    CLASS_LABELS[c].into(),
                    cls.completed.to_string(),
                    format!("{:.0}", cls.phase_mean(Phase::Queue)),
                    format!("{:.0}", cls.phase_mean(Phase::Run)),
                    format!("{:.0}", cls.phase_mean(Phase::Preempted)),
                    format!("{:.0}", cls.phase_mean(Phase::Latch)),
                    format!("{:.0}", cls.phase_mean(Phase::Retry)),
                    format!("{:.0}", cls.phase_mean(Phase::Handler)),
                    cls.e2e.p99.to_string(),
                ]);
            }
        }
    }
    table.print();

    // Check 4 — the thesis: preemption removes high-class queue-wait.
    let mut queue_shift = (0.0, 0.0);
    if let (Some(w), Some(p)) = (wait.attribution.as_ref(), preempt.attribution.as_ref()) {
        let wq = w.classes[1].phase_mean(Phase::Queue);
        let pq = p.classes[1].phase_mean(Phase::Queue);
        queue_shift = (wq, pq);
        if pq >= wq {
            failures.push(format!(
                "thesis: Preempt high-class mean queue-wait {pq:.0} not below Wait's {wq:.0}"
            ));
        } else {
            println!(
                "thesis: high-class mean queue-wait {:.0} (wait) -> {:.0} cycles (preempt), {:.1}x lower",
                wq,
                pq,
                wq / pq.max(1.0)
            );
        }
    }

    // Check 5 — determinism: byte-identical attribution on the same seed.
    match (preempt.attribution.as_ref(), rerun.attribution.as_ref()) {
        (Some(a), Some(b)) if a.canonical_text() == b.canonical_text() => {
            println!(
                "determinism: two same-seed runs produced byte-identical attribution \
                 ({} spans)",
                a.attributed
            );
        }
        _ => failures.push("same-seed runs diverged in attribution".into()),
    }

    // Check 6 — the flight recorder. No bound: zero exemplars. Bound
    // pinned to the observed per-class p99: the tail (≈1% of each
    // class) must be captured, every exemplar must breach its bound,
    // and its phases must sum to its recorded latency.
    if !wait.exemplars.is_empty() || !preempt.exemplars.is_empty() {
        failures.push("flight recorder captured exemplars with no SLO bound set".into());
    }
    let slo = wait.attribution.as_ref().map(|a| [a.classes[0].e2e.p99, a.classes[1].e2e.p99]);
    let breached = slo.map(|slo| run_attributed(Policy::Wait, &sc, slo));
    if let (Some(slo), Some(b)) = (slo, breached.as_ref()) {
        check_lossless("wait+slo", b, &mut failures);
        if b.exemplars.is_empty() {
            failures.push("flight recorder captured nothing with the SLO at the observed p99".into());
        }
        for ex in &b.exemplars {
            if ex.latency <= ex.slo {
                failures.push(format!(
                    "exemplar req {} captured without breaching ({} <= {})",
                    ex.req_id, ex.latency, ex.slo
                ));
            }
            if ex.slo != slo[usize::from(ex.class != 0)] {
                failures.push(format!("exemplar req {} recorded the wrong SLO bound", ex.req_id));
            }
            if ex.phases.iter().sum::<u64>() != ex.latency {
                failures.push(format!(
                    "exemplar req {}: phases sum to {} but latency is {}",
                    ex.req_id,
                    ex.phases.iter().sum::<u64>(),
                    ex.latency
                ));
            }
        }
        println!(
            "flight recorder: {} exemplars captured at SLO [low {}, high {}] cycles, worst overage {}",
            b.exemplars.len(),
            slo[0],
            slo[1],
            b.exemplars.first().map(|e| e.overage()).unwrap_or(0)
        );
    }

    // Artifacts: the attribution JSON and the chrome://tracing dump of
    // the worst offenders (open in chrome://tracing or ui.perfetto.dev).
    if let Some(dir) = dump_dir {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"scenario\":{{\"workers\":{},\"duration_ms\":{},\"arrival_us\":{},\"seed\":{}}},",
            sc.workers, sc.duration_ms, sc.arrival_us, sc.seed
        );
        let _ = write!(
            out,
            "\"gate\":{{\"high_queue_mean_wait\":{:.1},\"high_queue_mean_preempt\":{:.1},\
             \"exemplars_captured\":{}}},",
            queue_shift.0,
            queue_shift.1,
            breached.as_ref().map(|b| b.exemplars.len()).unwrap_or(0)
        );
        let empty = AttributionReport::default();
        let _ = write!(
            out,
            "\"wait\":{},\"preempt\":{}}}",
            wait.attribution.as_ref().unwrap_or(&empty).to_json(),
            preempt.attribution.as_ref().unwrap_or(&empty).to_json()
        );
        let exemplars = breached.as_ref().map(|b| b.exemplars.as_slice()).unwrap_or(&[]);
        let chrome = exemplars_to_chrome_json(exemplars, sim.freq_hz);
        for (name, content) in [("BENCH_attr.json", &out), ("flight_exemplars.json", &chrome)] {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, content) {
                failures.push(format!("dump: writing {} failed: {e}", path.display()));
            } else {
                println!("dump: wrote {}", path.display());
            }
        }
    }

    if failures.is_empty() {
        println!("attr_gate: all checks passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("attr_gate FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
