//! What a run hands back, and the catalogue of metric names the
//! benchmark promises in `BENCHMARK.json`.

use crate::recorder::Stat;

/// One measured number, by name.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub stat: Stat,
}

/// One correctness check and what it saw.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// The result of one run of one workload (or of the layer probes).
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted over the whole run, warm-up included.
    pub attempted: u64,
    /// Transport errors, refusals, error statuses and reply time-outs.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, stat: Stat) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            stat,
        });
    }

    /// A metric that needs samples: a missing one is a failed check,
    /// not a silent zero.
    pub fn metric_opt(&mut self, name: &'static str, unit: &'static str, stat: Option<Stat>) {
        match stat {
            Some(s) => self.metric(name, unit, s),
            None => self.check(name, false, "no samples".to_string()),
        }
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// A catalogue row: name, unit, and for end-to-end metrics the share of
/// the parent's median by which it may get worse.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

pub const WORKLOADS: [&str; 4] = ["tcp_mixed", "pool_preempt", "engine_oltp", "sim_mixed"];

/// Reported by every workload with `--trace 0`. `BENCHMARK.json` lists
/// the same rows (a unit test keeps the two in step).
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("high_p50_us", "us", false, 0.25),
    e2e("high_p90_us", "us", false, 0.25),
    e2e("high_ops_per_s", "1/s", true, 0.25),
];

/// Reported by every workload with `--trace 1`; a metric the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[Def] = &[
    // Layer probes: direct calls into one layer.
    layer("context.switch_roundtrip_ns", "ns", false),
    layer("context.preempt_point_ns", "ns", false),
    layer("context.nonpreempt_guard_ns", "ns", false),
    layer("context.cls_access_ns", "ns", false),
    layer("uintr.poll_empty_ns", "ns", false),
    layer("uintr.send_deliver_ns", "ns", false),
    layer("uintr.xthread_p50_ns", "ns", false),
    layer("uintr.xthread_p99_ns", "ns", false),
    layer("uintr.signal_p50_ns", "ns", false),
    layer("sched.queue_push_pop_ns", "ns", false),
    layer("sched.admission_ns", "ns", false),
    layer("core.submit_ns", "ns", false),
    layer("core.call_idle_p50_us", "us", false),
    layer("core.call_preempt_p50_us", "us", false),
    layer("core.call_preempt_p99_us", "us", false),
    layer("core.submit_to_start_p50_us", "us", false),
    layer("core.end_to_return_p50_us", "us", false),
    layer("mvcc.begin_commit_ns", "ns", false),
    layer("mvcc.point_read_txn_ns", "ns", false),
    layer("mvcc.update_txn_ns", "ns", false),
    layer("mvcc.insert_txn_ns", "ns", false),
    layer("mvcc.point_read_txn_2t_ns", "ns", false),
    layer("mvcc.scan_row_ns", "ns", false),
    layer("mvcc.scan_row_churned_ns", "ns", false),
    layer("mvcc.hash_lookup_ns", "ns", false),
    layer("mvcc.ordered_lookup_ns", "ns", false),
    layer("mvcc.ordered_range_row_ns", "ns", false),
    layer("workloads.payment_us", "us", false),
    layer("workloads.neworder_us", "us", false),
    layer("workloads.q2_ms", "ms", false),
    layer("server.frame_encode_ns", "ns", false),
    layer("server.frame_decode_ns", "ns", false),
    layer("trace.emit_off_ns", "ns", false),
    layer("trace.emit_on_ns", "ns", false),
    layer("metrics.bump_off_ns", "ns", false),
    layer("metrics.bump_on_ns", "ns", false),
    layer("prov.charge_ns", "ns", false),
    layer("host.tcp_echo_rtt_p50_us", "us", false),
    layer("host.tcp_echo_window8_per_s", "1/s", true),
    layer("host.thread_wake_p50_us", "us", false),
    layer("sim.wall_s_per_virtual_s", "ratio", false),
    // Traced run, tcp_mixed.
    layer("client.write_us", "us", false),
    layer("client.wait_us", "us", false),
    layer("server.inside_p50_us", "us", false),
    layer("server.inside_p99_us", "us", false),
    layer("client.wire_wake_p50_us", "us", false),
    layer("client.high_p99_us", "us", false),
    layer("client.high_p999_us", "us", false),
    layer("client.high_max_us", "us", false),
    layer("client.read_p50_us", "us", false),
    layer("client.low_p50_ms", "ms", false),
    layer("server.replies", "count", true),
    layer("server.rejected", "count", false),
    layer("mvcc.deposit_retries_per_commit", "ratio", false),
    // Traced run, pool_preempt: where a preempting call's time goes.
    layer("core.preempt_submit_us", "us", false),
    layer("core.preempt_start_us", "us", false),
    layer("core.preempt_run_us", "us", false),
    layer("core.preempt_p99_us", "us", false),
    // Traced run, every workload that has an engine to ask.
    layer("mvcc.commits", "count", true),
    layer("mvcc.aborts", "count", false),
    // Traced run, engine_oltp and sim_mixed: the in-process tail of Payment.
    layer("workloads.payment_p99_us", "us", false),
    // Traced run, engine_oltp.
    layer("workloads.neworder_p50_us", "us", false),
    layer("workloads.neworder_p90_us", "us", false),
    layer("mvcc.retries_per_commit", "ratio", false),
    layer("mvcc.commits_per_s", "1/s", true),
    // Traced run, sim_mixed: the program's own phase attribution.
    layer("prov.high.admission_us", "us", false),
    layer("prov.high.queue_us", "us", false),
    layer("prov.high.run_us", "us", false),
    layer("prov.high.preempted_us", "us", false),
    layer("prov.high.latch_us", "us", false),
    layer("prov.high.retry_us", "us", false),
    layer("prov.high.handler_us", "us", false),
    layer("prov.high.reply_us", "us", false),
    layer("prov.low.admission_us", "us", false),
    layer("prov.low.queue_us", "us", false),
    layer("prov.low.run_us", "us", false),
    layer("prov.low.preempted_us", "us", false),
    layer("prov.low.latch_us", "us", false),
    layer("prov.low.retry_us", "us", false),
    layer("prov.low.handler_us", "us", false),
    layer("prov.low.reply_us", "us", false),
    layer("sched.interrupts_sent", "count", true),
    layer("sched.preemptions", "count", true),
    layer("sched.skipped_starving", "count", false),
    layer("sched.dropped_high", "count", false),
    layer("sched.watchdog_resends", "count", false),
    layer("uintr.delivered", "count", true),
    layer("uintr.deferred", "count", false),
    layer("sched.utilization", "ratio", true),
    // Traced run, all: the designated high op's tail inside the process.
    layer("high_inproc_p95_us", "us", false),
    // Traced run, workloads with a low class (all but engine_oltp).
    layer("low_ops_per_s", "1/s", true),
    // Traced run, all: what the tracing itself cost.
    layer("bench.trace_overhead_frac", "ratio", false),
];

/// The final line the contract asks for: one JSON object with the keys
/// `correct`, `attempted`, `failed` and `metrics`, the metrics being
/// exactly `defs`.
pub fn contract_line(out: &Outcome, defs: &[Def]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = out.get(d.name).map_or(0.0, |m| m.stat.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_num(value),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// A JSON number with all the digits the measurement has. Rust prints
/// the shortest decimal that round-trips, never an exponent.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let (e2e_part, layer_part) = text
            .split_once("\"per_layer\"")
            .expect("BENCHMARK.json has a per_layer section");
        for d in END_TO_END {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                better,
                d.bound.unwrap()
            );
            assert!(e2e_part.contains(&row), "end_to_end row missing: {row}");
        }
        for d in PER_LAYER {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, better
            );
            assert!(layer_part.contains(&row), "per_layer row missing: {row}");
        }
        assert_eq!(e2e_part.matches("\"bound\"").count(), END_TO_END.len());
        assert_eq!(layer_part.matches("\"better\"").count(), PER_LAYER.len());
        for w in WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\"")));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.extend(WORKLOADS);
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn contract_line_lists_exactly_the_catalogue() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.metric("setup_s", "s", Stat::plain(0.8127, 5));
        out.metric("extra", "s", Stat::plain(1.0, 1));
        let line = contract_line(&out, &END_TO_END[..2]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"high_p50_us\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
        out.check("ledger", false, String::new());
        assert!(contract_line(&out, &[]).starts_with("{\"correct\": false"));
    }
}
