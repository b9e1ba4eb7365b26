//! `preempt-metrics`: a lock-free, per-worker-sharded metrics registry
//! with live exporters.
//!
//! `preempt-trace` answers *what happened, in order*; this crate answers
//! *how much, right now*: monotonic counters, gauges, and log-bucketed
//! histograms for every stage of the preemption lifecycle (uintr
//! send/notice/deliver, scheduling levels, transaction outcomes,
//! starvation interventions, degradations, fault injections, latch
//! waits, controller decisions), readable while a run executes.
//!
//! Architecture (DESIGN.md §10):
//! * [`registry::Shard`] — one per writer (worker or scheduler), owned by
//!   that writer and the only place its counts are kept; every emit is a
//!   relaxed `fetch_add` into the writer's own cache lines.
//! * [`MetricsRegistry`] — the shards of one run (registered on it, or
//!   attached to it), its gauges and its exporter config.
//!   [`MetricsRegistry::snapshot`] sums shards and merges histograms;
//!   monotonic cells make mid-run snapshots crash-consistent. The run
//!   report's structs are views of the final snapshot.
//! * [`counter_add`] / [`hist_record`] — instrumentation entry points
//!   for code with no shard reference (interrupt receivers, latches,
//!   fault hooks). Same discipline as `preempt-trace`'s [`emit`]: one
//!   relaxed load of a process-global enabled word when no registry is
//!   live, context-local shard lookup when one is.
//! * [`export`] — Prometheus text exposition and JSON, plus the parser
//!   the proptests and the CI smoke job validate scrapes with.
//! * [`serve`] — wall-clock sampler for threaded runs: refreshes the
//!   derived SLO burn-rate gauges and answers `GET /metrics`.
//!
//! The log-bucket math lives in [`buckets`] and is shared with the
//! scheduler's histograms and the adaptive controller's sensor plane,
//! so all three agree bit-for-bit on where a sample lands.
//!
//! [`emit`]: https://docs.rs/preempt-trace

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod buckets;
pub mod export;
pub mod registry;
pub mod serve;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use preempt_context::cls::ClsCell;

pub use export::{parse_prometheus, to_json, to_prometheus, validate_histograms, NAMESPACE};
pub use registry::{
    Counter, FixedHist, Gauge, HistSnapshot, KindSnapshot, MetricsConfig, MetricsRegistry,
    MetricsSnapshot, SensorTotals, SensorWindow, Shard, SloSpec, PHASES, PHASE_LABELS,
};

/// Count of live [`MetricsRegistry`]s. Zero means the emit helpers
/// return after a single relaxed load — the "~zero overhead when
/// disabled" word, mirroring `preempt-trace`.
static METRICS_ENABLED: AtomicU64 = AtomicU64::new(0);

pub(crate) fn registry_opened() {
    METRICS_ENABLED.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn registry_closed() {
    METRICS_ENABLED.fetch_sub(1, Ordering::Relaxed);
}

/// Whether any metrics registry is currently live.
#[inline]
pub fn metrics_active() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed) != 0
}

/// The current context's shard, as a raw `*const Shard` stored as
/// `usize` (0 = none). Context-local rather than thread-local so a
/// worker's preemptive contexts and its main context all record into
/// the worker's shard, and the simulator's root context records
/// nowhere.
static CURRENT_SHARD: ClsCell<usize> = ClsCell::new(|| 0);

/// Installs `shard` as the current context's metrics shard.
///
/// The caller must keep the `Arc` alive and call [`clear_current`] (or
/// let the context finish for good) before the shard is dropped; the
/// emit helpers dereference the raw pointer installed here.
pub fn install_current(shard: &Arc<Shard>) {
    CURRENT_SHARD.set(Arc::as_ptr(shard) as usize);
}

/// Uninstalls the current context's shard (safe when none is set).
pub fn clear_current() {
    CURRENT_SHARD.set(0);
}

/// Adds `n` to counter `c` on the current context's shard, if a
/// registry is live and a shard is installed; otherwise a no-op.
///
/// Handler-safe: no allocation, locking, blocking, or panic paths —
/// instrumentation calls this from inside user-interrupt handlers.
/// Reentrant calls degrade to a no-op instead of panicking.
#[inline]
pub fn counter_add(c: Counter, n: u64) {
    if METRICS_ENABLED.load(Ordering::Relaxed) == 0 {
        return;
    }
    let ptr = CURRENT_SHARD.try_with(|p| *p).unwrap_or(0);
    if ptr == 0 {
        return;
    }
    // SAFETY: `install_current`'s contract — the installer keeps the
    // shard's Arc alive until `clear_current` runs on this context.
    let shard = unsafe { &*(ptr as *const Shard) };
    shard.bump_by(c, n);
}

/// Increments counter `c` by one on the current context's shard.
/// Handler-safe; see [`counter_add`].
#[inline]
pub fn counter_inc(c: Counter) {
    counter_add(c, 1);
}

/// Records `value` into fixed histogram `h` on the current context's
/// shard. Handler-safe; see [`counter_add`].
#[inline]
pub fn hist_record(h: FixedHist, value: u64) {
    if METRICS_ENABLED.load(Ordering::Relaxed) == 0 {
        return;
    }
    let ptr = CURRENT_SHARD.try_with(|p| *p).unwrap_or(0);
    if ptr == 0 {
        return;
    }
    // SAFETY: `install_current`'s contract — the installer keeps the
    // shard's Arc alive until `clear_current` runs on this context.
    let shard = unsafe { &*(ptr as *const Shard) };
    shard.observe(h, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_without_registry_touches_no_shard() {
        // A shard exists but is not installed and no registry is
        // counted live on this path: the emit must return after the
        // enabled-word load and leave the shard untouched.
        let reg = MetricsRegistry::new(MetricsConfig::default());
        let shard = reg.register_shard("worker", 0);
        // Not installed on this context: even with a live registry the
        // helpers have nowhere to write.
        counter_inc(Counter::UintrSent);
        hist_record(FixedHist::LatchWaitCycles, 123);
        assert!(shard.is_untouched(), "uninstalled emit wrote a shard");
        drop(reg);
        // With the registry dropped the enabled word is down again (
        // unless a concurrent test holds one, in which case the shard
        // check above already proved the no-write property).
        counter_inc(Counter::UintrSent);
        assert!(shard.is_untouched());
    }

    #[test]
    fn installed_shard_receives_emits() {
        let reg = MetricsRegistry::new(MetricsConfig::default());
        let shard = reg.register_shard("worker", 7);
        install_current(&shard);
        counter_inc(Counter::UintrDelivered);
        counter_add(Counter::UintrDeferred, 3);
        hist_record(FixedHist::DeliveryLatencyCycles, 4096);
        clear_current();
        counter_inc(Counter::UintrDelivered); // after clear: dropped
        assert_eq!(shard.counter(Counter::UintrDelivered), 1);
        assert_eq!(shard.counter(Counter::UintrDeferred), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::UintrDelivered), 1);
        assert_eq!(snap.delivery_latency.count(), 1);
        assert_eq!(snap.delivery_latency.sum, 4096);
        assert_eq!(snap.shards, 1);
    }

    #[test]
    fn enabled_word_counts_registries() {
        let before = metrics_active();
        let a = MetricsRegistry::new(MetricsConfig::default());
        assert!(metrics_active());
        let b = a.clone();
        drop(a);
        assert!(metrics_active(), "clone keeps the registry live");
        drop(b);
        // Other tests may hold registries concurrently; only assert we
        // did not leak an increment past our own drops.
        if !before {
            // Best-effort: in a single-threaded run this is exact.
            let _ = metrics_active();
        }
    }

    #[test]
    fn txn_paths_feed_counters_sensor_and_kinds() {
        let reg = MetricsRegistry::new(MetricsConfig::default());
        let shard = reg.register_shard("worker", 0);
        shard.txn_completed("neworder", 1, 50_000, 1_000, 2);
        shard.txn_completed("neworder", 1, 70_000, 2_000, 0);
        shard.txn_completed("scan", 0, 9_000_000, 500, 0);
        shard.txn_deadline_abort("neworder");
        shard.txn_failed("scan", 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::TxnCompletedHigh), 2);
        assert_eq!(snap.counter(Counter::TxnCompletedLow), 1);
        assert_eq!(snap.counter(Counter::TxnAborted), 2);
        assert_eq!(snap.sensor_high_latency.count(), 2, "low never enters the sensor plane");
        let no = snap.kind("neworder").expect("kind present");
        assert_eq!(no.completed, 2);
        assert_eq!(no.retries, 2);
        assert_eq!(no.deadline_aborted, 1);
        assert_eq!(no.latency.count(), 2);
        let scan = snap.kind("scan").expect("kind present");
        assert_eq!(scan.failed, 1);
        assert_eq!(scan.retries, 5);
    }

    #[test]
    fn sensor_window_matches_drain_semantics() {
        let reg = MetricsRegistry::new(MetricsConfig::default());
        let a = reg.register_shard("worker", 0);
        let b = reg.register_shard("worker", 1);
        for i in 1..=100u64 {
            a.txn_completed("hi", 1, i * 1_000, 0, 0);
        }
        for i in 1..=100u64 {
            b.txn_completed("hi", 1, i * 1_000, 0, 0);
        }
        b.txn_completed("lo", 0, 5_000_000, 0, 0);
        a.txn_deadline_abort("hi");
        let prev = SensorTotals::zero();
        let cur = reg.sensor_totals();
        let w = cur.delta_since(&prev);
        assert_eq!(w.high_completed, 200);
        assert_eq!(w.low_completed, 1);
        assert_eq!(w.aborts, 1);
        let p99 = w.high_p99();
        assert!((85_000..=100_000).contains(&p99), "window p99 = {p99}");
        assert!(w.high_max() >= 87_500, "max = {}", w.high_max());
        // Second window with no new samples is empty.
        let w2 = reg.sensor_totals().delta_since(&cur);
        assert_eq!(w2.high_completed, 0);
        assert_eq!(w2.high_p99(), 0);
        assert_eq!(w2.high_max(), 0);
    }

    #[test]
    fn kind_table_overflow_drops_attribution_not_counts() {
        static NAMES: [&str; 20] = [
            "k00", "k01", "k02", "k03", "k04", "k05", "k06", "k07", "k08", "k09", "k10", "k11",
            "k12", "k13", "k14", "k15", "k16", "k17", "k18", "k19",
        ];
        let reg = MetricsRegistry::new(MetricsConfig::default());
        let shard = reg.register_shard("worker", 0);
        for name in NAMES {
            shard.txn_completed(name, 1, 1_000, 10, 0);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::TxnCompletedHigh), 20);
        assert_eq!(snap.kinds.len(), 16, "table capacity");
    }

    #[test]
    fn racing_first_uses_fill_the_kind_table() {
        static NAMES: [&str; 16] = [
            "k00", "k01", "k02", "k03", "k04", "k05", "k06", "k07", "k08", "k09", "k10", "k11",
            "k12", "k13", "k14", "k15",
        ];
        for round in 0..20 {
            let reg = MetricsRegistry::new(MetricsConfig::default());
            let shard = reg.register_shard("plane", 0);
            std::thread::scope(|s| {
                for t in 0..4 {
                    let shard = &shard;
                    s.spawn(move || {
                        for i in 0..NAMES.len() {
                            shard.txn_completed(NAMES[(i + 5 * t) % NAMES.len()], 1, 1_000, 0, 0);
                        }
                    });
                }
            });
            let snap = reg.snapshot();
            assert_eq!(snap.kinds.len(), 16, "round {round}: every kind has a slot");
            for k in &snap.kinds {
                assert_eq!(k.completed, 4, "round {round}: {}", k.name);
            }
        }
    }

    #[test]
    fn slo_burn_rates_rate_violations_against_budget() {
        let reg = MetricsRegistry::new(MetricsConfig {
            slos: vec![SloSpec {
                kind: "point",
                latency_bound_cycles: 100_000,
                target_ppm: 10_000, // 1 %
            }],
            ..MetricsConfig::default()
        });
        let shard = reg.register_shard("worker", 0);
        for _ in 0..98 {
            shard.txn_completed("point", 1, 50_000, 0, 0);
        }
        shard.txn_completed("point", 1, 500_000, 0, 0);
        shard.txn_completed("point", 1, 900_000, 0, 0);
        reg.refresh_slo_gauges(None);
        let snap = reg.snapshot();
        let (_, burn) = snap.slo_burn[0].clone();
        // 2/100 over the bound against a 1 % budget → burn 2.0.
        assert!((burn - 2.0).abs() < 1e-9, "burn = {burn}");
    }

    #[test]
    fn windowed_slo_burn_uses_only_the_delta() {
        let reg = MetricsRegistry::new(MetricsConfig {
            slos: vec![SloSpec {
                kind: "point",
                latency_bound_cycles: 100_000,
                target_ppm: 500_000, // 50 %
            }],
            ..MetricsConfig::default()
        });
        let shard = reg.register_shard("worker", 0);
        for _ in 0..100 {
            shard.txn_completed("point", 1, 50_000, 0, 0);
        }
        let prev = reg.snapshot();
        for _ in 0..10 {
            shard.txn_completed("point", 1, 500_000, 0, 0);
        }
        reg.refresh_slo_gauges(Some(&prev));
        let snap = reg.snapshot();
        let (_, burn) = snap.slo_burn[0].clone();
        // Window: 10/10 violations against a 50 % budget → burn 2.0.
        assert!((burn - 2.0).abs() < 1e-9, "burn = {burn}");
    }

    #[test]
    fn gauges_round_trip() {
        let reg = MetricsRegistry::new(MetricsConfig::default());
        reg.gauge_set(Gauge::StarvationThreshold, 0.625);
        reg.gauge_set(Gauge::DeliveryDegraded, 1.0);
        assert_eq!(reg.gauge_get(Gauge::StarvationThreshold), 0.625);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("delivery_degraded"), Some(1.0));
        assert_eq!(snap.gauge("starvation_threshold"), Some(0.625));
    }

    #[test]
    fn phase_hists_map_index_and_class_to_distinct_series() {
        let mut seen = std::collections::HashSet::new();
        for high in [false, true] {
            for (idx, &label) in PHASE_LABELS.iter().enumerate() {
                let h = FixedHist::phase(idx, high);
                assert!(seen.insert(h as usize), "duplicate hist for {label}/{high}");
                let (p, c) = h.phase_labels().expect("phase hist has labels");
                assert_eq!(p, label);
                assert_eq!(c, if high { "high" } else { "low" });
            }
        }
        assert_eq!(FixedHist::DeliveryLatencyCycles.phase_labels(), None);
        assert_eq!(FixedHist::LatchWaitCycles.phase_labels(), None);
        let reg = MetricsRegistry::new(MetricsConfig::default());
        let shard = reg.register_shard("worker", 0);
        shard.observe(FixedHist::phase(1, true), 777);
        let snap = reg.snapshot();
        assert_eq!(snap.fixed(FixedHist::PhaseQueueHigh).count(), 1);
        assert_eq!(snap.fixed(FixedHist::PhaseQueueHigh).sum, 777);
        assert_eq!(snap.fixed(FixedHist::PhaseQueueLow).count(), 0);
    }

    #[test]
    fn hist_snapshot_percentile_matches_bucket_lower_bound() {
        let reg = MetricsRegistry::new(MetricsConfig::default());
        let shard = reg.register_shard("worker", 0);
        let v = 1_234_567_890u64;
        shard.observe(FixedHist::LatchWaitCycles, v);
        let snap = reg.snapshot();
        let got = snap.latch_wait.percentile(50.0);
        assert!(got <= v && (v - got) as f64 / (v as f64) < 0.032);
        assert_eq!(snap.latch_wait.count(), 1);
    }
}
