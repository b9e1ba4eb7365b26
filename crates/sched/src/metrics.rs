//! Latency histograms and run reports.
//!
//! The paper reports latency at the 50/90/99/99.9 percentiles and geometric
//! means (§6). [`Histogram`] is a log-bucketed (HDR-style) histogram:
//! values are bucketed by (exponent, 5 mantissa bits), so each octave has
//! 32 sub-buckets and a reported percentile (the bucket's lower bound)
//! undershoots the true value by strictly less than 1/32 ≈ 3.2 % — values
//! below 32 are exact. Recording is two shifts and an increment, and
//! histograms merge by bucket addition.
//!
//! [`Histogram`] is the local value type (the server, the load generator
//! and the benches record into their own). A run's counts are not kept
//! here: workers and the scheduler count into their registry shards
//! (`preempt_metrics`), and [`Metrics`] is a view of the final
//! [`MetricsSnapshot`] — same bucket layout ([`preempt_metrics::buckets`]),
//! so a percentile read through either is the same number.

use preempt_metrics::buckets::{self, FINE_SUB_BITS};
use preempt_metrics::{Counter, HistSnapshot, MetricsSnapshot};

/// Mantissa bits per octave: 32 sub-buckets, ≤ 3.2 % bucket width.
const SUB_BITS: u32 = FINE_SUB_BITS;
/// 64 octaves × 32 sub-buckets covers the full u64 range.
const BUCKETS: usize = buckets::bucket_count(SUB_BITS);

/// A log-bucketed latency histogram (values are in cycles or any unit).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    /// Sum of natural logs, for geometric means (paper Figure 13).
    log_sum: f64,
    min: u64,
    max: u64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            log_sum: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The histogram a registry snapshot holds, as this type. Buckets,
    /// count and sum carry over exactly; `min`, `max` and the geometric
    /// mean are at bucket resolution (each sample stands at its bucket's
    /// lower bound, as every percentile already does).
    pub fn from_snapshot(snap: &HistSnapshot) -> Histogram {
        debug_assert_eq!(snap.sub_bits, SUB_BITS);
        let mut h = Histogram {
            counts: snap.buckets.clone(),
            count: 0,
            sum: snap.sum,
            log_sum: 0.0,
            min: u64::MAX,
            max: 0,
        };
        for (b, &c) in snap.buckets.iter().enumerate().filter(|(_, &c)| c > 0) {
            let v = Self::bucket_value(b);
            h.count += c;
            h.log_sum += (v.max(1) as f64).ln() * c as f64;
            h.min = h.min.min(v);
            h.max = v;
        }
        h
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        buckets::bucket_of(value, SUB_BITS)
    }

    /// Representative (lower-bound) value of a bucket.
    fn bucket_value(bucket: usize) -> u64 {
        buckets::bucket_value(bucket, SUB_BITS)
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.log_sum += (value.max(1) as f64).ln();
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Geometric mean (0 if empty) — Figure 13's reporting statistic.
    pub fn geomean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.log_sum / self.count as f64).exp()
        }
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at percentile `p` in [0, 100].
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(b);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.log_sum += other.log_sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Bucket-wise difference `self − earlier`, for measuring a run's
    /// tail regime: under the deterministic simulator a shorter run is a
    /// prefix of the full run, so subtracting the prefix histogram
    /// leaves exactly the suffix's samples. `min`/`max` are recomputed
    /// from the surviving buckets (bucket-resolution, like percentiles).
    ///
    /// If `earlier` is *not* a prefix of `self` — its count, sum, or any
    /// bucket exceeds this histogram's, the shape left behind when the
    /// underlying series was reset between the two snapshots — the
    /// difference is meaningless, so the window restarts from the
    /// current totals (returns a clone of `self`), matching how
    /// monotonic-counter consumers treat a reset. An exactly-empty
    /// window (`earlier == self`) yields a fully-zeroed histogram, with
    /// no floating-point residue left in the geomean accumulator.
    pub fn subtracting(&self, earlier: &Histogram) -> Histogram {
        let reset = earlier.count > self.count
            || earlier.sum > self.sum
            || earlier
                .counts
                .iter()
                .zip(self.counts.iter())
                .any(|(b, a)| b > a);
        if reset {
            return self.clone();
        }
        let mut out = Histogram::new();
        for (o, (a, b)) in out
            .counts
            .iter_mut()
            .zip(self.counts.iter().zip(earlier.counts.iter()))
        {
            *o = a - b;
        }
        out.count = self.count - earlier.count;
        out.sum = self.sum - earlier.sum;
        if out.count > 0 {
            out.log_sum = (self.log_sum - earlier.log_sum).max(0.0);
            let first = out.counts.iter().position(|&c| c > 0).unwrap_or(0);
            let last = out.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
            out.min = Self::bucket_value(first);
            out.max = Self::bucket_value(last);
        }
        out
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(n={}, p50={}, p99={}, max={})",
            self.count,
            self.percentile(50.0),
            self.percentile(99.0),
            self.max
        )
    }
}

/// One transaction kind's series, as a run report shows them.
#[derive(Clone, Default)]
pub struct KindMetrics {
    /// End-to-end latency: generation → completion (paper Figures 10–13).
    pub latency: Histogram,
    /// Scheduling latency: generation → first instruction (Figure 1).
    pub sched_latency: Histogram,
    /// Completed (committed) transactions.
    pub completed: u64,
    /// User-level aborts/retries absorbed inside the request.
    pub retries: u64,
    /// Requests aborted because their deadline passed before they
    /// committed (either still queued or mid-retry).
    pub deadline_aborted: u64,
    /// Requests that exhausted their worker-level retry budget without
    /// committing.
    pub failed: u64,
}

/// Per-kind transaction metrics and the aggregate counters: a view of a
/// [`MetricsSnapshot`] (contained panics are not per kind; see
/// `WorkerTotals.panics`).
#[derive(Clone, Default)]
pub struct Metrics {
    kinds: Vec<(String, KindMetrics)>,
    /// Indexed by `Counter`; empty in a default view.
    counters: Vec<u64>,
}

impl Metrics {
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Metrics {
        Metrics {
            kinds: snap
                .kinds
                .iter()
                .map(|k| {
                    let m = KindMetrics {
                        latency: Histogram::from_snapshot(&k.latency),
                        sched_latency: Histogram::from_snapshot(&k.sched_latency),
                        completed: k.completed,
                        retries: k.retries,
                        deadline_aborted: k.deadline_aborted,
                        failed: k.failed,
                    };
                    (k.name.clone(), m)
                })
                .collect(),
            counters: Counter::ALL.iter().map(|&c| snap.counter(c)).collect(),
        }
    }

    /// One aggregate counter, summed over the snapshot's shards.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c as usize).copied().unwrap_or(0)
    }

    pub fn kind(&self, kind: &str) -> Option<&KindMetrics> {
        self.kinds.iter().find(|(k, _)| k == kind).map(|(_, m)| m)
    }

    /// Every kind, in name order.
    pub fn kinds(&self) -> impl Iterator<Item = (&str, &KindMetrics)> {
        self.kinds.iter().map(|(k, m)| (k.as_str(), m))
    }

    /// Total completions, from the aggregate counters: exact even when a
    /// shard saw more kinds than its kind table holds.
    pub fn total_completed(&self) -> u64 {
        self.counter(Counter::TxnCompletedHigh) + self.counter(Counter::TxnCompletedLow)
    }

    /// Total deadline aborts across kinds.
    pub fn total_deadline_aborted(&self) -> u64 {
        self.kinds.iter().map(|(_, m)| m.deadline_aborted).sum()
    }

    /// Total retry-budget exhaustions across kinds.
    pub fn total_failed(&self) -> u64 {
        self.kinds.iter().map(|(_, m)| m.failed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_uniform_values() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(50.0);
        assert!((470..=530).contains(&p50), "p50={p50}");
        let p99 = h.percentile(99.0);
        assert!((950..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 7, 31] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 31);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        let v = 1_234_567_890u64;
        h.record(v);
        let got = h.percentile(50.0);
        let err = (got as f64 - v as f64).abs() / v as f64;
        assert!(err < 0.032, "err={err}");
    }

    #[test]
    fn geomean_matches_closed_form() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(1000);
        // geomean(10, 1000) = 100
        assert!((h.geomean() - 100.0).abs() < 1.0);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut u = Histogram::new();
        for v in 1..500u64 {
            a.record(v);
            u.record(v);
        }
        for v in 500..1000u64 {
            b.record(v * 7);
            u.record(v * 7);
        }
        a.merge(&b);
        assert_eq!(a.count(), u.count());
        for p in [10.0, 50.0, 90.0, 99.0, 99.9] {
            assert_eq!(a.percentile(p), u.percentile(p));
        }
        assert_eq!(a.max(), u.max());
    }

    fn view(shards: &[std::sync::Arc<preempt_metrics::Shard>]) -> Metrics {
        Metrics::from_snapshot(&MetricsSnapshot::of_shards(shards.iter().map(|s| &**s)))
    }

    #[test]
    fn metrics_record_and_merge() {
        let (w0, w1) = (
            preempt_metrics::Shard::new("worker", 0),
            preempt_metrics::Shard::new("worker", 1),
        );
        w0.txn_completed("neworder", 1, 100, 10, 0);
        w1.txn_completed("neworder", 1, 200, 20, 1);
        w1.txn_completed("q2", 0, 5000, 1, 0);
        let m = view(&[w0, w1]);
        let no = m.kind("neworder").unwrap();
        assert_eq!(no.completed, 2);
        assert_eq!(no.retries, 1);
        assert_eq!(no.latency.count(), 2);
        assert_eq!((no.latency.min(), no.latency.max()), (100, 200));
        assert_eq!(no.sched_latency.percentile(100.0), 20);
        assert_eq!(m.kind("q2").unwrap().completed, 1);
        assert_eq!(m.total_completed(), 3);
        assert!(m.kind("nonexistent").is_none());
        let names: Vec<&str> = m.kinds().map(|(k, _)| k).collect();
        assert_eq!(names, ["neworder", "q2"]);
    }

    #[test]
    fn deadline_aborts_and_failures_are_counted() {
        let (w0, w1) = (
            preempt_metrics::Shard::new("worker", 0),
            preempt_metrics::Shard::new("worker", 1),
        );
        w0.txn_deadline_abort("point");
        w0.txn_failed("point", 3);
        w1.txn_deadline_abort("point");
        let m = view(&[w0, w1]);
        let k = m.kind("point").unwrap();
        assert_eq!(k.deadline_aborted, 2);
        assert_eq!(k.failed, 1);
        assert_eq!(k.retries, 3, "failed requests still report their retries");
        assert_eq!(k.completed, 0);
        assert_eq!(m.total_deadline_aborted(), 2);
        assert_eq!(m.total_failed(), 1);
        assert_eq!(m.total_completed(), 0);
    }

    /// A snapshot's histogram read back as a `Histogram`: identical
    /// count, sum, mean and percentiles; min/max/geomean within one
    /// bucket (3.2 %) of the exact values.
    #[test]
    fn from_snapshot_is_exact_up_to_bucket_width() {
        let mut exact = Histogram::new();
        let mut snap = HistSnapshot::empty(SUB_BITS);
        for v in (1..=5_000u64).map(|v| v * 37 + 1_000) {
            exact.record(v);
            snap.buckets[buckets::bucket_of(v, SUB_BITS)] += 1;
            snap.sum += v;
        }
        let view = Histogram::from_snapshot(&snap);
        assert_eq!(view.count(), exact.count());
        assert_eq!(view.mean(), exact.mean());
        for p in [0.0, 10.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(view.percentile(p), exact.percentile(p), "p{p}");
        }
        let within = |a: f64, b: f64| a <= b && (b - a) / b < 1.0 / 32.0;
        assert!(within(view.min() as f64, exact.min() as f64));
        assert!(within(view.max() as f64, exact.max() as f64));
        assert!(within(view.geomean(), exact.geomean()), "{}", view.geomean());
        let empty = Histogram::from_snapshot(&HistSnapshot::empty(SUB_BITS));
        assert_eq!((empty.count(), empty.min(), empty.max()), (0, 0, 0));
        assert_eq!(empty.geomean(), 0.0);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.geomean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn subtracting_a_prefix_leaves_the_suffix() {
        let mut full = Histogram::new();
        let mut prefix = Histogram::new();
        let mut suffix = Histogram::new();
        for v in 1..=2_000u64 {
            full.record(v * 13);
            if v <= 800 {
                prefix.record(v * 13);
            } else {
                suffix.record(v * 13);
            }
        }
        let diff = full.subtracting(&prefix);
        assert_eq!(diff.count(), suffix.count());
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(diff.percentile(p), suffix.percentile(p));
        }
        assert!((diff.mean() - suffix.mean()).abs() < 1e-6);
        assert!((diff.geomean() - suffix.geomean()).abs() / suffix.geomean() < 1e-9);
        // Subtracting everything leaves a sane empty histogram.
        let empty = full.subtracting(&full);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.percentile(99.0), 0);
    }

    /// Satellite regression: a window whose "earlier" snapshot is not a
    /// prefix (the series was reset in between) must restart from the
    /// current totals instead of producing saturated garbage.
    #[test]
    fn subtracting_detects_counter_resets() {
        let mut before = Histogram::new();
        for v in 1..=500u64 {
            before.record(v * 7);
        }
        // Reset: the series started over and recorded fewer samples.
        let mut after = Histogram::new();
        for v in 1..=100u64 {
            after.record(v * 11);
        }
        let w = after.subtracting(&before);
        assert_eq!(w.count(), after.count(), "window restarts at the reset");
        assert_eq!(w.percentile(99.0), after.percentile(99.0));
        assert!((w.mean() - after.mean()).abs() < 1e-9);

        // A reset that lands on a *larger* count but shuffled buckets is
        // still a reset: some bucket must exceed the later snapshot.
        let mut skew = Histogram::new();
        for _ in 0..1_000u64 {
            skew.record(3); // all mass in one low bucket
        }
        let mut later = Histogram::new();
        for v in 1..=2_000u64 {
            later.record(v * 1_000); // spread high, low bucket ~empty
        }
        let w2 = later.subtracting(&skew);
        assert_eq!(w2.count(), later.count());
        assert_eq!(w2.max(), later.max());
    }

    /// Satellite regression: an exactly-empty window reports zeroed
    /// statistics — no float residue in the geomean, no stale min/max.
    #[test]
    fn subtracting_empty_window_is_fully_zeroed() {
        let mut h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v * 13);
        }
        let w = h.subtracting(&h);
        assert_eq!(w.count(), 0);
        assert_eq!(w.min(), 0);
        assert_eq!(w.max(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.geomean(), 0.0, "no log_sum residue");
        assert_eq!(w.percentile(50.0), 0);
    }

    #[test]
    fn histogram_agrees_with_registry_buckets() {
        // The scheduler's histogram and the registry's `HistSnapshot`
        // share one bucketing; identical samples must report identical
        // percentiles in both layers.
        let mut h = Histogram::new();
        let mut snap = HistSnapshot::empty(SUB_BITS);
        for v in (1..=5_000u64).map(|v| v * 37) {
            h.record(v);
            snap.buckets[buckets::bucket_of(v, SUB_BITS)] += 1;
            snap.sum += v;
        }
        for p in [10.0, 50.0, 90.0, 99.0, 99.9] {
            assert_eq!(h.percentile(p), snap.percentile(p), "p{p}");
        }
        // A recorded histogram tracks the exact max beside the buckets;
        // the registry reports the max bucket's lower bound. They land
        // in the same bucket.
        assert_eq!(
            buckets::bucket_of(h.max(), SUB_BITS),
            buckets::bucket_of(snap.max(), SUB_BITS)
        );
    }
}
