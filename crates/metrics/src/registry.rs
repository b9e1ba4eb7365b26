//! The sharded registry: fixed counters, gauges, histograms, and
//! lazily-published per-transaction-kind slots.
//!
//! Layout mirrors the runtime: one [`Shard`] per worker (plus one for
//! the scheduling thread), each written lock-free by its single owner
//! with relaxed atomics, read concurrently by snapshotters. A
//! [`MetricsSnapshot`] sums the shards; because every cell is monotonic,
//! a snapshot taken mid-run is crash-consistent — each individual series
//! is a value the cell really held, and re-snapshotting never observes a
//! decrease.

use std::fmt;
use std::mem::MaybeUninit;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::buckets;

/// Fixed monotonic counters, one word per shard each.
///
/// `name()` is the Prometheus series base name (a `_total` suffix is
/// appended by the exporter).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Counter {
    UintrSent,
    UintrSendFailed,
    UintrNoticed,
    UintrDelivered,
    UintrDeferred,
    WatchdogResends,
    SchedEnterLevel,
    SchedLeaveLevel,
    TxnAdmittedHigh,
    TxnAdmittedLow,
    TxnCompletedHigh,
    TxnCompletedLow,
    TxnAborted,
    StarvationSkips,
    StarvationBreaks,
    DroppedHigh,
    Degrades,
    Upgrades,
    DeliveryErrors,
    DispatchFaults,
    FaultsInjected,
    LatchWaits,
    ControllerEvals,
    ControllerRaises,
    ControllerLowers,
    ControllerHolds,
    WorkerPanics,
    WorkersDead,
    WorkersRespawned,
    WorkersQuarantined,
    OrphansAborted,
    Steals,
    Shootdowns,
    NetConnsAccepted,
    NetConnsClosed,
    NetAdmitted,
    NetRejected,
    NetProtocolErrors,
    TraceDropped,
    Preemptions,
    CoopYields,
    HighOnRegular,
    BusyCycles,
    SchedTicks,
    AbandonedBatches,
    RetryAbandonedHigh,
    OrphanLatchesReleased,
    RejectedOrphaned,
}

/// Number of fixed counters (the width of a shard's counter block).
pub const COUNTERS: usize = 48;

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; COUNTERS] = [
        Counter::UintrSent,
        Counter::UintrSendFailed,
        Counter::UintrNoticed,
        Counter::UintrDelivered,
        Counter::UintrDeferred,
        Counter::WatchdogResends,
        Counter::SchedEnterLevel,
        Counter::SchedLeaveLevel,
        Counter::TxnAdmittedHigh,
        Counter::TxnAdmittedLow,
        Counter::TxnCompletedHigh,
        Counter::TxnCompletedLow,
        Counter::TxnAborted,
        Counter::StarvationSkips,
        Counter::StarvationBreaks,
        Counter::DroppedHigh,
        Counter::Degrades,
        Counter::Upgrades,
        Counter::DeliveryErrors,
        Counter::DispatchFaults,
        Counter::FaultsInjected,
        Counter::LatchWaits,
        Counter::ControllerEvals,
        Counter::ControllerRaises,
        Counter::ControllerLowers,
        Counter::ControllerHolds,
        Counter::WorkerPanics,
        Counter::WorkersDead,
        Counter::WorkersRespawned,
        Counter::WorkersQuarantined,
        Counter::OrphansAborted,
        Counter::Steals,
        Counter::Shootdowns,
        Counter::NetConnsAccepted,
        Counter::NetConnsClosed,
        Counter::NetAdmitted,
        Counter::NetRejected,
        Counter::NetProtocolErrors,
        Counter::TraceDropped,
        Counter::Preemptions,
        Counter::CoopYields,
        Counter::HighOnRegular,
        Counter::BusyCycles,
        Counter::SchedTicks,
        Counter::AbandonedBatches,
        Counter::RetryAbandonedHigh,
        Counter::OrphanLatchesReleased,
        Counter::RejectedOrphaned,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Counter::UintrSent => "uintr_sent",
            Counter::UintrSendFailed => "uintr_send_failed",
            Counter::UintrNoticed => "uintr_noticed",
            Counter::UintrDelivered => "uintr_delivered",
            Counter::UintrDeferred => "uintr_deferred",
            Counter::WatchdogResends => "uintr_watchdog_resends",
            Counter::SchedEnterLevel => "sched_enter_level",
            Counter::SchedLeaveLevel => "sched_leave_level",
            Counter::TxnAdmittedHigh => "txn_admitted_high",
            Counter::TxnAdmittedLow => "txn_admitted_low",
            Counter::TxnCompletedHigh => "txn_completed_high",
            Counter::TxnCompletedLow => "txn_completed_low",
            Counter::TxnAborted => "txn_aborted",
            Counter::StarvationSkips => "starvation_skips",
            Counter::StarvationBreaks => "starvation_breaks",
            Counter::DroppedHigh => "txn_dropped_high",
            Counter::Degrades => "delivery_degrades",
            Counter::Upgrades => "delivery_upgrades",
            Counter::DeliveryErrors => "delivery_errors",
            Counter::DispatchFaults => "dispatch_faults",
            Counter::FaultsInjected => "faults_injected",
            Counter::LatchWaits => "latch_waits",
            Counter::ControllerEvals => "controller_evals",
            Counter::ControllerRaises => "controller_raises",
            Counter::ControllerLowers => "controller_lowers",
            Counter::ControllerHolds => "controller_holds",
            Counter::WorkerPanics => "worker_panics",
            Counter::WorkersDead => "workers_dead",
            Counter::WorkersRespawned => "workers_respawned",
            Counter::WorkersQuarantined => "workers_quarantined",
            Counter::OrphansAborted => "orphans_aborted",
            Counter::Steals => "sched_steals",
            Counter::Shootdowns => "sched_shootdowns",
            Counter::NetConnsAccepted => "net_conns_accepted",
            Counter::NetConnsClosed => "net_conns_closed",
            Counter::NetAdmitted => "net_requests_admitted",
            Counter::NetRejected => "net_requests_rejected",
            Counter::NetProtocolErrors => "net_protocol_errors",
            Counter::TraceDropped => "trace_events_dropped",
            Counter::Preemptions => "sched_preemptions",
            Counter::CoopYields => "sched_coop_yields",
            Counter::HighOnRegular => "txn_high_on_regular",
            Counter::BusyCycles => "worker_busy_cycles",
            Counter::SchedTicks => "sched_ticks",
            Counter::AbandonedBatches => "sched_abandoned_batches",
            Counter::RetryAbandonedHigh => "txn_retry_abandoned_high",
            Counter::OrphanLatchesReleased => "orphan_latches_released",
            Counter::RejectedOrphaned => "txn_rejected_orphaned",
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            Counter::UintrSent => "User interrupts sent by the scheduler",
            Counter::UintrSendFailed => "User interrupt sends that failed",
            Counter::UintrNoticed => "Pending user interrupts noticed by receivers",
            Counter::UintrDelivered => "User-interrupt handler invocations delivered",
            Counter::UintrDeferred => "User-interrupt deliveries deferred (masked/nonpreemptible)",
            Counter::WatchdogResends => "Watchdog re-sends of unacknowledged interrupts",
            Counter::SchedEnterLevel => "Entries into a higher scheduling level (preemptions)",
            Counter::SchedLeaveLevel => "Returns from a higher scheduling level",
            Counter::TxnAdmittedHigh => "High-priority requests dispatched to workers",
            Counter::TxnAdmittedLow => "Low-priority requests dispatched to workers",
            Counter::TxnCompletedHigh => "High-priority transactions committed",
            Counter::TxnCompletedLow => "Low-priority transactions committed",
            Counter::TxnAborted => "Requests aborted (deadline or retry-budget exhaustion)",
            Counter::StarvationSkips => "Scheduler skips of starving workers during dispatch",
            Counter::StarvationBreaks => "Drain-loop breaks forced by the starvation bound",
            Counter::DroppedHigh => "High-priority requests dropped at full queues",
            Counter::Degrades => "Delivery degradations to cooperative mode",
            Counter::Upgrades => "Recoveries from degraded delivery",
            Counter::DeliveryErrors => "Interrupt delivery errors observed by the scheduler",
            Counter::DispatchFaults => "Dispatch attempts suppressed by fault injection",
            Counter::FaultsInjected => "Faults injected by the deterministic fault plan",
            Counter::LatchWaits => "Latch acquisitions that had to spin",
            Counter::ControllerEvals => "Adaptive-controller window evaluations",
            Counter::ControllerRaises => "Controller decisions that raised the threshold",
            Counter::ControllerLowers => "Controller decisions that lowered the threshold",
            Counter::ControllerHolds => "Controller decisions that held the threshold",
            Counter::WorkerPanics => "Transaction panics contained by the worker firewall",
            Counter::WorkersDead => "Workers declared dead by the supervisor",
            Counter::WorkersRespawned => "Dead workers respawned with a fresh context",
            Counter::WorkersQuarantined => "Workers quarantined after exhausting respawns",
            Counter::OrphansAborted => "Orphaned transactions aborted centrally (slots force-released)",
            Counter::Steals => "Requests stolen from a same-shard sibling's queue tail",
            Counter::Shootdowns => "Starved requests moved cross-shard with a uintr kick",
            Counter::NetConnsAccepted => "Client connections accepted by the network front door",
            Counter::NetConnsClosed => "Client connections closed (EOF, error, or shutdown)",
            Counter::NetAdmitted => "Network requests admitted to the worker pool",
            Counter::NetRejected => "Network requests rejected with an Overloaded frame",
            Counter::NetProtocolErrors => "Malformed frames answered with an error and a hangup",
            Counter::TraceDropped => {
                "Trace-ring events overwritten before merge (lossy ring wraparound)"
            }
            Counter::Preemptions => "Passive (user-interrupt) switches into a preemptive context",
            Counter::CoopYields => "Cooperative yield switches into a higher-priority context",
            Counter::HighOnRegular => "High-priority requests run on the regular (level-0) path",
            Counter::BusyCycles => "Cycles workers spent executing requests",
            Counter::SchedTicks => "High-priority arrival ticks processed by the scheduler",
            Counter::AbandonedBatches => "Ticks whose batch remainder was left undelivered",
            Counter::RetryAbandonedHigh => "High requests stranded by the dispatch retry cap",
            Counter::OrphanLatchesReleased => "Write latches force-released by the orphan sweep",
            Counter::RejectedOrphaned => "Queued requests rejected with a quarantined worker",
        }
    }
}

/// Fixed gauges, stored registry-wide as `f64` bit patterns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gauge {
    StarvationThreshold,
    ViolationFloor,
    DeliveryDegraded,
    NetInFlight,
}

/// Number of fixed gauges.
pub const GAUGES: usize = 4;

impl Gauge {
    pub const ALL: [Gauge; GAUGES] = [
        Gauge::StarvationThreshold,
        Gauge::ViolationFloor,
        Gauge::DeliveryDegraded,
        Gauge::NetInFlight,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Gauge::StarvationThreshold => "starvation_threshold",
            Gauge::ViolationFloor => "violation_floor",
            Gauge::DeliveryDegraded => "delivery_degraded",
            Gauge::NetInFlight => "net_in_flight",
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            Gauge::StarvationThreshold => {
                "Current adaptive starvation threshold L_max (CPU-share fraction)"
            }
            Gauge::ViolationFloor => "Controller violation floor (threshold fraction)",
            Gauge::DeliveryDegraded => "1 while interrupt delivery is degraded to cooperative",
            Gauge::NetInFlight => "Network requests admitted but not yet answered",
        }
    }
}

/// Fixed fine-grained (5 mantissa bits) histograms, one per shard each.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FixedHist {
    /// Userspace-interrupt post → handler entry, in cycles: the live
    /// preemption-latency self-profile (paper Figure 4's microbenchmark,
    /// measured continuously on the real delivery path).
    DeliveryLatencyCycles,
    /// Cycles burned spinning on an MVCC latch before acquisition.
    LatchWaitCycles,
    /// Per-commit latency-provenance phases (DESIGN.md §15): one
    /// histogram per (phase, class) so the exporter can publish a single
    /// labeled `txn_phase_cycles` family. Low = normal priority,
    /// High = latency-sensitive. Order within each class follows
    /// [`PHASE_LABELS`].
    PhaseAdmissionLow,
    PhaseQueueLow,
    PhaseRunLow,
    PhasePreemptedLow,
    PhaseLatchLow,
    PhaseRetryLow,
    PhaseHandlerLow,
    PhaseReplyLow,
    PhaseAdmissionHigh,
    PhaseQueueHigh,
    PhaseRunHigh,
    PhasePreemptedHigh,
    PhaseLatchHigh,
    PhaseRetryHigh,
    PhaseHandlerHigh,
    PhaseReplyHigh,
}

/// Number of fixed histograms.
pub const FIXED_HISTS: usize = 18;

/// Number of latency-provenance phases per class.
pub const PHASES: usize = 8;

/// Canonical phase names, indexed by the phase id carried in trace
/// `TxnPhase` events (crates/prov assigns the ids; this array is the
/// export-side label table and must stay in the same order).
pub const PHASE_LABELS: [&str; PHASES] = [
    "admission", "queue", "run", "preempted", "latch", "retry", "handler", "reply",
];

impl FixedHist {
    pub const ALL: [FixedHist; FIXED_HISTS] = [
        FixedHist::DeliveryLatencyCycles,
        FixedHist::LatchWaitCycles,
        FixedHist::PhaseAdmissionLow,
        FixedHist::PhaseQueueLow,
        FixedHist::PhaseRunLow,
        FixedHist::PhasePreemptedLow,
        FixedHist::PhaseLatchLow,
        FixedHist::PhaseRetryLow,
        FixedHist::PhaseHandlerLow,
        FixedHist::PhaseReplyLow,
        FixedHist::PhaseAdmissionHigh,
        FixedHist::PhaseQueueHigh,
        FixedHist::PhaseRunHigh,
        FixedHist::PhasePreemptedHigh,
        FixedHist::PhaseLatchHigh,
        FixedHist::PhaseRetryHigh,
        FixedHist::PhaseHandlerHigh,
        FixedHist::PhaseReplyHigh,
    ];

    /// Offset of the first phase histogram within [`FixedHist::ALL`].
    pub const PHASE_BASE: usize = 2;

    /// The histogram for provenance phase `idx` (0..[`PHASES`]) of the
    /// given class. Panics on an out-of-range phase index — callers pass
    /// ids from the in-tree `Phase` enum, never untrusted input.
    pub fn phase(idx: usize, high: bool) -> FixedHist {
        assert!(idx < PHASES, "phase index {idx} out of range");
        Self::ALL[Self::PHASE_BASE + if high { PHASES } else { 0 } + idx]
    }

    /// `Some((phase_label, class_label))` if this is a phase histogram.
    pub fn phase_labels(self) -> Option<(&'static str, &'static str)> {
        let i = (self as usize).checked_sub(Self::PHASE_BASE)?;
        if i >= 2 * PHASES {
            return None;
        }
        Some((PHASE_LABELS[i % PHASES], if i < PHASES { "low" } else { "high" }))
    }

    pub fn name(self) -> &'static str {
        match self {
            FixedHist::DeliveryLatencyCycles => "uintr_delivery_latency_cycles",
            FixedHist::LatchWaitCycles => "latch_wait_cycles",
            FixedHist::PhaseAdmissionLow => "txn_phase_admission_low_cycles",
            FixedHist::PhaseQueueLow => "txn_phase_queue_low_cycles",
            FixedHist::PhaseRunLow => "txn_phase_run_low_cycles",
            FixedHist::PhasePreemptedLow => "txn_phase_preempted_low_cycles",
            FixedHist::PhaseLatchLow => "txn_phase_latch_low_cycles",
            FixedHist::PhaseRetryLow => "txn_phase_retry_low_cycles",
            FixedHist::PhaseHandlerLow => "txn_phase_handler_low_cycles",
            FixedHist::PhaseReplyLow => "txn_phase_reply_low_cycles",
            FixedHist::PhaseAdmissionHigh => "txn_phase_admission_high_cycles",
            FixedHist::PhaseQueueHigh => "txn_phase_queue_high_cycles",
            FixedHist::PhaseRunHigh => "txn_phase_run_high_cycles",
            FixedHist::PhasePreemptedHigh => "txn_phase_preempted_high_cycles",
            FixedHist::PhaseLatchHigh => "txn_phase_latch_high_cycles",
            FixedHist::PhaseRetryHigh => "txn_phase_retry_high_cycles",
            FixedHist::PhaseHandlerHigh => "txn_phase_handler_high_cycles",
            FixedHist::PhaseReplyHigh => "txn_phase_reply_high_cycles",
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            FixedHist::DeliveryLatencyCycles => {
                "User-interrupt post-to-handler-entry latency (cycles)"
            }
            FixedHist::LatchWaitCycles => "Cycles spun before acquiring an MVCC latch",
            _ => "Per-commit latency attributed to one provenance phase (cycles)",
        }
    }
}

/// A latency SLO for one transaction kind: at most `target_ppm` parts
/// per million of completions may exceed `latency_bound_cycles`. The
/// exporter publishes the observed violation fraction divided by the
/// target as a burn-rate gauge (1.0 = burning exactly the error budget).
#[derive(Clone, Copy, Debug)]
pub struct SloSpec {
    pub kind: &'static str,
    pub latency_bound_cycles: u64,
    pub target_ppm: u64,
}

/// Registry configuration, carried on the driver config.
#[derive(Clone, Debug)]
pub struct MetricsConfig {
    /// Latency SLOs to derive burn-rate gauges for.
    pub slos: Vec<SloSpec>,
    /// Serve `GET /metrics` from a sampler thread on threaded runs.
    pub serve: bool,
    /// Bind address for the endpoint; port 0 picks a free port (the
    /// bound address is readable via [`MetricsRegistry::bound_addr`]).
    pub serve_addr: String,
    /// Sampler refresh interval (wall-clock) for derived gauges.
    pub sample_interval_ms: u64,
}

impl Default for MetricsConfig {
    fn default() -> MetricsConfig {
        MetricsConfig {
            slos: Vec::new(),
            serve: false,
            serve_addr: "127.0.0.1:0".to_string(),
            sample_interval_ms: 200,
        }
    }
}

// ---------------------------------------------------------------------
// Atomic histogram
// ---------------------------------------------------------------------

/// Adds `n` to one cell of a shard. On a single-writer shard
/// ([`Shard::single_writer`]) this is a plain load and store: nothing
/// else writes the cell, and readers only need each store whole. Every
/// other shard takes a lock-prefixed `fetch_add`.
#[inline]
fn add(cell: &AtomicU64, n: u64, owned: bool) {
    if owned {
        let v = cell.load(Ordering::Relaxed).wrapping_add(n);
        cell.store(v, Ordering::Relaxed);
    } else {
        cell.fetch_add(n, Ordering::Relaxed);
    }
}

/// Records `value` into a histogram's buckets and sum.
#[inline]
fn record(counts: &[AtomicU64], sum: &AtomicU64, sub_bits: u32, value: u64, owned: bool) {
    add(&counts[buckets::bucket_of(value, sub_bits)], 1, owned);
    add(sum, value, owned);
}

/// Adds a histogram's buckets into an accumulating snapshot.
fn add_hist_into(counts: &[AtomicU64], sum: &AtomicU64, snap: &mut HistSnapshot) {
    debug_assert_eq!(snap.buckets.len(), counts.len());
    snap.sum = snap.sum.wrapping_add(sum.load(Ordering::Relaxed));
    for (acc, c) in snap.buckets.iter_mut().zip(counts.iter()) {
        *acc += c.load(Ordering::Relaxed);
    }
}

/// Atomic histogram over the shared bucket layout.
struct AtomicHist {
    sub_bits: u32,
    sum: AtomicU64,
    counts: Box<[AtomicU64]>,
}

impl AtomicHist {
    fn new(sub_bits: u32) -> AtomicHist {
        AtomicHist {
            sub_bits,
            sum: AtomicU64::new(0),
            counts: (0..buckets::bucket_count(sub_bits))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    #[inline]
    fn record(&self, value: u64, owned: bool) {
        record(&self.counts, &self.sum, self.sub_bits, value, owned);
    }

    /// Adds this shard's buckets into an accumulating snapshot.
    fn add_into(&self, snap: &mut HistSnapshot) {
        debug_assert_eq!(snap.sub_bits, self.sub_bits);
        add_hist_into(&self.counts, &self.sum, snap);
    }

    fn is_empty(&self) -> bool {
        self.counts.iter().all(|c| c.load(Ordering::Relaxed) == 0)
    }
}

/// An owned point-in-time histogram: raw bucket counts plus the sum of
/// recorded values. `count` is derived from the buckets so that a
/// snapshot taken mid-run stays internally consistent.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    pub sub_bits: u32,
    pub sum: u64,
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    pub fn empty(sub_bits: u32) -> HistSnapshot {
        HistSnapshot {
            sub_bits,
            sum: 0,
            buckets: vec![0; buckets::bucket_count(sub_bits)],
        }
    }

    /// Total recorded samples (sum of bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&c| c == 0)
    }

    /// Value at percentile `p` in [0, 100] (bucket lower bound), with
    /// the same rank arithmetic as `preempt-sched`'s `Histogram` so the
    /// two report identical numbers for identical samples.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return buckets::bucket_value(b, self.sub_bits);
            }
        }
        self.max()
    }

    /// Largest recorded value, at bucket resolution.
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(|b| buckets::bucket_value(b, self.sub_bits))
            .unwrap_or(0)
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Bucket-wise `self − earlier` (saturating), for windowed reads of
    /// a cumulative histogram.
    pub fn delta_since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        debug_assert_eq!(self.sub_bits, earlier.sub_bits);
        HistSnapshot {
            sub_bits: self.sub_bits,
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter())
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }

    /// Samples whose bucket lower bound exceeds `bound` — the
    /// bucket-resolution count of SLO violations. Empty buckets are
    /// skipped (dead indices have no defined value).
    pub fn count_above(&self, bound: u64) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .filter(|(b, _)| buckets::bucket_value(*b, self.sub_bits) > bound)
            .map(|(_, &c)| c)
            .sum()
    }
}

// ---------------------------------------------------------------------
// Per-kind slots
// ---------------------------------------------------------------------

/// How many distinct transaction kinds one shard can attribute. Beyond
/// this the aggregate counters still count; only the per-kind breakdown
/// drops the overflow kinds.
const MAX_KINDS: usize = 16;

/// Buckets of a fine (5-bit) histogram.
const FINE_BUCKETS: usize = buckets::bucket_count(buckets::FINE_SUB_BITS);

/// A fine histogram stored in place, so a kind slot is plain memory.
#[repr(C)]
struct FineHist {
    sum: AtomicU64,
    counts: [AtomicU64; FINE_BUCKETS],
}

impl FineHist {
    #[inline]
    fn record(&self, value: u64, owned: bool) {
        let sub_bits = buckets::FINE_SUB_BITS;
        record(&self.counts, &self.sum, sub_bits, value, owned);
    }
}

/// One kind's series. All zeros is a valid, empty slot: a shard's slots
/// live in one zeroed block ([`Shard::reserve_kinds`]).
#[repr(C)]
struct KindSlot {
    /// Written once by the writer that claims the slot, before the slot
    /// is published in `Shard::kinds`; read only through a published
    /// pointer.
    name: MaybeUninit<&'static str>,
    completed: AtomicU64,
    retries: AtomicU64,
    deadline_aborted: AtomicU64,
    failed: AtomicU64,
    latency: FineHist,
    sched_latency: FineHist,
}

impl KindSlot {
    fn name(&self) -> &'static str {
        // SAFETY: published slots had their name written first.
        unsafe { self.name.assume_init() }
    }
}

/// How many of a block's slots are faulted in when it is mapped: the
/// kinds a workload's worker records (the benchmark's three, the
/// server's four). Later kinds fault their pages in on first use.
const PREFAULT_KINDS: usize = 4;

/// The zeroed block of a shard's [`MAX_KINDS`] slots, one per entry of
/// `Shard::kinds`: mapped straight from the kernel, so reserving it
/// never waits on the allocator's arenas (a first sizable `malloc` on a
/// fresh thread can stall for as long as glibc takes to consolidate a
/// reused arena). Its first [`PREFAULT_KINDS`] slots are faulted in
/// when it is mapped, so no request of those kinds takes a first-touch
/// page fault on a bucket it lands in (on a virtual machine, one can
/// take milliseconds); the rest stay unbacked until used.
struct KindBlock;

impl KindBlock {
    const BYTES: usize = MAX_KINDS * std::mem::size_of::<KindSlot>();

    fn alloc() -> *mut KindSlot {
        // SAFETY: a fresh private anonymous mapping, no fixed address.
        let p = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                Self::BYTES,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if p == libc::MAP_FAILED {
            let layout = std::alloc::Layout::array::<KindSlot>(MAX_KINDS);
            std::alloc::handle_alloc_error(layout.expect("kind block layout"));
        }
        let prefix = PREFAULT_KINDS * std::mem::size_of::<KindSlot>();
        for page in (0..prefix).step_by(4096) {
            // SAFETY: inside the fresh mapping, which nothing else sees
            // yet; writing the zero it already holds backs the page.
            unsafe { p.cast::<u8>().add(page).write_volatile(0) };
        }
        p.cast()
    }

    /// SAFETY: `p` came from [`alloc`](Self::alloc) and is unused.
    unsafe fn free(p: *mut KindSlot) {
        // SAFETY: the caller's contract; the mapping is this size.
        unsafe { libc::munmap(p.cast(), Self::BYTES) };
    }
}

/// A `Shard::kinds` entry whose slot is being named: never a slot's
/// address (the block is page-aligned).
const CLAIMING: *mut KindSlot = std::ptr::dangling_mut();

/// Aggregated per-kind series in a snapshot.
#[derive(Clone, Debug)]
pub struct KindSnapshot {
    pub name: String,
    pub completed: u64,
    pub retries: u64,
    pub deadline_aborted: u64,
    pub failed: u64,
    pub latency: HistSnapshot,
    pub sched_latency: HistSnapshot,
}

impl KindSnapshot {
    fn empty(name: String) -> KindSnapshot {
        KindSnapshot {
            name,
            completed: 0,
            retries: 0,
            deadline_aborted: 0,
            failed: 0,
            latency: HistSnapshot::empty(buckets::FINE_SUB_BITS),
            sched_latency: HistSnapshot::empty(buckets::FINE_SUB_BITS),
        }
    }
}

// ---------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------

/// One writer's slice of the registry: a fixed counter block, the fixed
/// histograms, the controller's windowed sensor histogram, and per-kind
/// slots published on first use.
///
/// A shard is read concurrently by snapshotters. How it is written
/// depends on how it was made:
/// * [`single_writer`](Shard::single_writer) (a worker's shard): one
///   thread writes it — the worker's contexts take turns on their
///   thread, and a context switch happens only at a preemption point,
///   never inside an emit — so every counter and histogram cell is a
///   plain load and store, with no lock prefix. Debug builds check that
///   every write comes from the first writing thread.
/// * [`new`](Shard::new) (the plane's shard, which every submitting
///   thread and the housekeeper count into, and any other shard with
///   more than one writer): relaxed `fetch_add`s.
///
/// Every emit below is handler-safe. The kind slots live in one zeroed
/// block, mapped by [`reserve_kinds`](Shard::reserve_kinds) — a worker
/// calls it before its first request — or else by the first completion,
/// on the worker's request loop and never inside an interrupt handler.
/// The block reserves address space for [`MAX_KINDS`] slots (about
/// 513 KiB); its first [`PREFAULT_KINDS`] (about 128 KiB) are resident
/// from the start, later ones once used. A kind's first use claims the
/// first empty table entry with a compare-exchange, so writers racing
/// on a multi-writer shard each get a slot until the table is full.
pub struct Shard {
    label: &'static str,
    index: u32,
    /// Single-writer shard: cells are written with load + store.
    owned: bool,
    /// The thread that writes a single-writer shard (debug builds).
    #[cfg(debug_assertions)]
    owner: std::sync::atomic::AtomicUsize,
    counters: [AtomicU64; COUNTERS],
    hists: [AtomicHist; FIXED_HISTS],
    /// High-priority commit latency at window (3-bit) resolution — the
    /// adaptive controller's sensor histogram.
    sensor_high_latency: AtomicHist,
    /// Published slots, in first-use order: entry `i` is null, then
    /// [`CLAIMING`] while a writer names slot `i` of `kind_block`, then
    /// that slot.
    kinds: [AtomicPtr<KindSlot>; MAX_KINDS],
    /// The `MAX_KINDS` slots; null until reserved.
    kind_block: AtomicPtr<KindSlot>,
}

impl Shard {
    /// A free-standing shard any number of threads may count into: its
    /// writers own it and count into it from the start;
    /// [`MetricsRegistry::attach`] adds it to a registry's snapshots
    /// (and [`MetricsSnapshot::of_shards`] reads a set of them with no
    /// registry at all).
    pub fn new(label: &'static str, index: u32) -> Arc<Shard> {
        Self::make(label, index, false)
    }

    /// A shard only one thread ever writes (see the type's docs): its
    /// cells take plain stores instead of locked read-modify-writes.
    pub fn single_writer(label: &'static str, index: u32) -> Arc<Shard> {
        Self::make(label, index, true)
    }

    fn make(label: &'static str, index: u32, owned: bool) -> Arc<Shard> {
        Arc::new(Shard {
            label,
            index,
            owned,
            #[cfg(debug_assertions)]
            owner: std::sync::atomic::AtomicUsize::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| AtomicHist::new(buckets::FINE_SUB_BITS)),
            sensor_high_latency: AtomicHist::new(buckets::WINDOW_SUB_BITS),
            kinds: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            kind_block: AtomicPtr::new(std::ptr::null_mut()),
        })
    }

    /// This shard's owner label, e.g. `("worker", 3)`.
    pub fn label(&self) -> (&'static str, u32) {
        (self.label, self.index)
    }

    /// How this write adds: `true` for load + store. In debug builds,
    /// checks a single-writer shard's write comes from its thread.
    #[inline]
    fn owned(&self) -> bool {
        #[cfg(debug_assertions)]
        if self.owned {
            thread_local! {
                static TAG: u8 = const { 0 };
            }
            let me = TAG.with(|t| std::ptr::from_ref(t) as usize);
            let owner = &self.owner;
            let first = owner
                .compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed)
                .map_or_else(|owner| owner, |_| me);
            assert_eq!(first, me, "single-writer shard {self:?} written twice over");
        }
        self.owned
    }

    /// Increments a counter by one. Handler-safe.
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.bump_by(c, 1);
    }

    /// Increments a counter by `n`. Handler-safe.
    #[inline]
    pub fn bump_by(&self, c: Counter, n: u64) {
        add(&self.counters[c as usize], n, self.owned());
    }

    /// Records one value into a fixed histogram. Handler-safe.
    #[inline]
    pub fn observe(&self, h: FixedHist, value: u64) {
        self.hists[h as usize].record(value, self.owned());
    }

    /// Current value of one counter on this shard alone.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Records a committed request: aggregate counters, the controller's
    /// sensor histogram (high priority only, same bucketing the drained
    /// `WindowSensors` used), and the per-kind latency series.
    pub fn txn_completed(
        &self,
        kind: &'static str,
        priority: u8,
        latency: u64,
        sched_latency: u64,
        retries: u64,
    ) {
        let owned = self.owned();
        if priority == 0 {
            add(&self.counters[Counter::TxnCompletedLow as usize], 1, owned);
        } else {
            add(&self.counters[Counter::TxnCompletedHigh as usize], 1, owned);
            self.sensor_high_latency.record(latency, owned);
        }
        if let Some(slot) = self.kind_slot(kind) {
            add(&slot.completed, 1, owned);
            add(&slot.retries, retries, owned);
            slot.latency.record(latency, owned);
            slot.sched_latency.record(sched_latency, owned);
        }
    }

    /// Records a request abandoned at its deadline.
    pub fn txn_deadline_abort(&self, kind: &'static str) {
        self.bump(Counter::TxnAborted);
        if let Some(slot) = self.kind_slot(kind) {
            add(&slot.deadline_aborted, 1, self.owned());
        }
    }

    /// Records a request that burned its retry budget without committing.
    pub fn txn_failed(&self, kind: &'static str, retries: u64) {
        self.bump(Counter::TxnAborted);
        if let Some(slot) = self.kind_slot(kind) {
            let owned = self.owned();
            add(&slot.failed, 1, owned);
            add(&slot.retries, retries, owned);
        }
    }

    /// Maps the block of kind slots now, if it is not yet: a worker
    /// calls this before its first request, so that request neither
    /// allocates nor waits on an allocator.
    pub fn reserve_kinds(&self) {
        self.kind_block();
    }

    fn kind_block(&self) -> *mut KindSlot {
        let p = self.kind_block.load(Ordering::Acquire);
        if !p.is_null() {
            return p;
        }
        let fresh = KindBlock::alloc();
        match self.kind_block.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => fresh,
            Err(won) => {
                // SAFETY: `fresh` lost the race and was never shared.
                unsafe { KindBlock::free(fresh) };
                won
            }
        }
    }

    /// Finds (or publishes) the slot for `kind`: a short pointer scan,
    /// and on a kind's first use a claim. Returns `None` when the table
    /// is full.
    fn kind_slot(&self, kind: &'static str) -> Option<&KindSlot> {
        for (i, cell) in self.kinds.iter().enumerate() {
            let p = cell.load(Ordering::Acquire);
            if p.is_null() || p == CLAIMING {
                return self.claim_kind(i, kind);
            }
            // SAFETY: published slots live until Shard::drop, and
            // `&self` keeps the shard alive.
            let slot = unsafe { &*p };
            if slot.name() == kind {
                return Some(slot);
            }
        }
        None
    }

    /// The rest of [`kind_slot`](Self::kind_slot)'s scan from entry
    /// `from`, the first not yet published: claims the first empty
    /// entry for `kind`, unless another writer publishes `kind` first.
    /// Kept out of line: it runs once per kind.
    #[cold]
    #[inline(never)]
    fn claim_kind(&self, from: usize, kind: &'static str) -> Option<&KindSlot> {
        for (i, cell) in self.kinds.iter().enumerate().skip(from) {
            let mut p = cell.load(Ordering::Acquire);
            if p.is_null() {
                match cell.compare_exchange(
                    std::ptr::null_mut(),
                    CLAIMING,
                    Ordering::Acquire,
                    Ordering::Acquire,
                ) {
                    // SAFETY: entry `i` is this caller's until it
                    // publishes it, and so is slot `i` of the block,
                    // which lives until Shard::drop.
                    Ok(_) => unsafe {
                        let slot = self.kind_block().add(i);
                        std::ptr::addr_of_mut!((*slot).name).write(MaybeUninit::new(kind));
                        cell.store(slot, Ordering::Release);
                        return Some(&*slot);
                    },
                    Err(current) => p = current,
                }
            }
            // Another writer is naming this entry (only on a shard with
            // more than one writer): it publishes with its next store.
            while p == CLAIMING {
                std::thread::yield_now();
                p = cell.load(Ordering::Acquire);
            }
            // SAFETY: as in `kind_slot`.
            let slot = unsafe { &*p };
            if slot.name() == kind {
                return Some(slot);
            }
        }
        None
    }

    /// The published kind slots, in first-use order.
    fn published_kinds(&self) -> impl Iterator<Item = &KindSlot> {
        self.kinds
            .iter()
            .map(|cell| cell.load(Ordering::Acquire))
            .take_while(|&p| !p.is_null() && p != CLAIMING)
            // SAFETY: published slots live until Shard::drop.
            .map(|p| unsafe { &*p })
    }

    fn add_counters_into(&self, acc: &mut [u64; COUNTERS]) {
        for (a, c) in acc.iter_mut().zip(self.counters.iter()) {
            *a += c.load(Ordering::Relaxed);
        }
    }

    fn add_kinds_into(&self, acc: &mut Vec<KindSnapshot>) {
        for slot in self.published_kinds() {
            let name = slot.name();
            let entry = match acc.iter_mut().find(|k| k.name == name) {
                Some(e) => e,
                None => {
                    acc.push(KindSnapshot::empty(name.to_string()));
                    acc.last_mut().expect("just pushed")
                }
            };
            entry.completed += slot.completed.load(Ordering::Relaxed);
            entry.retries += slot.retries.load(Ordering::Relaxed);
            entry.deadline_aborted += slot.deadline_aborted.load(Ordering::Relaxed);
            entry.failed += slot.failed.load(Ordering::Relaxed);
            add_hist_into(&slot.latency.counts, &slot.latency.sum, &mut entry.latency);
            add_hist_into(
                &slot.sched_latency.counts,
                &slot.sched_latency.sum,
                &mut entry.sched_latency,
            );
        }
    }

    /// True when nothing has been recorded on this shard — the
    /// disabled-overhead unit tests assert this after guarded emits.
    pub fn is_untouched(&self) -> bool {
        self.counters.iter().all(|c| c.load(Ordering::Relaxed) == 0)
            && self.hists.iter().all(|h| h.is_empty())
            && self.sensor_high_latency.is_empty()
            && self.kinds[0].load(Ordering::Acquire).is_null()
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        let block = *self.kind_block.get_mut();
        if !block.is_null() {
            // SAFETY: the block is freed once, here; its slots hold no
            // heap data, and `&mut self` means no slot is borrowed.
            unsafe { KindBlock::free(block) };
        }
    }
}

impl fmt::Debug for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shard({}/{})", self.label, self.index)
    }
}

// ---------------------------------------------------------------------
// Sensor plane
// ---------------------------------------------------------------------

/// Cumulative sensor readings summed across shards: exactly the series
/// the adaptive controller consumes, read in one pass.
#[derive(Clone, Debug)]
pub struct SensorTotals {
    pub high_completed: u64,
    pub low_completed: u64,
    pub aborts: u64,
    pub watchdog_resends: u64,
    pub skipped_starving: u64,
    pub dropped_high: u64,
    high_latency: Vec<u64>,
}

impl SensorTotals {
    pub fn zero() -> SensorTotals {
        SensorTotals {
            high_completed: 0,
            low_completed: 0,
            aborts: 0,
            watchdog_resends: 0,
            skipped_starving: 0,
            dropped_high: 0,
            high_latency: vec![0; buckets::bucket_count(buckets::WINDOW_SUB_BITS)],
        }
    }

    /// The sensor series summed over `shards` — how a scheduler plane
    /// reads its own shard and its workers' without a registry.
    pub fn of_shards<'a>(shards: impl IntoIterator<Item = &'a Shard>) -> SensorTotals {
        let mut t = SensorTotals::zero();
        for s in shards {
            t.high_completed += s.counter(Counter::TxnCompletedHigh);
            t.low_completed += s.counter(Counter::TxnCompletedLow);
            t.aborts += s.counter(Counter::TxnAborted);
            t.watchdog_resends += s.counter(Counter::WatchdogResends);
            t.skipped_starving += s.counter(Counter::StarvationSkips);
            t.dropped_high += s.counter(Counter::DroppedHigh);
            for (a, c) in t
                .high_latency
                .iter_mut()
                .zip(s.sensor_high_latency.counts.iter())
            {
                *a += c.load(Ordering::Relaxed);
            }
        }
        t
    }

    /// The window `self − prev`: what the drained `WindowSensors` used
    /// to hand the controller, now as a difference of two cumulative
    /// registry reads. Sum-of-per-shard-deltas equals delta-of-sums, so
    /// under the deterministic simulator the controller sees the exact
    /// values the drain produced.
    pub fn delta_since(&self, prev: &SensorTotals) -> SensorWindow {
        SensorWindow {
            high_completed: self.high_completed.saturating_sub(prev.high_completed),
            low_completed: self.low_completed.saturating_sub(prev.low_completed),
            aborts: self.aborts.saturating_sub(prev.aborts),
            watchdog_resends: self.watchdog_resends.saturating_sub(prev.watchdog_resends),
            skipped_starving: self.skipped_starving.saturating_sub(prev.skipped_starving),
            dropped_high: self.dropped_high.saturating_sub(prev.dropped_high),
            high_latency: self
                .high_latency
                .iter()
                .zip(prev.high_latency.iter())
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

impl Default for SensorTotals {
    fn default() -> Self {
        Self::zero()
    }
}

/// One evaluation window of sensor readings, with the same percentile
/// arithmetic the drained `WindowTotals` used.
#[derive(Clone, Debug)]
pub struct SensorWindow {
    pub high_completed: u64,
    pub low_completed: u64,
    pub aborts: u64,
    pub watchdog_resends: u64,
    pub skipped_starving: u64,
    pub dropped_high: u64,
    high_latency: Vec<u64>,
}

impl SensorWindow {
    /// p99 of this window's high-priority commit latencies (bucket lower
    /// bound; 0 when the window completed nothing).
    pub fn high_p99(&self) -> u64 {
        if self.high_completed == 0 {
            return 0;
        }
        let rank = (0.99 * self.high_completed as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.high_latency.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return buckets::bucket_value(b, buckets::WINDOW_SUB_BITS);
            }
        }
        buckets::bucket_value(self.high_latency.len() - 1, buckets::WINDOW_SUB_BITS)
    }

    /// Largest high-priority latency recorded this window, at bucket
    /// resolution; 0 when no high-priority work completed. The
    /// controller's spike sentinel.
    pub fn high_max(&self) -> u64 {
        self.high_latency
            .iter()
            .rposition(|&c| c > 0)
            .map(|b| buckets::bucket_value(b, buckets::WINDOW_SUB_BITS))
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

struct Inner {
    config: MetricsConfig,
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Fixed gauges as `f64` bit patterns.
    gauges: [AtomicU64; GAUGES],
    /// Derived per-kind SLO burn-rate gauges, refreshed by the sampler
    /// (or once at snapshot time on simulated runs).
    slo_gauges: Mutex<Vec<(String, f64)>>,
    /// Actual bound address of the `/metrics` endpoint, once serving.
    bound_addr: Mutex<Option<SocketAddr>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        crate::registry_closed();
    }
}

/// Handle to a run's metrics registry. Cloning shares the registry; the
/// process-global enabled word counts live registries, so emit sites pay
/// one relaxed load when none exist.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    pub fn new(config: MetricsConfig) -> MetricsRegistry {
        crate::registry_opened();
        MetricsRegistry {
            inner: Arc::new(Inner {
                config,
                shards: Mutex::new(Vec::new()),
                gauges: std::array::from_fn(|_| AtomicU64::new(f64::to_bits(0.0))),
                slo_gauges: Mutex::new(Vec::new()),
                bound_addr: Mutex::new(None),
            }),
        }
    }

    pub fn config(&self) -> &MetricsConfig {
        &self.inner.config
    }

    /// Registers (and returns) a new shard for one writer.
    pub fn register_shard(&self, label: &'static str, index: u32) -> Arc<Shard> {
        let shard = Shard::new(label, index);
        self.attach(&shard);
        shard
    }

    /// Adds a shard its writer already owns to this registry's snapshots,
    /// sensor reads and scrapes. Whatever it has counted so far comes
    /// with it.
    pub fn attach(&self, shard: &Arc<Shard>) {
        self.inner
            .shards
            .lock()
            .expect("metrics shard list poisoned")
            .push(shard.clone());
    }

    pub fn shard_count(&self) -> usize {
        self.inner
            .shards
            .lock()
            .expect("metrics shard list poisoned")
            .len()
    }

    /// Sets a fixed gauge.
    pub fn gauge_set(&self, g: Gauge, value: f64) {
        self.inner.gauges[g as usize].store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn gauge_get(&self, g: Gauge) -> f64 {
        f64::from_bits(self.inner.gauges[g as usize].load(Ordering::Relaxed))
    }

    /// Sum of one counter across all shards.
    pub fn counter_total(&self, c: Counter) -> u64 {
        self.inner
            .shards
            .lock()
            .expect("metrics shard list poisoned")
            .iter()
            .map(|s| s.counter(c))
            .sum()
    }

    /// One-pass cumulative read of the controller's sensor series over
    /// every shard.
    pub fn sensor_totals(&self) -> SensorTotals {
        let shards = self
            .inner
            .shards
            .lock()
            .expect("metrics shard list poisoned");
        SensorTotals::of_shards(shards.iter().map(|s| &**s))
    }

    /// Point-in-time aggregate of every series: shards summed, per-kind
    /// slots merged by name, derived gauges included. Monotonic cells
    /// make this crash-consistent — taking it mid-run never observes a
    /// series going backward.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let shards = self
            .inner
            .shards
            .lock()
            .expect("metrics shard list poisoned");
        let mut snap = MetricsSnapshot::of_shards(shards.iter().map(|s| &**s));
        snap.gauges = Gauge::ALL
            .iter()
            .map(|&g| (g.name().to_string(), self.gauge_get(g)))
            .collect();
        snap.slo_burn = self
            .inner
            .slo_gauges
            .lock()
            .expect("slo gauge list poisoned")
            .clone();
        snap
    }

    /// Recomputes the SLO burn-rate gauges from per-kind latency
    /// histograms. `prev` is the previous sample for a windowed rate;
    /// `None` rates the whole run so far (what simulated runs report).
    pub fn refresh_slo_gauges(&self, prev: Option<&MetricsSnapshot>) {
        let cur = self.snapshot();
        let mut out = Vec::with_capacity(self.inner.config.slos.len());
        for slo in &self.inner.config.slos {
            let burn = match cur.kinds.iter().find(|k| k.name == slo.kind) {
                Some(k) => {
                    let window = match prev.and_then(|p| {
                        p.kinds
                            .iter()
                            .find(|pk| pk.name == slo.kind)
                            .map(|pk| k.latency.delta_since(&pk.latency))
                    }) {
                        Some(w) => w,
                        None => k.latency.clone(),
                    };
                    let total = window.count();
                    if total == 0 {
                        0.0
                    } else {
                        let viol = window.count_above(slo.latency_bound_cycles);
                        let frac = viol as f64 / total as f64;
                        frac / (slo.target_ppm.max(1) as f64 / 1e6)
                    }
                }
                None => 0.0,
            };
            out.push((slo.kind.to_string(), burn));
        }
        *self
            .inner
            .slo_gauges
            .lock()
            .expect("slo gauge list poisoned") = out;
    }

    pub(crate) fn set_bound_addr(&self, addr: SocketAddr) {
        *self
            .inner
            .bound_addr
            .lock()
            .expect("bound addr poisoned") = Some(addr);
    }

    /// Address the `/metrics` endpoint actually bound, once the sampler
    /// thread is up (`None` before that, or when serving is off).
    pub fn bound_addr(&self) -> Option<SocketAddr> {
        *self.inner.bound_addr.lock().expect("bound addr poisoned")
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricsRegistry({} shards)", self.shard_count())
    }
}

/// Point-in-time aggregate of the whole registry.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Fixed counter totals, indexed by `Counter as usize`.
    pub counters: Vec<u64>,
    /// Fixed and derived gauges as `(name, value)` pairs.
    pub gauges: Vec<(String, f64)>,
    /// Derived SLO burn rates as `(kind, burn)` pairs.
    pub slo_burn: Vec<(String, f64)>,
    pub delivery_latency: HistSnapshot,
    pub latch_wait: HistSnapshot,
    /// Every fixed histogram, indexed by `FixedHist as usize` (the two
    /// named fields above are convenience clones of entries 0 and 1).
    pub fixed: Vec<HistSnapshot>,
    /// The controller's 3-bit sensor histogram (high-priority latency).
    pub sensor_high_latency: HistSnapshot,
    pub kinds: Vec<KindSnapshot>,
    /// Number of shards summed into this snapshot.
    pub shards: usize,
}

impl MetricsSnapshot {
    /// Sums `shards` with no registry involved (so no gauges and no SLO
    /// burn rates): how an embedded pool reads its workers' shards.
    pub fn of_shards<'a>(shards: impl IntoIterator<Item = &'a Shard>) -> MetricsSnapshot {
        let mut counters = [0u64; COUNTERS];
        let mut fixed: Vec<HistSnapshot> = (0..FIXED_HISTS)
            .map(|_| HistSnapshot::empty(buckets::FINE_SUB_BITS))
            .collect();
        let mut sensor_high_latency = HistSnapshot::empty(buckets::WINDOW_SUB_BITS);
        let mut kinds: Vec<KindSnapshot> = Vec::new();
        let mut n = 0;
        for s in shards {
            s.add_counters_into(&mut counters);
            for (h, acc) in s.hists.iter().zip(fixed.iter_mut()) {
                h.add_into(acc);
            }
            s.sensor_high_latency.add_into(&mut sensor_high_latency);
            s.add_kinds_into(&mut kinds);
            n += 1;
        }
        kinds.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters: counters.to_vec(),
            gauges: Vec::new(),
            slo_burn: Vec::new(),
            delivery_latency: fixed[FixedHist::DeliveryLatencyCycles as usize].clone(),
            latch_wait: fixed[FixedHist::LatchWaitCycles as usize].clone(),
            fixed,
            sensor_high_latency,
            kinds,
            shards: n,
        }
    }

    /// Total of one fixed counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// One fixed histogram by id.
    pub fn fixed(&self, h: FixedHist) -> &HistSnapshot {
        &self.fixed[h as usize]
    }

    /// Per-kind series by name.
    pub fn kind(&self, name: &str) -> Option<&KindSnapshot> {
        self.kinds.iter().find(|k| k.name == name)
    }

    /// A fixed or derived gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}
