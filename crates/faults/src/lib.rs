//! Deterministic, seed-driven fault injection for the delivery and
//! scheduling stack.
//!
//! A [`FaultPlan`] describes *what* can go wrong (drop / delay /
//! duplicate / spurious interrupt sends, signal-backend errors,
//! dispatch failures, worker stalls, forced transaction aborts) and at
//! what rate, all in parts-per-million. Installing a plan activates a
//! thread-local [`FaultInjector`] that the production code consults at
//! explicit injection points via the `on_*` hooks below.
//!
//! Design constraints:
//!
//! - **Deterministic.** Every injection site draws from its own
//!   SplitMix64 stream seeded from `plan.seed ^ site`, so decisions at
//!   one site never perturb another, and the same plan against the same
//!   (virtual-time) execution produces a byte-identical fault trace.
//! - **Thread-local.** The simulator hosts every virtual core on one OS
//!   thread, so a thread-local injector is exactly scoped to one
//!   simulation and parallel `cargo test` threads cannot contaminate
//!   each other's fault streams. In thread-mode runs only the
//!   installing thread injects faults; delivery hardening is exercised
//!   in the deterministic simulator.
//! - **Zero cost when off.** Each hook first reads a thread-local
//!   `bool`; with no plan installed the hooks are a load and a branch.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;

/// Injection sites, each with an independent random stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultSite {
    /// `UipiSender::send` — the emulated `senduipi` edge.
    UipiSend = 0,
    /// `SignalKicker::kick` — the kernel-mediated signal backend.
    SignalSend = 1,
    /// Scheduler handing a request to a worker queue.
    Dispatch = 2,
    /// A worker passing a preemption point.
    PreemptPoint = 3,
    /// `Transaction::commit` on the MVCC engine.
    TxnCommit = 4,
    /// A worker starting a transaction body — the seeded-panic site.
    TxnPanic = 5,
    /// A worker acquiring a write latch — panic-while-holding-latch.
    /// Index 6 stays vacant (a retired site), so this stream, seeded by
    /// the index, draws what it always drew.
    LatchPanic = 7,
}

const N_SITES: usize = FaultSite::LatchPanic as usize + 1;

impl FaultSite {
    fn name(self) -> &'static str {
        match self {
            FaultSite::UipiSend => "uipi_send",
            FaultSite::SignalSend => "signal_send",
            FaultSite::Dispatch => "dispatch",
            FaultSite::PreemptPoint => "preempt_point",
            FaultSite::TxnCommit => "txn_commit",
            FaultSite::TxnPanic => "txn_panic",
            FaultSite::LatchPanic => "latch_panic",
        }
    }
}

/// Outcome of consulting the injector at an interrupt-send site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendFault {
    /// Deliver normally.
    Deliver,
    /// Silently lose the interrupt (UPID bit set but no notification,
    /// or notification never arrives).
    Drop,
    /// Deliver after an extra delay of this many cycles.
    Delay(u64),
    /// Deliver twice.
    Duplicate,
    /// Deliver the real interrupt plus a spurious one on this vector.
    Spurious(u8),
}

/// Outcome at the signal-backend send site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalFault {
    Deliver,
    /// Swallow the kick: no signal is raised.
    Drop,
    /// Surface a transient send error (as if `pthread_kill` failed).
    Error,
}

/// What can go wrong, and how often, in parts-per-million per event.
///
/// `Copy` so it can ride inside `SimConfig` without ceremony.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for all injection streams. Two runs with the same plan and
    /// the same (virtual-time) execution produce identical fault
    /// traces.
    pub seed: u64,
    /// Drop an interrupt send (uipi or signal backend).
    pub drop_ppm: u32,
    /// Delay an interrupt send by `delay_cycles`.
    pub delay_ppm: u32,
    /// Extra delivery latency applied to delayed sends.
    pub delay_cycles: u64,
    /// Deliver an interrupt send twice.
    pub duplicate_ppm: u32,
    /// Inject a spurious interrupt (random vector) alongside a real one.
    pub spurious_ppm: u32,
    /// Signal backend: report a send error instead of delivering.
    pub send_error_ppm: u32,
    /// Scheduler dispatch: force the enqueue to fail as if the queue
    /// were full.
    pub dispatch_fail_ppm: u32,
    /// Worker stalls this many cycles at a preemption point.
    pub stall_ppm: u32,
    /// Length of an injected stall.
    pub stall_cycles: u64,
    /// Force a transaction abort at commit.
    pub txn_abort_ppm: u32,
    /// Panic inside the transaction body (per transaction start). The
    /// worker's panic firewall must contain it.
    pub txn_panic_ppm: u32,
    /// Panic while holding a write latch (per write-latch acquisition):
    /// exercises latch/active-slot cleanup on the unwind path.
    pub latch_panic_ppm: u32,
    /// Phase gate for `drop_ppm` at the uipi-send site: when nonzero,
    /// drops are only injected while the caller-supplied virtual clock
    /// is below this cycle count (see [`on_uipi_send_at`]). Zero means
    /// "always" — drops apply for the whole run. Lets tests model an
    /// early outage followed by a healthy steady state.
    pub drop_before_cycles: u64,
}

impl FaultPlan {
    /// A plan with every rate at zero: installing it exercises the hook
    /// plumbing without changing behavior.
    pub const fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_ppm: 0,
            delay_ppm: 0,
            delay_cycles: 0,
            duplicate_ppm: 0,
            spurious_ppm: 0,
            send_error_ppm: 0,
            dispatch_fail_ppm: 0,
            stall_ppm: 0,
            stall_cycles: 0,
            txn_abort_ppm: 0,
            txn_panic_ppm: 0,
            latch_panic_ppm: 0,
            drop_before_cycles: 0,
        }
    }

    /// The headline adversarial plan from the robustness experiments:
    /// drops `drop_ppm` of interrupt sends and force-aborts
    /// `txn_abort_ppm` of commits.
    pub const fn lossy(seed: u64, drop_ppm: u32, txn_abort_ppm: u32) -> FaultPlan {
        let mut p = FaultPlan::quiet(seed);
        p.drop_ppm = drop_ppm;
        p.txn_abort_ppm = txn_abort_ppm;
        p
    }

    pub const fn with_drop_ppm(mut self, ppm: u32) -> FaultPlan {
        self.drop_ppm = ppm;
        self
    }

    pub const fn with_delay(mut self, ppm: u32, cycles: u64) -> FaultPlan {
        self.delay_ppm = ppm;
        self.delay_cycles = cycles;
        self
    }

    pub const fn with_duplicate_ppm(mut self, ppm: u32) -> FaultPlan {
        self.duplicate_ppm = ppm;
        self
    }

    pub const fn with_spurious_ppm(mut self, ppm: u32) -> FaultPlan {
        self.spurious_ppm = ppm;
        self
    }

    pub const fn with_send_error_ppm(mut self, ppm: u32) -> FaultPlan {
        self.send_error_ppm = ppm;
        self
    }

    pub const fn with_dispatch_fail_ppm(mut self, ppm: u32) -> FaultPlan {
        self.dispatch_fail_ppm = ppm;
        self
    }

    pub const fn with_stall(mut self, ppm: u32, cycles: u64) -> FaultPlan {
        self.stall_ppm = ppm;
        self.stall_cycles = cycles;
        self
    }

    pub const fn with_txn_abort_ppm(mut self, ppm: u32) -> FaultPlan {
        self.txn_abort_ppm = ppm;
        self
    }

    pub const fn with_txn_panic_ppm(mut self, ppm: u32) -> FaultPlan {
        self.txn_panic_ppm = ppm;
        self
    }

    pub const fn with_latch_panic_ppm(mut self, ppm: u32) -> FaultPlan {
        self.latch_panic_ppm = ppm;
        self
    }

    /// Restrict uipi-send drops to virtual times before `cycles`
    /// (0 = drops apply for the whole run).
    pub const fn with_drop_before(mut self, cycles: u64) -> FaultPlan {
        self.drop_before_cycles = cycles;
        self
    }
}

/// Counters for every injection decision, grouped by site.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub uipi_sends: u64,
    pub uipi_dropped: u64,
    pub uipi_delayed: u64,
    pub uipi_duplicated: u64,
    pub uipi_spurious: u64,
    pub signal_sends: u64,
    pub signal_dropped: u64,
    pub signal_errors: u64,
    pub dispatch_checks: u64,
    pub dispatch_failures: u64,
    pub preempt_points: u64,
    pub stalls_injected: u64,
    pub commit_attempts: u64,
    pub forced_aborts: u64,
    pub txn_starts: u64,
    pub txn_panics: u64,
    pub latch_acquires: u64,
    pub latch_panics: u64,
}

impl FaultStats {
    /// Total faults actually injected (not just sites consulted).
    pub fn total_injected(&self) -> u64 {
        self.uipi_dropped
            + self.uipi_delayed
            + self.uipi_duplicated
            + self.uipi_spurious
            + self.signal_dropped
            + self.signal_errors
            + self.dispatch_failures
            + self.stalls_injected
            + self.forced_aborts
            + self.txn_panics
            + self.latch_panics
    }
}

const PPM_SCALE: u64 = 1_000_000;

/// SplitMix64 step; the streams only need decorrelation, not crypto.
fn splitmix_next(state: &Cell<u64>) -> u64 {
    let s = state.get().wrapping_add(0x9e37_79b9_7f4a_7c15);
    state.set(s);
    let mut z = s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Unbiased-enough uniform draw in `[0, PPM_SCALE)`.
fn draw_ppm(state: &Cell<u64>) -> u64 {
    ((splitmix_next(state) as u128 * PPM_SCALE as u128) >> 64) as u64
}

/// Live injector state for one installed [`FaultPlan`].
pub struct FaultInjector {
    plan: FaultPlan,
    streams: [Cell<u64>; N_SITES],
    stats: RefCell<FaultStats>,
    trace: RefCell<String>,
    seq: Cell<u64>,
}

impl FaultInjector {
    fn new(plan: FaultPlan) -> FaultInjector {
        // Decorrelate site streams by hashing the seed with the site
        // index through one SplitMix64 round each.
        let streams = std::array::from_fn(|site| {
            let s =
                Cell::new(plan.seed ^ (site as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
            splitmix_next(&s);
            s
        });
        FaultInjector {
            plan,
            streams,
            stats: RefCell::new(FaultStats::default()),
            trace: RefCell::new(String::new()),
            seq: Cell::new(0),
        }
    }

    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    pub fn stats(&self) -> FaultStats {
        self.stats.borrow().clone()
    }

    /// The full decision log, one line per injected fault, stable
    /// across reruns of the same plan and execution.
    pub fn trace(&self) -> String {
        self.trace.borrow().clone()
    }

    fn record(&self, site: FaultSite, decision: &str) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let mut t = self.trace.borrow_mut();
        let _ = writeln!(t, "{seq:06} {} {decision}", site.name());
        preempt_metrics::counter_inc(preempt_metrics::Counter::FaultsInjected);
    }

    /// `drop_enabled` phase-gates the drop band without perturbing the
    /// random stream: the draw always happens, so two plans that differ
    /// only in `drop_before_cycles` see identical post-gate decisions.
    fn decide_send(&self, site: FaultSite, drop_enabled: bool) -> SendFault {
        let stream = &self.streams[site as usize];
        let r = draw_ppm(stream);
        let p = &self.plan;
        let mut edge = p.drop_ppm as u64;
        if r < edge {
            if drop_enabled {
                self.record(site, "drop");
                return SendFault::Drop;
            }
            return SendFault::Deliver;
        }
        edge += p.delay_ppm as u64;
        if r < edge {
            self.record(site, "delay");
            return SendFault::Delay(p.delay_cycles);
        }
        edge += p.duplicate_ppm as u64;
        if r < edge {
            self.record(site, "duplicate");
            return SendFault::Duplicate;
        }
        edge += p.spurious_ppm as u64;
        if r < edge {
            let vector = (splitmix_next(stream) % 64) as u8;
            self.record(site, "spurious");
            return SendFault::Spurious(vector);
        }
        SendFault::Deliver
    }

    fn decide_uipi(&self, now: u64) -> SendFault {
        self.stats.borrow_mut().uipi_sends += 1;
        let drop_enabled =
            self.plan.drop_before_cycles == 0 || now < self.plan.drop_before_cycles;
        let fault = self.decide_send(FaultSite::UipiSend, drop_enabled);
        let mut stats = self.stats.borrow_mut();
        match fault {
            SendFault::Deliver => {}
            SendFault::Drop => stats.uipi_dropped += 1,
            SendFault::Delay(_) => stats.uipi_delayed += 1,
            SendFault::Duplicate => stats.uipi_duplicated += 1,
            SendFault::Spurious(_) => stats.uipi_spurious += 1,
        }
        fault
    }

    fn decide_signal(&self) -> SignalFault {
        let mut stats = self.stats.borrow_mut();
        stats.signal_sends += 1;
        drop(stats);
        let stream = &self.streams[FaultSite::SignalSend as usize];
        let r = draw_ppm(stream);
        let p = &self.plan;
        if r < p.drop_ppm as u64 {
            self.record(FaultSite::SignalSend, "drop");
            self.stats.borrow_mut().signal_dropped += 1;
            return SignalFault::Drop;
        }
        if r < p.drop_ppm as u64 + p.send_error_ppm as u64 {
            self.record(FaultSite::SignalSend, "error");
            self.stats.borrow_mut().signal_errors += 1;
            return SignalFault::Error;
        }
        SignalFault::Deliver
    }

    fn decide_dispatch(&self) -> bool {
        self.stats.borrow_mut().dispatch_checks += 1;
        let stream = &self.streams[FaultSite::Dispatch as usize];
        if draw_ppm(stream) < self.plan.dispatch_fail_ppm as u64 {
            self.record(FaultSite::Dispatch, "fail");
            self.stats.borrow_mut().dispatch_failures += 1;
            return true;
        }
        false
    }

    fn decide_stall(&self) -> Option<u64> {
        self.stats.borrow_mut().preempt_points += 1;
        let stream = &self.streams[FaultSite::PreemptPoint as usize];
        if draw_ppm(stream) < self.plan.stall_ppm as u64 {
            self.record(FaultSite::PreemptPoint, "stall");
            self.stats.borrow_mut().stalls_injected += 1;
            return Some(self.plan.stall_cycles);
        }
        None
    }

    fn decide_txn_abort(&self) -> bool {
        self.stats.borrow_mut().commit_attempts += 1;
        let stream = &self.streams[FaultSite::TxnCommit as usize];
        if draw_ppm(stream) < self.plan.txn_abort_ppm as u64 {
            self.record(FaultSite::TxnCommit, "abort");
            self.stats.borrow_mut().forced_aborts += 1;
            return true;
        }
        false
    }

    fn decide_txn_panic(&self) -> bool {
        self.stats.borrow_mut().txn_starts += 1;
        let stream = &self.streams[FaultSite::TxnPanic as usize];
        if draw_ppm(stream) < self.plan.txn_panic_ppm as u64 {
            self.record(FaultSite::TxnPanic, "panic");
            self.stats.borrow_mut().txn_panics += 1;
            return true;
        }
        false
    }

    fn decide_latch_panic(&self) -> bool {
        self.stats.borrow_mut().latch_acquires += 1;
        let stream = &self.streams[FaultSite::LatchPanic as usize];
        // The draw happens even when masked, so the stream's later
        // decisions do not shift.
        let fire = draw_ppm(stream) < self.plan.latch_panic_ppm as u64;
        if fire && !LATCH_PANICS_MASKED.with(Cell::get) {
            self.record(FaultSite::LatchPanic, "panic");
            self.stats.borrow_mut().latch_panics += 1;
            return true;
        }
        false
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static LATCH_PANICS_MASKED: Cell<bool> = const { Cell::new(false) };
    static INJECTOR: RefCell<Option<Rc<FaultInjector>>> = const { RefCell::new(None) };
}

/// Installs `plan` on the current thread for the guard's lifetime.
/// Nested installs stack: dropping the guard restores the previous
/// injector.
pub fn install(plan: FaultPlan) -> InjectorGuard {
    let injector = Rc::new(FaultInjector::new(plan));
    let prev = INJECTOR.with(|slot| slot.borrow_mut().replace(injector.clone()));
    ACTIVE.with(|a| a.set(true));
    InjectorGuard { prev, injector }
}

/// RAII handle for an installed plan; exposes stats and the trace.
pub struct InjectorGuard {
    prev: Option<Rc<FaultInjector>>,
    injector: Rc<FaultInjector>,
}

impl InjectorGuard {
    pub fn stats(&self) -> FaultStats {
        self.injector.stats()
    }

    pub fn trace(&self) -> String {
        self.injector.trace()
    }

    pub fn plan(&self) -> FaultPlan {
        self.injector.plan()
    }
}

impl Drop for InjectorGuard {
    fn drop(&mut self) {
        let restored = self.prev.take();
        ACTIVE.with(|a| a.set(restored.is_some()));
        INJECTOR.with(|slot| *slot.borrow_mut() = restored);
    }
}

#[inline]
fn with_injector<R>(f: impl FnOnce(&FaultInjector) -> R) -> Option<R> {
    if !ACTIVE.with(|a| a.get()) {
        return None;
    }
    INJECTOR.with(|slot| slot.borrow().as_ref().map(|inj| f(inj)))
}

/// True when a plan is installed on this thread.
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Hook for `UipiSender::send`-class sites. Callers that do not track a
/// virtual clock pass through here; the drop phase gate then treats the
/// run as permanently in the "before" phase (`now = 0`), which matches
/// the historical always-drop behavior.
#[inline]
pub fn on_uipi_send() -> SendFault {
    on_uipi_send_at(0)
}

/// Clock-aware variant of [`on_uipi_send`]: `now` is the caller's
/// virtual-time cycle count, consulted by `FaultPlan::drop_before_cycles`
/// to phase-gate drop injection. The faults crate deliberately has no
/// clock of its own — determinism requires the caller's notion of time.
#[inline]
pub fn on_uipi_send_at(now: u64) -> SendFault {
    with_injector(|inj| inj.decide_uipi(now)).unwrap_or(SendFault::Deliver)
}

/// Hook for the signal-backend kick path.
#[inline]
pub fn on_signal_send() -> SignalFault {
    with_injector(|inj| inj.decide_signal()).unwrap_or(SignalFault::Deliver)
}

/// Hook for scheduler dispatch; `true` means "force this enqueue to
/// fail as if the worker queue were full".
#[inline]
pub fn on_dispatch() -> bool {
    with_injector(|inj| inj.decide_dispatch()).unwrap_or(false)
}

/// Hook for worker preemption points; `Some(cycles)` asks the worker to
/// burn that many cycles before continuing.
#[inline]
pub fn on_preempt_point() -> Option<u64> {
    with_injector(|inj| inj.decide_stall()).flatten()
}

/// Hook for `Transaction::commit`; `true` forces the commit to abort.
#[inline]
pub fn on_txn_commit() -> bool {
    with_injector(|inj| inj.decide_txn_abort()).unwrap_or(false)
}

/// Hook for a worker starting a transaction body; `true` asks the
/// worker to panic inside the transaction (the firewall must contain
/// it and turn it into a typed abort).
#[inline]
pub fn on_txn_start() -> bool {
    with_injector(|inj| inj.decide_txn_panic()).unwrap_or(false)
}

/// Hook for write-latch acquisition; `true` asks the caller to panic
/// while the latch is held (cleanup-on-unwind coverage).
#[inline]
pub fn on_latch_acquire() -> bool {
    with_injector(|inj| inj.decide_latch_panic()).unwrap_or(false)
}

/// Runs `f` with write-latch panics held back on this thread: the latch
/// site still draws from its stream, so every later decision is the one
/// it would have been, but a draw that would inject a panic does not.
/// For cleanup that must run to the end, such as an abort unlinking its
/// pending versions (a panic halfway would strand the rest).
pub fn without_latch_panics<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            LATCH_PANICS_MASKED.with(|m| m.set(self.0));
        }
    }
    let _restore = Restore(LATCH_PANICS_MASKED.with(|m| m.replace(true)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_plan(plan: FaultPlan, events: usize) -> (FaultStats, String) {
        let guard = install(plan);
        for _ in 0..events {
            let _ = on_uipi_send();
            let _ = on_signal_send();
            let _ = on_dispatch();
            let _ = on_preempt_point();
            let _ = on_txn_commit();
            let _ = on_txn_start();
            let _ = on_latch_acquire();
        }
        (guard.stats(), guard.trace())
    }

    #[test]
    fn masked_latch_panics_still_draw() {
        let plan = FaultPlan::quiet(7).with_latch_panic_ppm(500_000);
        let decide = |mask: bool| {
            let _guard = install(plan);
            (0..64)
                .map(|i| {
                    if mask && i % 2 == 0 {
                        without_latch_panics(on_latch_acquire)
                    } else {
                        on_latch_acquire()
                    }
                })
                .collect::<Vec<bool>>()
        };
        let (all, masked) = (decide(false), decide(true));
        assert!(all.iter().step_by(2).any(|&fired| fired), "the plan fires");
        for (i, (a, m)) in all.iter().zip(&masked).enumerate() {
            assert_eq!(*m, *a && i % 2 == 1, "decision {i}");
        }
    }

    #[test]
    fn hooks_are_noops_without_plan() {
        assert!(!enabled());
        assert_eq!(on_uipi_send(), SendFault::Deliver);
        assert_eq!(on_signal_send(), SignalFault::Deliver);
        assert!(!on_dispatch());
        assert_eq!(on_preempt_point(), None);
        assert!(!on_txn_commit());
        assert!(!on_txn_start());
        assert!(!on_latch_acquire());
    }

    #[test]
    fn quiet_plan_counts_but_never_injects() {
        let (stats, trace) = run_plan(FaultPlan::quiet(7), 500);
        assert_eq!(stats.uipi_sends, 500);
        assert_eq!(stats.commit_attempts, 500);
        assert_eq!(stats.total_injected(), 0);
        assert!(trace.is_empty());
    }

    #[test]
    fn rates_land_near_target() {
        let plan = FaultPlan::quiet(42)
            .with_drop_ppm(200_000)
            .with_txn_abort_ppm(50_000);
        let (stats, _) = run_plan(plan, 20_000);
        // 20% drop rate: expect ~4000 of 20000, allow wide slack.
        assert!(
            (3_200..=4_800).contains(&stats.uipi_dropped),
            "uipi_dropped = {}",
            stats.uipi_dropped
        );
        // 5% forced aborts: expect ~1000.
        assert!(
            (700..=1_300).contains(&stats.forced_aborts),
            "forced_aborts = {}",
            stats.forced_aborts
        );
    }

    #[test]
    fn same_seed_same_trace_and_stats() {
        let plan = FaultPlan::lossy(99, 150_000, 30_000)
            .with_delay(50_000, 10_000)
            .with_duplicate_ppm(20_000)
            .with_spurious_ppm(10_000)
            .with_dispatch_fail_ppm(40_000)
            .with_stall(25_000, 5_000)
            .with_txn_panic_ppm(15_000)
            .with_latch_panic_ppm(12_000);
        let (s1, t1) = run_plan(plan, 5_000);
        let (s2, t2) = run_plan(plan, 5_000);
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
        assert!(!t1.is_empty());
        let other = FaultPlan { seed: 100, ..plan };
        let (s3, t3) = run_plan(other, 5_000);
        assert_ne!(t1, t3);
        assert_ne!(s1, s3);
    }

    #[test]
    fn guards_nest_and_restore() {
        assert!(!enabled());
        let outer = install(FaultPlan::quiet(1));
        assert!(enabled());
        let _ = on_uipi_send();
        {
            let inner = install(FaultPlan::quiet(2).with_drop_ppm(PPM_SCALE as u32));
            assert_eq!(on_uipi_send(), SendFault::Drop);
            assert_eq!(inner.stats().uipi_dropped, 1);
        }
        // Outer plan restored; it saw exactly one send.
        assert!(enabled());
        let _ = on_uipi_send();
        assert_eq!(outer.stats().uipi_sends, 2);
        drop(outer);
        assert!(!enabled());
    }

    #[test]
    fn delay_and_spurious_carry_payloads() {
        let plan = FaultPlan::quiet(3).with_delay(PPM_SCALE as u32, 12_345);
        let guard = install(plan);
        assert_eq!(on_uipi_send(), SendFault::Delay(12_345));
        drop(guard);

        let plan = FaultPlan::quiet(4).with_spurious_ppm(PPM_SCALE as u32);
        let _guard = install(plan);
        match on_uipi_send() {
            SendFault::Spurious(v) => assert!(v < 64),
            other => panic!("expected spurious, got {other:?}"),
        }
    }

    #[test]
    fn drop_before_gates_drops_by_virtual_time() {
        let plan = FaultPlan::quiet(11)
            .with_drop_ppm(PPM_SCALE as u32)
            .with_drop_before(10_000);
        let guard = install(plan);
        // Inside the outage window every send is dropped.
        assert_eq!(on_uipi_send_at(0), SendFault::Drop);
        assert_eq!(on_uipi_send_at(9_999), SendFault::Drop);
        // At and past the boundary the gate closes and sends deliver.
        assert_eq!(on_uipi_send_at(10_000), SendFault::Deliver);
        assert_eq!(on_uipi_send_at(1 << 40), SendFault::Deliver);
        let stats = guard.stats();
        assert_eq!(stats.uipi_sends, 4);
        assert_eq!(stats.uipi_dropped, 2);
        drop(guard);

        // Legacy zero-arg hook == permanently in the outage phase.
        let _guard = install(plan);
        assert_eq!(on_uipi_send(), SendFault::Drop);
    }

    #[test]
    fn drop_before_zero_means_always() {
        let plan = FaultPlan::quiet(12).with_drop_ppm(PPM_SCALE as u32);
        assert_eq!(plan.drop_before_cycles, 0);
        let _guard = install(plan);
        assert_eq!(on_uipi_send_at(u64::MAX), SendFault::Drop);
    }

    #[test]
    fn worker_fault_sites_draw_independent_streams() {
        // Raising a worker-fault rate must not change the decisions at
        // the pre-existing sites: each site owns its own stream.
        let base = FaultPlan::quiet(21)
            .with_drop_ppm(200_000)
            .with_txn_abort_ppm(100_000);
        let chaotic = base
            .with_txn_panic_ppm(500_000)
            .with_latch_panic_ppm(400_000);
        let (s1, _) = run_plan(base, 4_000);
        let (s2, _) = run_plan(chaotic, 4_000);
        assert_eq!(s1.uipi_dropped, s2.uipi_dropped);
        assert_eq!(s1.forced_aborts, s2.forced_aborts);
        assert_eq!(s1.txn_panics, 0);
        assert!(s2.txn_panics > 0, "txn panics injected");
        assert!(s2.latch_panics > 0, "latch panics injected");
    }

    #[test]
    fn phase_gate_does_not_perturb_the_stream() {
        // Same seed, same events; one plan gates drops off after t=0.
        // Non-drop decisions (delay/duplicate) must land on the same
        // events in both runs — the gate suppresses, never reshuffles.
        let base = FaultPlan::quiet(13)
            .with_drop_ppm(300_000)
            .with_delay(200_000, 777)
            .with_duplicate_ppm(100_000);
        let gated = base.with_drop_before(1);

        let run = |plan: FaultPlan| -> Vec<SendFault> {
            let _guard = install(plan);
            (0..2_000).map(|_| on_uipi_send_at(5)).collect()
        };
        let a = run(base);
        let b = run(gated);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            match x {
                SendFault::Drop => assert_eq!(*y, SendFault::Deliver),
                other => assert_eq!(y, other),
            }
        }
        assert!(a.contains(&SendFault::Drop));
        assert!(a.iter().any(|f| matches!(f, SendFault::Delay(_))));
    }
}
