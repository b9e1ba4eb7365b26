//! The scheduler plane (paper §4.1, §5, DESIGN.md §13): the one place
//! that hands requests to workers, sends the user interrupts, applies
//! starvation decision site 1 and watches delivery, in two steps —
//! [`Plane::dispatch`], which any number of threads may call at once
//! without a lock, and [`Plane::housekeep`].
//!
//! `sched::run`'s scheduling thread places each arrival's batch, notifies
//! every worker it reached once, and housekeeps once per loop. An
//! embedded `preemptdb::Database` dispatches on the submitting thread
//! and housekeeps on a thread of its own ([`Plane::spawn_housekeeper`]).
//!
//! Housekeeping is the same under both drivers: the delivery watchdog
//! (with its stranded-queue re-send), degradation and the controller. It
//! never stops or replaces a worker: a worker that stops acknowledging
//! is re-sent to, with backoff, for as long as its queue holds work.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;
use preempt_metrics::{Counter, Gauge, MetricsRegistry, SensorTotals, Shard};
use preempt_uintr::UipiSender;

use crate::clock::now_cycles;
use crate::controller::{Controller, ControllerReport, Decision, SensorSnapshot};
use crate::policy::STARVATION_DISABLED;
use crate::request::Request;
use crate::scheduler::DriverConfig;
use crate::worker::{WakeTarget, WorkerShared};

/// Cycles the scheduler spends pushing one request (modeling §4.1's
/// dispatch work in virtual time).
pub(crate) const DISPATCH_PUSH_COST: u64 = 250;

/// Cycles (≈ 20 ms at 2.4 GHz) a worker's top queue may hold work with
/// every delivery acknowledged before the watchdog sends it one more
/// interrupt. Nothing else would: sends ride on fresh enqueues, and a
/// full queue admits none. A worker that declined an interrupt because
/// its paused low transaction was starving, and then serves a steady
/// low stream on its regular path, leaves its high queue there.
pub const STRANDED_AFTER: u64 = 48_000_000;

/// Rolling send/failure window for graceful-degradation decisions.
///
/// The failure rate is evaluated once per `eval_interval` cycles and the
/// counters are then **reset**, so the rate always describes the most
/// recent window rather than the whole run. A window with fewer than
/// `min_sends` sends is too small to trust (one unlucky re-send would
/// read as a huge rate); its counters are *halved* instead of evaluated,
/// so a stale sub-threshold burst fades away rather than lingering until
/// enough sends eventually arrive to be judged against. Dispatchers
/// count concurrently; the housekeeper subtracts what it read rather
/// than storing zero, so a send counted meanwhile lands in the next
/// window.
#[derive(Debug)]
struct DegradeWindow {
    sends: AtomicU64,
    failures: AtomicU64,
    window_start: AtomicU64,
    /// When the last send failed or needed a watchdog re-send.
    last_failure: AtomicU64,
    eval_interval: u64,
    min_sends: u64,
}

impl DegradeWindow {
    fn new(now: u64, eval_interval: u64, min_sends: u64) -> DegradeWindow {
        DegradeWindow {
            sends: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            window_start: AtomicU64::new(now),
            last_failure: AtomicU64::new(now),
            eval_interval: eval_interval.max(1),
            min_sends: min_sends.max(1),
        }
    }

    fn send_ok(&self) {
        self.sends.fetch_add(1, Ordering::Relaxed);
    }

    fn send_failed(&self, at: u64) {
        self.sends.fetch_add(1, Ordering::Relaxed);
        self.failures.fetch_add(1, Ordering::Relaxed);
        self.last_failure.store(at, Ordering::Relaxed);
    }

    fn quiet_for(&self, now: u64) -> u64 {
        now.saturating_sub(self.last_failure.load(Ordering::Relaxed))
    }

    /// `Some(failure_rate_ppm)` when a window closed with enough sends.
    fn evaluate(&self, now: u64) -> Option<u64> {
        if now.saturating_sub(self.window_start.load(Ordering::Relaxed)) < self.eval_interval {
            return None;
        }
        self.window_start.store(now, Ordering::Relaxed);
        let sends = self.sends.load(Ordering::Relaxed);
        let failures = self.failures.load(Ordering::Relaxed);
        let trusted = sends >= self.min_sends;
        let take =
            |c: &AtomicU64, v| c.fetch_sub(if trusted { v } else { v - v / 2 }, Ordering::Relaxed);
        take(&self.sends, sends);
        take(&self.failures, failures);
        trusted.then(|| failures.saturating_mul(1_000_000) / sends)
    }

    /// Forgets all history (used when re-arming after an upgrade: the
    /// degraded stretch's counters say nothing about the new regime).
    fn reset(&self, now: u64) {
        self.sends.store(0, Ordering::Relaxed);
        self.failures.store(0, Ordering::Relaxed);
        self.window_start.store(now, Ordering::Relaxed);
    }
}

/// How the plane reaches a worker, captured once so a send clones no
/// `Arc`.
struct Route {
    senders: Box<[UipiSender]>,
    wake: WakeTarget,
}

/// What only the housekeeper touches.
struct Housekeeping {
    degraded: bool,
    /// `last_notify[i]` as of the last pass, so a fresh send is noticed.
    seen_notify: Vec<u64>,
    /// Worker i's delivery epoch after the last pass or the
    /// housekeeper's own last send: a pool's dispatches leave no stamp,
    /// and the epoch they bump is how a pass notices them.
    seen_epoch: Vec<u64>,
    wd_backoff: Vec<u64>,
    wd_next: Vec<u64>,
    /// Since when worker i has been *stranded*: top queue non-empty but
    /// every delivery acknowledged. After [`STRANDED_AFTER`] the
    /// watchdog re-sends.
    calm_since: Vec<Option<u64>>,
    controller: Option<Controller>,
    /// The sensor totals at the previous controller window.
    ctl_prev: SensorTotals,
}

/// One shard of the scheduler plane: the workers it dispatches to and
/// watches.
pub struct Plane {
    cfg: DriverConfig,
    shard_idx: usize,
    /// This plane's workers; a worker's index here is its `wi`.
    workers: Vec<Arc<WorkerShared>>,
    /// Every worker of the run, by id: shootdown targets.
    all: Vec<Arc<WorkerShared>>,
    shard: Arc<Shard>,
    /// Where gauges go, if anywhere.
    registry: Option<MetricsRegistry>,
    /// Under the simulator, the only place fault plans and virtual-time
    /// charges exist: a pool consults neither.
    simulated: bool,
    rr: AtomicUsize,
    /// The workers' last armed starvation threshold (f64 bits).
    threshold: AtomicU64,
    /// `routes[id]`: worker `id`'s route, captured on first use (see
    /// [`route`](Self::route)).
    routes: Box<[OnceLock<Route>]>,
    /// When `sched::run` last interrupted each worker (a pool's
    /// dispatches leave this alone; see `Housekeeping::seen_epoch`).
    last_notify: Box<[AtomicU64]>,
    window: DegradeWindow,
    /// One pass at a time; never poisoned (under the simulator a worker
    /// core's panic can be unwinding meanwhile).
    housekeeping: Mutex<Housekeeping>,
}

impl Plane {
    /// A plane over `workers` (a contiguous slice of `all`, whose worker
    /// ids are their indices) counting into `shard`. Arms every worker's
    /// starvation threshold from the policy and, on threads, waits for
    /// every worker to publish its descriptor; its windows start then.
    pub fn new(
        cfg: &DriverConfig,
        shard_idx: usize,
        workers: &[Arc<WorkerShared>],
        all: &[Arc<WorkerShared>],
        shard: Arc<Shard>,
        registry: Option<MetricsRegistry>,
    ) -> Plane {
        assert!(!workers.is_empty(), "a plane needs a worker");
        assert!(all.iter().enumerate().all(|(i, w)| w.id == i), "worker ids are their indices");
        while !preempt_sim::api::active() && workers.iter().any(|w| w.upid().is_none()) {
            std::thread::yield_now();
        }
        let start = now_cycles();
        let rb = cfg.robustness;
        // The adaptive controller re-writes the live cells per window.
        let threshold = cfg.policy.starvation_threshold();
        if let Some(l0) = threshold {
            for w in workers {
                w.starvation.set_threshold(l0);
            }
            if let Some(r) = &registry {
                r.gauge_set(Gauge::StarvationThreshold, l0);
            }
        }
        let n = workers.len();
        let backoff = rb.watchdog_backoff_min.max(1);
        let plane = Plane {
            cfg: cfg.clone(),
            shard_idx,
            workers: workers.to_vec(),
            all: all.to_vec(),
            shard,
            registry,
            simulated: preempt_sim::api::active(),
            rr: AtomicUsize::new(0),
            threshold: AtomicU64::new(threshold.unwrap_or(STARVATION_DISABLED).to_bits()),
            routes: all.iter().map(|_| OnceLock::new()).collect(),
            last_notify: (0..n).map(|_| AtomicU64::new(0)).collect(),
            window: DegradeWindow::new(start, rb.degrade_eval_interval, rb.degrade_window),
            housekeeping: Mutex::new(Housekeeping {
                degraded: false,
                seen_notify: vec![0; n],
                seen_epoch: vec![0; n],
                wd_backoff: vec![backoff; n],
                wd_next: vec![0; n],
                calm_since: vec![None; n],
                controller: cfg.policy.controller_config().map(|cc| Controller::new(cc, start)),
                ctl_prev: SensorTotals::zero(),
            }),
        };
        // The first dispatch to each worker need not capture its route.
        for w in workers {
            plane.route(w);
        }
        plane
    }

    pub fn workers(&self) -> &[Arc<WorkerShared>] {
        &self.workers
    }

    pub fn shard(&self) -> &Arc<Shard> {
        &self.shard
    }

    // ---- dispatch ----

    /// Starts fetching what the next dispatch at `level` writes (the
    /// target's queue cell and, for an interrupt, its descriptor's post
    /// line with the delivery epoch), so the caller can build the
    /// request meanwhile.
    pub fn prefetch(&self, level: u8) {
        let w = &self.workers[self.rr.load(Ordering::Relaxed) % self.workers.len()];
        w.queues[level as usize].prefetch_push();
        if level > 0 {
            if let Some(route) = self.routes[w.id].get() {
                route.senders[level as usize].prefetch();
            }
        }
    }

    /// Dispatches `req` at `level` and notifies its worker. Hands the
    /// request back when every worker's queue is full or (above level 0)
    /// its worker is starving.
    #[allow(clippy::result_large_err, reason = "a full queue hands the request back unboxed")]
    pub fn dispatch(&self, req: Request, level: u8) -> Result<(), Request> {
        // The request's stamp stands in for the send time (the watchdog's
        // backoff base): it saves a clock read per request.
        let at = req.created_at;
        let wi = self.place(req, level, &mut self.workers.len())?;
        self.send(wi, level, true, at);
        Ok(())
    }

    /// Offers `req` to at most `*slots` workers in round-robin order,
    /// spending a slot per worker tried, and returns the index of the one
    /// whose `level` queue took it. Above level 0 it skips starving
    /// workers (starvation decision site 1, §5).
    #[allow(clippy::result_large_err, reason = "a full queue hands the request back unboxed")]
    pub(crate) fn place(
        &self,
        mut req: Request,
        level: u8,
        slots: &mut usize,
    ) -> Result<usize, Request> {
        let n = self.workers.len();
        while *slots > 0 {
            *slots -= 1;
            let wi = self.rr.fetch_add(1, Ordering::Relaxed) % n;
            let w = &self.workers[wi];
            if level > 0 && self.starving(w) {
                preempt_trace::emit(preempt_trace::TraceEvent::StarvationBoost { site: 1 });
                self.shard.bump(Counter::StarvationSkips);
                continue;
            }
            // Fault injection: a failed enqueue; the request stays with
            // the caller for the next worker.
            if self.simulated && preempt_faults::on_dispatch() {
                self.shard.bump(Counter::DispatchFaults);
                self.charge_push();
                continue;
            }
            match w.queues[level as usize].push(req) {
                Ok(()) => {
                    let admitted = [Counter::TxnAdmittedLow, Counter::TxnAdmittedHigh];
                    self.shard.bump(admitted[usize::from(level > 0)]);
                    self.charge_push();
                    return Ok(wi);
                }
                Err(back) => req = back,
            }
        }
        Err(req)
    }

    fn charge_push(&self) {
        if self.simulated {
            preempt_sim::api::advance(DISPATCH_PUSH_COST);
        }
    }

    /// Starvation decision site 1 against the worker's live threshold.
    /// A level is a share of elapsed cycles, so a threshold above 1 can
    /// never trip and the worker's line is not read. (At exactly 1 it is:
    /// the simulator's per-core clocks can put a level a hair above 1.)
    fn starving(&self, w: &WorkerShared) -> bool {
        self.cfg.policy.is_preemptive()
            && f64::from_bits(self.threshold.load(Ordering::Relaxed)) <= 1.0
            && w.starvation.starving_live(now_cycles())
    }

    /// Notifies worker `wi` after a placement at `level` (`kicked`), as
    /// [`send`](Self::send) does, and stamps an interrupt's send time:
    /// the watchdog's first re-send is due `watchdog_backoff_min` after
    /// it. `sched::run`'s path.
    pub(crate) fn notify(&self, wi: usize, level: u8, kicked: bool, now: u64) {
        if self.send(wi, level, kicked, now) {
            self.last_notify[wi].store(now, Ordering::Relaxed);
        }
    }

    /// Notifies worker `wi` after a placement at `level` (`kicked`): a
    /// user interrupt under an interrupting policy that is not degraded
    /// (also unkicked when the driver interrupts every worker every batch,
    /// Figure 8's overhead mode), a plain wake-up otherwise. `now` is the
    /// send time the degradation window counts from. `true` when an
    /// interrupt went out.
    fn send(&self, wi: usize, level: u8, kicked: bool, now: u64) -> bool {
        let w = &self.workers[wi];
        let interrupt = level > 0
            && self.cfg.policy.sends_uintr()
            && !w.degraded.load(Ordering::Acquire)
            && (kicked || self.cfg.always_interrupt);
        if interrupt {
            if self.interrupt(w, level) {
                self.shard.bump(Counter::UintrSent);
                self.window.send_ok();
                return true;
            }
            self.shard.bump(Counter::UintrSendFailed);
            self.shard.bump(Counter::DeliveryErrors);
            self.window.send_failed(now);
            // Don't strand the work behind the failed interrupt.
            w.wake();
        } else if kicked {
            match self.route(w) {
                Some(route) => route.wake.wake(),
                None => w.wake(),
            }
        }
        false
    }

    /// The route to `w`, captured on first use after it published its
    /// descriptor.
    fn route(&self, w: &WorkerShared) -> Option<&Route> {
        let slot = &self.routes[w.id];
        if slot.get().is_none() {
            let (upid, wake) = (w.upid()?, w.wake_target()?);
            let senders = (0..w.levels()).map(|l| UipiSender::new(upid.clone(), l)).collect();
            // A racing dispatcher's capture is the same route.
            let _ = slot.set(Route { senders, wake });
        }
        slot.get()
    }

    /// The one send path: a user interrupt to `w` at `level`. `false`
    /// when the worker has no descriptor yet or the receiver is gone.
    fn interrupt(&self, w: &WorkerShared, level: u8) -> bool {
        let Some(route) = self.route(w) else {
            return false;
        };
        // Bump the epoch before posting, on the line the post writes: an
        // ack ≥ this value proves this (or a later) interrupt reached the
        // handler.
        let sender = &route.senders[level as usize];
        sender.upid().bump_epoch();
        match &route.wake {
            WakeTarget::Sim(core) => {
                preempt_sim::SimUipiSender::new(sender.upid().clone(), level, *core).send();
                true
            }
            WakeTarget::Thread(t) => {
                let ok = sender.send();
                t.unpark();
                ok
            }
        }
    }

    /// Cross-shard shootdown: moves as much of a wedged shard's
    /// high-priority remainder as fits onto foreign workers' top queues,
    /// kicking each with a user interrupt so the starved work runs ahead
    /// of the target's low-priority stream. The epoch bump is benign for
    /// the foreign shard's watchdog: the interrupt is an idempotent
    /// "drain your top queue" nudge, and the target acks the fresher
    /// epoch exactly as it would for its own plane's sends.
    pub(crate) fn shootdown(&self, pending: &mut VecDeque<Request>) {
        let level = self.cfg.levels() - 1;
        let is_local = |id: usize| self.workers.iter().any(|w| w.id == id);
        let now = now_cycles();
        'requests: while let Some(r) = pending.pop_front() {
            let mut r = Some(r);
            for w in &self.all {
                // Starvation decision site 1 applies to foreign targets too.
                if is_local(w.id)
                    || w.is_stopped()
                    || (self.cfg.policy.is_preemptive() && w.starvation.starving_live(now))
                {
                    continue;
                }
                let req = r.take().expect("request is present until pushed");
                match w.queues[level as usize].push(req) {
                    Ok(()) => {
                        self.charge_push();
                        self.shard.bump(Counter::Shootdowns);
                        self.shard.bump(Counter::TxnAdmittedHigh);
                        preempt_trace::emit(preempt_trace::TraceEvent::Shootdown {
                            from_shard: self.shard_idx as u16,
                            worker: w.id as u16,
                        });
                        if self.cfg.policy.sends_uintr() && self.interrupt(w, level) {
                            self.shard.bump(Counter::UintrSent);
                        } else {
                            w.wake();
                        }
                        continue 'requests;
                    }
                    Err(back) => r = Some(back),
                }
            }
            // No foreign worker could take it; the rest would hit the same
            // full queues.
            if let Some(back) = r {
                pending.push_front(back);
            }
            return;
        }
    }

    // ---- housekeeping ----

    /// One housekeeping pass of a bounded run: the delivery watchdog,
    /// degradation and the controller window, in that order. Returns the
    /// earliest cycle a re-send or controller window is due (`u64::MAX`
    /// if none).
    pub fn housekeep(&self) -> u64 {
        self.pass(false)
    }

    /// [`housekeep`](Self::housekeep); `pool` is a pool's pass, which
    /// notices fresh sends by the epoch rather than a stamp.
    fn pass(&self, pool: bool) -> u64 {
        let mut hk = self.housekeeping.lock();
        let hk = &mut *hk;
        let rb = self.cfg.robustness;
        let top = self.cfg.levels() - 1;
        let min_backoff = rb.watchdog_backoff_min.max(1);

        for (i, sent) in self.last_notify.iter().enumerate() {
            let at = sent.load(Ordering::Relaxed);
            if at != hk.seen_notify[i] {
                hk.seen_notify[i] = at;
                hk.wd_backoff[i] = min_backoff;
                hk.wd_next[i] = at + min_backoff;
            }
        }
        if pool {
            let pnow = now_cycles();
            for (i, w) in self.workers.iter().enumerate() {
                let epoch = w.delivery_epoch();
                if epoch != hk.seen_epoch[i] {
                    hk.seen_epoch[i] = epoch;
                    hk.wd_backoff[i] = min_backoff;
                    hk.wd_next[i] = pnow + min_backoff;
                }
            }
        }

        // Delivery watchdog: an unacknowledged epoch with high-priority
        // work still queued means the interrupt was lost; re-send it,
        // backing off exponentially per worker.
        let mut wd_earliest = u64::MAX;
        if self.cfg.policy.sends_uintr() && rb.watchdog && !hk.degraded {
            let wnow = now_cycles();
            for (i, w) in self.workers.iter().enumerate() {
                let epoch = w.delivery_epoch();
                let ack = w.uintr_ack.load(Ordering::Acquire);
                if epoch > ack && !w.queues[top as usize].is_empty() {
                    if wnow >= hk.wd_next[i] {
                        preempt_trace::emit(preempt_trace::TraceEvent::WatchdogResend {
                            target: w.id as u16,
                        });
                        if self.interrupt(w, top) {
                            self.shard.bump(Counter::UintrSent);
                        }
                        hk.seen_epoch[i] = w.delivery_epoch();
                        self.shard.bump(Counter::WatchdogResends);
                        self.window.send_failed(wnow);
                        hk.wd_backoff[i] =
                            hk.wd_backoff[i].saturating_mul(2).min(rb.watchdog_backoff_max);
                        hk.wd_next[i] = wnow + hk.wd_backoff[i];
                    }
                    wd_earliest = wd_earliest.min(hk.wd_next[i]);
                } else {
                    hk.wd_backoff[i] = min_backoff;
                }
            }
        }

        // Stranded re-send: top-priority work queued while every
        // delivery is acknowledged has nothing left to bump the epoch, so
        // after `STRANDED_AFTER` of it the watchdog sends once more. The
        // worker acks and drains, or, still declining, is sent to again a
        // window later. Outside the re-send gates above: it is the one
        // rule that reaches a worker however delivery is faring.
        let mut stranded_earliest = u64::MAX;
        if self.cfg.policy.sends_uintr() {
            let snow = now_cycles();
            for (i, w) in self.workers.iter().enumerate() {
                let stranded = !w.queues[top as usize].is_empty()
                    && w.delivery_epoch() == w.uintr_ack.load(Ordering::Acquire);
                if !stranded {
                    hk.calm_since[i] = None;
                    continue;
                }
                let since = *hk.calm_since[i].get_or_insert(snow);
                if snow.saturating_sub(since) >= STRANDED_AFTER {
                    hk.calm_since[i] = None;
                    if self.interrupt(w, top) {
                        self.shard.bump(Counter::UintrSent);
                    }
                    hk.seen_epoch[i] = w.delivery_epoch();
                } else {
                    stranded_earliest = stranded_earliest.min(since + STRANDED_AFTER);
                }
            }
        }

        // Graceful degradation: too many failures in the rolling window
        // stop the interrupts (wakes and worker-side cooperative checks
        // instead); a failure-free quiet period re-arms them.
        let dnow = now_cycles();
        if !hk.degraded {
            if let Some(rate_ppm) = self.window.evaluate(dnow) {
                if rate_ppm >= rb.degrade_threshold_ppm as u64 {
                    hk.degraded = true;
                    preempt_trace::emit(preempt_trace::TraceEvent::Degrade { on: true });
                    self.shard.bump(Counter::Degrades);
                    self.gauge_set(Gauge::DeliveryDegraded, 1.0);
                    for w in &self.workers {
                        w.degraded.store(true, Ordering::Release);
                    }
                }
            }
        } else if self.window.quiet_for(dnow) >= rb.upgrade_quiet {
            hk.degraded = false;
            preempt_trace::emit(preempt_trace::TraceEvent::Degrade { on: false });
            self.shard.bump(Counter::Upgrades);
            self.gauge_set(Gauge::DeliveryDegraded, 0.0);
            self.window.reset(dnow);
            // A stale watchdog deadline would fire (and count a failure)
            // the instant interrupts re-arm, flapping straight back.
            hk.wd_backoff.fill(min_backoff);
            hk.wd_next.fill(dnow + min_backoff);
            for w in &self.workers {
                w.degraded.store(false, Ordering::Release);
            }
        }

        // Adaptive starvation threshold: at each window boundary, the
        // window's sensor deltas (this plane's shard and its workers', so
        // every shard adapts to its local load) feed one AIMD step,
        // published to every worker's live cell. Deterministic under the
        // simulator: driven purely by virtual time and integer sensors.
        let mut ctl_earliest = u64::MAX;
        if let Some(ctl) = hk.controller.as_mut() {
            let cnow = now_cycles();
            if cnow >= ctl.next_eval() {
                let totals = SensorTotals::of_shards(
                    std::iter::once(&*self.shard)
                        .chain(self.workers.iter().map(|w| &*w.metrics_shard)),
                );
                let win = totals.delta_since(&hk.ctl_prev);
                let snapshot = SensorSnapshot {
                    high_completed: win.high_completed,
                    high_p99: win.high_p99(),
                    high_max: win.high_max(),
                    low_completed: win.low_completed,
                    aborts: win.aborts,
                    degraded: hk.degraded,
                    watchdog_resends: win.watchdog_resends,
                    skipped_starving: win.skipped_starving,
                    dropped_high: win.dropped_high,
                };
                hk.ctl_prev = totals;
                let window = ctl.window_index();
                let thr = ctl.evaluate(cnow, snapshot);
                for w in &self.workers {
                    w.starvation.set_threshold(thr);
                }
                self.threshold.store(thr.to_bits(), Ordering::Relaxed);
                let decision = ctl.last_decision().map(Decision::code).unwrap_or(0);
                preempt_trace::emit(preempt_trace::TraceEvent::ControllerDecision {
                    window: window as u16,
                    threshold_milli: (thr * 1000.0).round() as u32,
                    decision,
                });
                self.gauge_set(Gauge::StarvationThreshold, thr);
                self.gauge_set(Gauge::ViolationFloor, ctl.violation_floor());
                self.shard.bump(Counter::ControllerEvals);
                self.shard.bump(match ctl.last_decision() {
                    Some(Decision::Raise) => Counter::ControllerRaises,
                    Some(Decision::Lower) => Counter::ControllerLowers,
                    _ => Counter::ControllerHolds,
                });
            }
            ctl_earliest = ctl.next_eval();
        }

        wd_earliest.min(stranded_earliest).min(ctl_earliest)
    }

    fn gauge_set(&self, g: Gauge, value: f64) {
        if let Some(r) = &self.registry {
            r.gauge_set(g, value);
        }
    }

    // ---- lifecycle ----

    /// Stops this plane's workers and returns the adaptive controller's
    /// trajectory (`None` under static policies).
    pub fn stop(&self) -> Option<ControllerReport> {
        for w in &self.workers {
            w.stop();
        }
        self.housekeeping.lock().controller.take().map(Controller::into_report)
    }

    /// Runs a pool's housekeeping passes (the delivery watchdog,
    /// degradation and the controller window) on a thread named
    /// `preemptdb-plane` until [`stop`](Self::stop); unpark it after
    /// `stop` to end it promptly. Created from the caller, the thread
    /// shares its CPU mask. It parks until the deadline a pass returns,
    /// at most `STRANDED_AFTER / 2`, so an idle pool still closes its
    /// degradation windows and a degraded one re-arms its interrupts.
    pub fn spawn_housekeeper(self: &Arc<Plane>) -> std::thread::JoinHandle<()> {
        let plane = self.clone();
        // The first read calibrates the clock with a 20 ms spin; done
        // here, the housekeeper's thread never spins.
        let hz = crate::clock::freq_hz().max(1) as u128;
        std::thread::Builder::new()
            .name("preemptdb-plane".to_string())
            .spawn(move || {
                let period = STRANDED_AFTER / 2;
                while !plane.workers.iter().all(|w| w.is_stopped()) {
                    let due = plane.pass(true);
                    let now = now_cycles();
                    let wait = due.min(now.saturating_add(period)).saturating_sub(now);
                    let nanos = wait as u128 * 1_000_000_000 / hz;
                    std::thread::park_timeout(Duration::from_nanos(nanos as u64));
                }
            })
            .expect("spawn the plane's housekeeper")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrade_window_rolls_and_decays() {
        // 1 ms windows, trust a window once it has ≥ 8 sends.
        let dw = DegradeWindow::new(0, 2_400_000, 8);

        // Early failure spike: 8 sends, all failed.
        for _ in 0..8 {
            dw.send_failed(0);
        }
        assert_eq!(dw.evaluate(2_400_000), Some(1_000_000));

        // The evaluation reset the counters: a long healthy stretch
        // afterwards reads 0 ppm — the old spike does NOT linger.
        for _ in 0..20 {
            dw.send_ok();
        }
        assert_eq!(dw.evaluate(4_800_000), Some(0));

        // A sub-threshold burst (3 failures < min_sends) is never
        // evaluated; it decays across empty windows instead of waiting
        // to be paired with much-later sends.
        for _ in 0..3 {
            dw.send_failed(4_800_000);
        }
        assert_eq!(dw.evaluate(7_200_000), None);
        assert_eq!(dw.evaluate(9_600_000), None);
        assert_eq!(dw.evaluate(12_000_000), None);
        // Fully decayed: a healthy window evaluates clean.
        for _ in 0..8 {
            dw.send_ok();
        }
        assert_eq!(dw.evaluate(14_400_000), Some(0));

        // Windows close on elapsed time, not send counts.
        for _ in 0..100 {
            dw.send_ok();
        }
        assert_eq!(dw.evaluate(14_400_001), None, "window not elapsed yet");

        // reset() forgets everything.
        dw.reset(20_000_000);
        assert_eq!(dw.evaluate(30_000_000), None, "no sends since reset");
        assert_eq!(dw.quiet_for(30_000_000), 30_000_000 - 4_800_000);
    }

    /// Top-priority work queued behind acknowledged deliveries gets one
    /// more interrupt per `STRANDED_AFTER`, and none once it is gone.
    /// Under the simulator, whose virtual clock the test advances.
    #[test]
    fn a_stranded_queue_is_sent_one_interrupt_per_window() {
        let sim = preempt_sim::Simulation::new(preempt_sim::SimConfig::default());
        sim.spawn_core("scheduler", 256 * 1024, || {
            let mut cfg = DriverConfig::paper_default(crate::Policy::preemptdb());
            cfg.n_workers = 1;
            let w = WorkerShared::new(0, &cfg.queue_caps);
            w.set_upid(preempt_uintr::Upid::new());
            w.set_wake_target(WakeTarget::Thread(std::thread::current()));
            let workers = [w.clone()];
            let plane = Plane::new(&cfg, 0, &workers, &workers, Shard::new("t", 0), None);
            let req = Request::new("t", 1, 0, crate::WorkOutcome::default);
            assert!(w.queues[1].push(req).is_ok());

            let start = now_cycles();
            assert_eq!(plane.housekeep(), start + STRANDED_AFTER, "the re-send is due");
            preempt_sim::api::advance(STRANDED_AFTER - 1_000);
            plane.housekeep();
            assert_eq!(w.delivery_epoch(), 0, "not before a full window");
            preempt_sim::api::advance(1_000);
            plane.housekeep();
            assert_eq!(w.delivery_epoch(), 1, "one interrupt");

            // Acknowledged but declined: stranded again, sent to again.
            w.uintr_ack.store(1, Ordering::Release);
            plane.housekeep();
            preempt_sim::api::advance(STRANDED_AFTER);
            plane.housekeep();
            assert_eq!(w.delivery_epoch(), 2);
            assert_eq!(plane.shard().counter(Counter::UintrSent), 2);
            assert_eq!(plane.shard().counter(Counter::WatchdogResends), 0);

            // Drained: nothing more.
            w.uintr_ack.store(2, Ordering::Release);
            assert!(w.queues[1].pop().is_some());
            plane.housekeep();
            preempt_sim::api::advance(2 * STRANDED_AFTER);
            assert_eq!(plane.housekeep(), u64::MAX, "nothing due");
            assert_eq!(w.delivery_epoch(), 2);
        });
        sim.run();
        // A core's panic is contained, not propagated: surface it.
        assert_eq!(sim.core_failures(), []);
    }
}
