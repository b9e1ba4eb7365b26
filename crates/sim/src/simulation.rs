//! The deterministic virtual-time multicore simulator.
//!
//! **What this substitutes** (DESIGN.md §1.3): the paper evaluates on a
//! 32-core Xeon with 16 pinned worker threads plus a scheduling thread.
//! This host has one core, so wall-clock scheduling experiments would
//! measure the host's scheduler, not PreemptDB's. Instead, each simulated
//! core runs *real engine code* on a real [`preempt_context`] stackful
//! context, and a discrete-event loop interleaves the cores in **virtual
//! time**: every engine operation advances the running core's virtual
//! clock by its nominal cost (in cycles) through the preemption-point hook.
//!
//! Causality rule: a core is granted execution only up to the earliest
//! event that could affect it (a timer such as a user-interrupt delivery
//! or a sleeping core's wake-up, or the `max_slice` bound). Interactions
//! initiated by the *running* core (posting an interrupt, waking a peer)
//! schedule events at its current virtual time or later, so no suspended
//! core ever misses an event in its virtual past. Shared-memory engine
//! state is linearized in grant order — an approximation that is benign
//! for the paper's deliberately low-contention workloads (§6.1).
//!
//! User interrupts in the simulator travel through the *same*
//! [`preempt_uintr::Upid`] machinery as on real threads; the simulator
//! adds a configurable delivery latency (default 0.5 µs, the paper's §6.1
//! measurement).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::Arc;

use preempt_context::runtime::{self, PreemptHook};
use preempt_context::switch::switch_to;
use preempt_context::tcb::{self, CtxState, Tcb};
use preempt_context::Context;
use preempt_uintr::{UintrReceiver, Upid};

use crate::config::SimConfig;

/// Identifies a simulated core.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CoreStatus {
    /// Eligible to run; `vclock` is its current virtual time.
    Runnable,
    /// Waiting: for a timepoint (`until = Some(t)`) or for an explicit
    /// [`wake`](crate::api::wake) (`until = None`).
    Blocked { until: Option<u64> },
    /// Main context finished.
    Done,
}

pub(crate) struct CoreState {
    name: &'static str,
    /// Virtual clock in cycles.
    vclock: u64,
    /// Current grant: suspend at the next preemption point at/after this.
    deadline: u64,
    status: CoreStatus,
    /// The core's main context (owned; keeps sub-context parents alive).
    #[allow(dead_code)]
    context: Context,
    /// The context to resume — the one that was running when the core was
    /// last suspended (cores may switch among several transaction
    /// contexts internally).
    active: *const Tcb,
    /// The main context's TCB: the core is Done when this finishes.
    main_tcb: *const Tcb,
    /// Receiver polled at this core's preemption points, if registered.
    receiver: Option<Rc<UintrReceiver>>,
    /// Per-core preemption-point callback (e.g. a PreemptDB worker's
    /// delivery/yield logic). Invoked after time accounting, before the
    /// deadline check. Per-core — NOT per-thread — because many cores
    /// share one OS thread.
    core_hook: Option<Rc<dyn Fn(u64)>>,
    /// Cycles attributed to this core through preemption points.
    busy_cycles: u64,
    /// Number of preemption points executed.
    preempt_points: u64,
}

/// Per-core statistics reported after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreStats {
    pub busy_cycles: u64,
    pub preempt_points: u64,
    pub final_vclock: u64,
}

/// A contained core failure: the core's main context panicked, and the
/// simulation recorded the panic and marked the core Done instead of
/// propagating it — the rest of the machine keeps running, exactly as a
/// hardware core wedging does not halt its peers. Run reports carry
/// them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreFailure {
    pub core: CoreId,
    pub name: &'static str,
    /// Captured panic message ("unknown panic" for non-string payloads).
    pub message: String,
    /// Virtual time at which the failure was observed by the event loop.
    pub at: u64,
}

enum TimerAction {
    /// Post `vector` into `upid` and wake `target` (user-interrupt
    /// delivery completing).
    PostUintr {
        upid: Arc<Upid>,
        vector: u8,
        target: CoreId,
    },
    /// Wake `target` if it is blocked.
    Wake(CoreId),
}

struct Timer {
    at: u64,
    seq: u64,
    action: TimerAction,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

pub(crate) struct SimState {
    pub(crate) cfg: SimConfig,
    cores: Vec<CoreState>,
    timers: BinaryHeap<Reverse<Timer>>,
    timer_seq: u64,
    /// Index of the core currently granted execution.
    current: Option<usize>,
    /// The simulator loop's context (the thread context that called run).
    root: *const Tcb,
    /// High-water mark of processed event times (the "wall clock" seen
    /// from outside any core).
    floor: u64,
    running: bool,
    /// Contained core panics, in observation order.
    failures: Vec<CoreFailure>,
}

thread_local! {
    static CURRENT_SIM: RefCell<Option<Rc<RefCell<SimState>>>> = const { RefCell::new(None) };
}

pub(crate) fn with_sim<R>(f: impl FnOnce(&Rc<RefCell<SimState>>) -> R) -> R {
    CURRENT_SIM.with(|s| {
        let borrow = s.borrow();
        let rc = borrow
            .as_ref()
            // preempt-lint: allow(handler-panic) — calling sim::* outside
            // a running simulation is a harness wiring bug; the panic
            // fires at test setup, never on a production path.
            .expect("not inside a running Simulation (sim::* called outside run())");
        f(rc)
    })
}

pub(crate) fn try_with_sim<R>(f: impl FnOnce(&Rc<RefCell<SimState>>) -> R) -> Option<R> {
    CURRENT_SIM.with(|s| s.borrow().as_ref().map(f))
}

/// A deterministic virtual-time multicore simulation.
pub struct Simulation {
    state: Rc<RefCell<SimState>>,
    /// Fault-injection results captured at the end of [`run`](Self::run)
    /// when the config carried a [`FaultPlan`](preempt_faults::FaultPlan).
    fault_report: RefCell<Option<(preempt_faults::FaultStats, String)>>,
}

impl Simulation {
    pub fn new(cfg: SimConfig) -> Simulation {
        Simulation {
            state: Rc::new(RefCell::new(SimState {
                cfg,
                cores: Vec::new(),
                timers: BinaryHeap::new(),
                timer_seq: 0,
                current: None,
                root: std::ptr::null(),
                floor: 0,
                running: false,
                failures: Vec::new(),
            })),
            fault_report: RefCell::new(None),
        }
    }

    pub fn config(&self) -> SimConfig {
        self.state.borrow().cfg
    }

    /// Adds a simulated core whose program is `entry`. Must be called
    /// before [`run`](Simulation::run).
    pub fn spawn_core(
        &self,
        name: &'static str,
        stack_size: usize,
        entry: impl FnOnce() + Send + 'static,
    ) -> CoreId {
        let mut st = self.state.borrow_mut();
        assert!(!st.running, "cannot spawn cores during run()");
        let context = Context::new(stack_size, name, entry).expect("stack allocation failed");
        let main_tcb = context.tcb_ptr();
        st.cores.push(CoreState {
            name,
            vclock: 0,
            deadline: 0,
            status: CoreStatus::Runnable,
            active: main_tcb,
            main_tcb,
            context,
            receiver: None,
            core_hook: None,
            busy_cycles: 0,
            preempt_points: 0,
        });
        CoreId(st.cores.len() - 1)
    }

    /// Runs the simulation to completion (all cores Done). A core whose
    /// context panics is *contained*: the panic is recorded as a
    /// [`CoreFailure`] (see [`core_failures`](Self::core_failures)), the
    /// core is marked Done, and the remaining cores keep running. Panics
    /// only on deadlock (nothing runnable, no timers, and at least one
    /// core blocked forever).
    pub fn run(&self) {
        {
            let mut st = self.state.borrow_mut();
            assert!(!st.running, "run() is not reentrant");
            st.running = true;
            st.root = tcb::current_ptr();
        }
        CURRENT_SIM.with(|s| {
            let prev = s.borrow_mut().replace(self.state.clone());
            assert!(prev.is_none(), "nested simulations are not supported");
        });
        struct TlReset;
        impl Drop for TlReset {
            fn drop(&mut self) {
                CURRENT_SIM.with(|s| *s.borrow_mut() = None);
            }
        }
        let _tl_reset = TlReset;

        // Trace timestamps come from the virtual clock for the duration
        // of the run, so traces of same-config runs are byte-identical.
        // The closure must never panic: a (theoretically) reentrant read
        // while the state is mutably borrowed degrades to timestamp 0.
        let _clock_guard = {
            let state = self.state.clone();
            preempt_trace::clock::install_thread_clock(Rc::new(move || {
                match state.try_borrow() {
                    Ok(st) => match st.current_core() {
                        Some(i) => st.core_vclock(i),
                        None => st.floor(),
                    },
                    Err(_) => 0,
                }
            }))
        };

        // Install the fault plan (if any) for exactly the duration of the
        // event loop. All cores share this OS thread, so one thread-local
        // injector covers every simulated core deterministically.
        let fault_guard = {
            let cfg = self.state.borrow().cfg;
            cfg.faults.map(preempt_faults::install)
        };

        let hook = SimHook {
            state: self.state.clone(),
        };
        runtime::with_hook(&hook, || self.event_loop());
        if let Some(guard) = fault_guard {
            *self.fault_report.borrow_mut() = Some((guard.stats(), guard.trace()));
        }
        self.state.borrow_mut().running = false;
    }

    fn event_loop(&self) {
        #[derive(Debug)]
        enum Step {
            FireTimer,
            WakeCore(usize, u64),
            RunCore(usize),
            AllDone,
            Deadlock,
        }
        loop {
            let step = {
                let st = self.state.borrow();
                // Candidates ordered by (time, tie-priority): timers fire
                // before wakes, wakes before grants, so a delivery at time
                // T is visible to a core granted at time T.
                let mut best: Option<(u64, u8, Step)> = None;
                let mut consider = |t: u64, prio: u8, step: Step| {
                    if best
                        .as_ref()
                        .map(|(bt, bp, _)| (t, prio) < (*bt, *bp))
                        .unwrap_or(true)
                    {
                        best = Some((t, prio, step));
                    }
                };
                if let Some(Reverse(timer)) = st.timers.peek() {
                    consider(timer.at, 0, Step::FireTimer);
                }
                let mut all_done = true;
                for (i, c) in st.cores.iter().enumerate() {
                    match c.status {
                        CoreStatus::Runnable => {
                            all_done = false;
                            consider(c.vclock, 2, Step::RunCore(i));
                        }
                        CoreStatus::Blocked { until } => {
                            all_done = false;
                            if let Some(t) = until {
                                consider(t, 1, Step::WakeCore(i, t));
                            }
                        }
                        CoreStatus::Done => {}
                    }
                }
                match best {
                    Some((_, _, s)) => s,
                    None if all_done => Step::AllDone,
                    None => Step::Deadlock,
                }
            };

            match step {
                Step::AllDone => return,
                Step::Deadlock => {
                    let st = self.state.borrow();
                    let stuck: Vec<_> = st
                        .cores
                        .iter()
                        .filter(|c| c.status != CoreStatus::Done)
                        .map(|c| c.name)
                        .collect();
                    panic!(
                        "simulation deadlock at vtime {}: cores {:?} blocked forever",
                        st.floor, stuck
                    );
                }
                Step::FireTimer => {
                    let (action, at) = {
                        let mut st = self.state.borrow_mut();
                        let Reverse(t) = st.timers.pop().expect("peeked");
                        st.floor = st.floor.max(t.at);
                        (t.action, t.at)
                    };
                    match action {
                        TimerAction::PostUintr {
                            upid,
                            vector,
                            target,
                        } => {
                            upid.post(vector);
                            self.wake_core(target.0, at);
                        }
                        TimerAction::Wake(target) => self.wake_core(target.0, at),
                    }
                }
                Step::WakeCore(i, t) => {
                    self.wake_core(i, t);
                }
                Step::RunCore(i) => {
                    let active = {
                        let mut st = self.state.borrow_mut();
                        let max_slice = st.cfg.max_slice_cycles;
                        // Grant until the earliest future event.
                        let mut deadline = st.cores[i].vclock.saturating_add(max_slice);
                        if let Some(Reverse(t)) = st.timers.peek() {
                            deadline = deadline.min(t.at);
                        }
                        for (j, c) in st.cores.iter().enumerate() {
                            if j == i {
                                continue;
                            }
                            match c.status {
                                CoreStatus::Blocked { until: Some(t) } => {
                                    deadline = deadline.min(t);
                                }
                                // Never run more than one slice ahead of
                                // the laggiest runnable peer: bounds the
                                // virtual-order skew of shared-state
                                // interactions (see module docs).
                                CoreStatus::Runnable => {
                                    deadline = deadline.min(c.vclock.saturating_add(max_slice));
                                }
                                _ => {}
                            }
                        }
                        let vclock = st.cores[i].vclock;
                        st.floor = st.floor.max(vclock);
                        st.cores[i].deadline = deadline;
                        st.current = Some(i);
                        st.cores[i].active
                    };
                    // SAFETY: `active` is the TCB of a context owned by the
                    // core (its main Context or a sub-context the core's
                    // program keeps alive while suspended).
                    switch_to(unsafe { &*active });
                    // The core suspended (hook/block/sleep) or finished.
                    let mut st = self.state.borrow_mut();
                    st.current = None;
                    let c = &mut st.cores[i];
                    // SAFETY: main_tcb outlives the owning Context in `c`.
                    let main_state = unsafe { (*c.main_tcb).state() };
                    match main_state {
                        CtxState::Finished => c.status = CoreStatus::Done,
                        CtxState::Poisoned => {
                            // Contain the failure: record it, retire the
                            // core, keep the rest of the machine running.
                            // SAFETY: main_tcb outlives the owning
                            // Context in `c` (same contract as above).
                            let msg = unsafe { (*c.main_tcb).panic_message() }
                                .unwrap_or_else(|| "unknown panic".into());
                            c.status = CoreStatus::Done;
                            let failure = CoreFailure {
                                core: CoreId(i),
                                name: c.name,
                                message: msg,
                                at: c.vclock,
                            };
                            st.failures.push(failure);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    fn wake_core(&self, i: usize, at: u64) {
        let mut st = self.state.borrow_mut();
        st.floor = st.floor.max(at);
        let c = &mut st.cores[i];
        if let CoreStatus::Blocked { .. } = c.status {
            c.status = CoreStatus::Runnable;
            c.vclock = c.vclock.max(at);
        }
    }

    /// Per-core statistics (valid after [`run`](Simulation::run)).
    pub fn core_stats(&self, id: CoreId) -> CoreStats {
        let st = self.state.borrow();
        let c = &st.cores[id.0];
        CoreStats {
            busy_cycles: c.busy_cycles,
            preempt_points: c.preempt_points,
            final_vclock: c.vclock,
        }
    }

    /// Injected-fault counters from the last [`run`](Self::run), if the
    /// config carried a fault plan.
    pub fn fault_stats(&self) -> Option<preempt_faults::FaultStats> {
        self.fault_report.borrow().as_ref().map(|(s, _)| s.clone())
    }

    /// The deterministic fault trace from the last [`run`](Self::run):
    /// one line per injected fault, byte-identical across same-seed
    /// reruns of the same configuration.
    pub fn fault_trace(&self) -> Option<String> {
        self.fault_report.borrow().as_ref().map(|(_, t)| t.clone())
    }

    /// Contained core panics from the last [`run`](Self::run), in
    /// observation order (empty when every core finished cleanly).
    pub fn core_failures(&self) -> Vec<CoreFailure> {
        self.state.borrow().failures.clone()
    }

    /// Final virtual time (cycles) when the simulation ended.
    pub fn final_vtime(&self) -> u64 {
        let st = self.state.borrow();
        st.cores
            .iter()
            .map(|c| c.vclock)
            .max()
            .unwrap_or(st.floor)
            .max(st.floor)
    }
}

/// The preemption-point hook: advances virtual time, polls the core's
/// user-interrupt receiver, and enforces grant deadlines.
struct SimHook {
    state: Rc<RefCell<SimState>>,
}

impl PreemptHook for SimHook {
    fn preempt_point(&self, cost_cycles: u64) {
        let (receiver, core_hook) = {
            let mut st = self.state.borrow_mut();
            let Some(i) = st.current else {
                // Preemption point executed by the simulator loop itself
                // (e.g. a drop handler on the root context): no core to
                // charge.
                return;
            };
            let c = &mut st.cores[i];
            c.vclock += cost_cycles;
            c.busy_cycles += cost_cycles;
            c.preempt_points += 1;
            (c.receiver.clone(), c.core_hook.clone())
        };
        // Poll / run the core hook *before* the deadline check so a
        // delivery that has already been posted is handled at this point
        // (the handler may switch contexts within the core; we return
        // here when it resumes us).
        if let Some(r) = receiver {
            r.poll();
        }
        if let Some(h) = core_hook {
            h(cost_cycles);
        }
        // Re-read state: the hook may have run for a long time on another
        // context of this core before resuming us.
        let expired = {
            let st = self.state.borrow();
            match st.current {
                Some(i) => st.cores[i].vclock >= st.cores[i].deadline,
                None => false,
            }
        };
        if expired {
            suspend_current(&self.state);
        }
    }
}

/// Suspends the currently granted core back to the simulator loop.
pub(crate) fn suspend_current(state: &Rc<RefCell<SimState>>) {
    let root = {
        let mut st = state.borrow_mut();
        // preempt-lint: allow(handler-panic) — simulator invariant: the
        // event loop sets `current` before every grant, so a miss here
        // is a simulator bug, never a workload condition.
        let i = st.current.expect("suspend outside a granted core");
        st.cores[i].active = tcb::current_ptr();
        st.root
    };
    // SAFETY: root is the simulator's context, alive for the whole run.
    switch_to(unsafe { &*root });
}

// ---- crate-internal accessors used by the `api` module ----

impl SimState {
    pub(crate) fn current_core(&self) -> Option<usize> {
        self.current
    }

    pub(crate) fn core_vclock(&self, i: usize) -> u64 {
        self.cores[i].vclock
    }

    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    pub(crate) fn set_blocked(&mut self, i: usize, until: Option<u64>) {
        self.cores[i].status = CoreStatus::Blocked { until };
        self.cores[i].active = tcb::current_ptr();
    }

    pub(crate) fn wake_inline(&mut self, i: usize, at: u64) {
        self.floor = self.floor.max(at);
        let c = &mut self.cores[i];
        if let CoreStatus::Blocked { .. } = c.status {
            c.status = CoreStatus::Runnable;
            c.vclock = c.vclock.max(at);
        }
    }

    fn add_timer(&mut self, at: u64, action: TimerAction) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse(Timer { at, seq, action }));
    }

    pub(crate) fn schedule_uintr(&mut self, at: u64, upid: Arc<Upid>, vector: u8, target: CoreId) {
        self.add_timer(
            at,
            TimerAction::PostUintr {
                upid,
                vector,
                target,
            },
        );
    }

    pub(crate) fn schedule_wake(&mut self, at: u64, target: CoreId) {
        self.add_timer(at, TimerAction::Wake(target));
    }

    pub(crate) fn set_receiver(&mut self, i: usize, r: Rc<UintrReceiver>) {
        self.cores[i].receiver = Some(r);
    }

    pub(crate) fn set_core_hook(&mut self, i: usize, h: Option<Rc<dyn Fn(u64)>>) {
        self.cores[i].core_hook = h;
    }

    pub(crate) fn advance_current(&mut self, cycles: u64) {
        if let Some(i) = self.current {
            self.cores[i].vclock += cycles;
            self.cores[i].busy_cycles += cycles;
        }
    }
}
