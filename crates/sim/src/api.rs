//! API for code running *on* a simulated core.
//!
//! These free functions locate the active simulation through a
//! thread-local (they panic when no simulation is running, except
//! [`try_now_cycles`]). They are what the scheduling runtime uses to pace
//! arrivals, deliver user interrupts with virtual latency, and block idle
//! workers without burning virtual cycles.

use std::rc::Rc;
use std::sync::Arc;

use preempt_uintr::{UintrReceiver, Upid, NUM_VECTORS};

use crate::config::SimConfig;
use crate::simulation::{suspend_current, try_with_sim, with_sim, CoreId};

/// Virtual time in cycles: the running core's clock, or the event floor
/// when called from the simulator loop itself.
pub fn now_cycles() -> u64 {
    with_sim(|s| {
        let st = s.borrow();
        match st.current_core() {
            Some(i) => st.core_vclock(i),
            None => st.floor(),
        }
    })
}

/// Like [`now_cycles`], but `None` when no simulation is active on this
/// thread — lets shared code fall back to the real TSC.
pub fn try_now_cycles() -> Option<u64> {
    try_with_sim(|s| {
        let st = s.borrow();
        match st.current_core() {
            Some(i) => st.core_vclock(i),
            None => st.floor(),
        }
    })
}

/// Whether this thread is inside a running simulation.
pub fn active() -> bool {
    try_with_sim(|_| ()).is_some()
}

/// The active simulation's configuration.
pub fn config() -> SimConfig {
    with_sim(|s| s.borrow().cfg)
}

/// The id of the core executing the caller.
pub fn current_core() -> CoreId {
    with_sim(|s| {
        CoreId(
            s.borrow()
                .current_core()
                // preempt-lint: allow(handler-panic) — usage invariant:
                // calling sim::* off a simulated core is a test-harness
                // bug, not a runtime condition to recover from.
                .expect("not running on a simulated core"),
        )
    })
}

/// Charges `cycles` of work to the running core without a preemption
/// check — for modeling scheduler-thread bookkeeping costs.
pub fn advance(cycles: u64) {
    with_sim(|s| s.borrow_mut().advance_current(cycles));
}

/// Suspends the calling core until virtual time `t` (cycles).
pub fn sleep_until(t: u64) {
    let state = with_sim(Rc::clone);
    {
        let mut st = state.borrow_mut();
        let i = st.current_core().expect("sleep_until outside a core");
        st.set_blocked(i, Some(t));
    }
    suspend_current(&state);
}

/// Suspends the calling core for `dt` cycles of virtual time.
pub fn sleep(dt: u64) {
    let t = now_cycles().saturating_add(dt);
    sleep_until(t);
}

/// Suspends the calling core until another core [`wake`]s it.
pub fn block() {
    let state = with_sim(Rc::clone);
    {
        let mut st = state.borrow_mut();
        let i = st.current_core().expect("block outside a core");
        st.set_blocked(i, None);
    }
    suspend_current(&state);
}

/// Relinquishes the rest of the grant but stays runnable.
pub fn yield_now() {
    let state = with_sim(Rc::clone);
    suspend_current(&state);
}

/// Wakes `target` if it is blocked, at the caller's current virtual time
/// (e.g. after pushing work into its queue).
pub fn wake(target: CoreId) {
    with_sim(|s| {
        let mut st = s.borrow_mut();
        let at = match st.current_core() {
            Some(i) => st.core_vclock(i),
            None => st.floor(),
        };
        st.wake_inline(target.0, at);
    });
}

/// Registers `receiver` to be polled at every preemption point of the
/// calling core — the analog of binding a UINTR receiver to a thread.
pub fn bind_receiver(receiver: Rc<UintrReceiver>) {
    with_sim(|s| {
        let mut st = s.borrow_mut();
        let i = st.current_core().expect("bind_receiver outside a core");
        st.set_receiver(i, receiver);
    });
}

/// Installs a per-core preemption-point callback for the calling core,
/// invoked at every preemption point after time accounting. This is the
/// simulator-mode replacement for a thread-local
/// [`preempt_context::runtime::PreemptHook`]: with many simulated cores
/// multiplexed onto one OS thread, a thread-local hook would fire for
/// the wrong core.
pub fn set_core_hook(hook: Rc<dyn Fn(u64)>) {
    with_sim(|s| {
        let mut st = s.borrow_mut();
        let i = st.current_core().expect("set_core_hook outside a core");
        st.set_core_hook(i, Some(hook));
    });
}

/// Removes the calling core's preemption-point callback.
pub fn clear_core_hook() {
    with_sim(|s| {
        let mut st = s.borrow_mut();
        let i = st.current_core().expect("clear_core_hook outside a core");
        st.set_core_hook(i, None);
    });
}

/// A simulation-aware `senduipi`: posts `vector` into `upid` after the
/// configured virtual delivery latency and wakes the target core.
#[derive(Clone)]
pub struct SimUipiSender {
    upid: Arc<Upid>,
    vector: u8,
    target: CoreId,
}

impl SimUipiSender {
    pub fn new(upid: Arc<Upid>, vector: u8, target: CoreId) -> SimUipiSender {
        SimUipiSender {
            upid,
            vector,
            target,
        }
    }

    /// Sends the user interrupt: deliverable `uintr_delivery_cycles`
    /// after the caller's current virtual time.
    ///
    /// When the simulation runs under a fault plan, the send may be
    /// dropped (never scheduled — the sender cannot tell), delayed by
    /// extra virtual cycles, duplicated, or accompanied by a spurious
    /// vector; all decisions come from the deterministic injector, so
    /// the same seed reproduces the same delivery schedule.
    pub fn send(&self) {
        use preempt_faults::SendFault;
        // Emitted before the simulator state is mutably borrowed: the
        // trace clock reads the same state to stamp the event.
        preempt_trace::emit(preempt_trace::TraceEvent::UipiSent {
            target: self.upid.owner(),
            vector: self.vector,
        });
        // Read the virtual clock before consulting the injector so
        // phase-gated plans (`drop_before_cycles`) see the send time.
        let now = now_cycles();
        let fault = preempt_faults::on_uipi_send_at(now);
        with_sim(|s| {
            let mut st = s.borrow_mut();
            let at = now + st.cfg.uintr_delivery_cycles;
            match fault {
                SendFault::Deliver => {
                    st.schedule_uintr(at, self.upid.clone(), self.vector, self.target);
                }
                SendFault::Drop => {}
                SendFault::Delay(extra) => {
                    st.schedule_uintr(at + extra, self.upid.clone(), self.vector, self.target);
                }
                SendFault::Duplicate => {
                    st.schedule_uintr(at, self.upid.clone(), self.vector, self.target);
                    st.schedule_uintr(at, self.upid.clone(), self.vector, self.target);
                }
                SendFault::Spurious(v) => {
                    st.schedule_uintr(at, self.upid.clone(), self.vector, self.target);
                    st.schedule_uintr(at, self.upid.clone(), v % NUM_VECTORS, self.target);
                }
            }
        });
    }

    pub fn target(&self) -> CoreId {
        self.target
    }
}

/// Schedules a plain wake-up for `target` at absolute virtual time `t`.
pub fn wake_at(t: u64, target: CoreId) {
    with_sim(|s| s.borrow_mut().schedule_wake(t, target));
}
