//! Receiver side: UIF masking, handler registration, and the delivery path.
//!
//! Hardware behaviour being modeled (paper §2.3):
//!
//! * the receiving thread is diverted to its registered handler when an
//!   interrupt is pending and the *user-interrupt flag* (UIF) permits;
//! * delivery disables further user interrupts until the handler returns
//!   (`uiret`), so handlers run to completion without re-entry;
//! * `clui`/`stui` let code mask/unmask delivery explicitly (the paper's
//!   Algorithm 2 uses them around the active context switch).
//!
//! In this reproduction delivery happens at preemption points: the worker's
//! runtime hook calls [`UintrReceiver::poll`], whose fast path is a single
//! relaxed load. The UIF is **context-local** (a [`ClsCell`]): when the
//! handler switches to another transaction context, that context runs with
//! its own (enabled) flag — exactly the effect of the paper's handler
//! completing via `uiret` on the *new* context's prepared uintr frame.

use std::cell::Cell;
use std::sync::Arc;

use preempt_context::cls::ClsCell;
use preempt_context::{switch_in_progress, tcb};

use crate::cycles::rdtsc;
use crate::upid::Upid;

/// Context-local UIF: `true` = delivery disabled (after `clui`).
static UIF_DISABLED: ClsCell<bool> = ClsCell::new(|| false);

/// Disables user-interrupt delivery for the current context (`clui`).
#[inline]
pub fn clui() {
    UIF_DISABLED.set(true);
}

/// Enables user-interrupt delivery for the current context (`stui`).
#[inline]
pub fn stui() {
    UIF_DISABLED.set(false);
}

/// Tests the UIF (`testui`): returns `true` if delivery is enabled.
#[inline]
pub fn testui() -> bool {
    !UIF_DISABLED.get()
}

/// RAII form of `clui`/`stui` for masked critical sections.
#[must_use = "delivery stays masked only while the guard lives"]
pub struct MaskGuard {
    was_disabled: bool,
}

impl MaskGuard {
    pub fn new() -> MaskGuard {
        let was_disabled = UIF_DISABLED.replace(true);
        MaskGuard { was_disabled }
    }
}

impl Default for MaskGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for MaskGuard {
    fn drop(&mut self) {
        UIF_DISABLED.set(self.was_disabled);
    }
}

/// Receiver-side delivery statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeliveryStats {
    /// Handler invocations (vectors delivered).
    pub delivered: u64,
    /// Delivery attempts deferred by UIF / non-preemptible region / switch
    /// window.
    pub deferred: u64,
    /// Sum of post→delivery TSC deltas (latency numerator).
    pub latency_cycles_sum: u64,
    /// Max post→delivery TSC delta observed.
    pub latency_cycles_max: u64,
}

/// The per-worker-thread receiving endpoint: owns the UPID and the
/// registered user-interrupt handler.
///
/// Not `Sync`: it lives on its worker thread. Senders interact only with
/// the shared [`Upid`] (get one via [`UintrReceiver::upid`]).
pub struct UintrReceiver {
    upid: Arc<Upid>,
    handler: Option<Box<dyn Fn(u8)>>,
    stats: Cell<DeliveryStats>,
}

impl UintrReceiver {
    /// Creates a receiver with a fresh UPID and no handler.
    pub fn new() -> UintrReceiver {
        UintrReceiver {
            upid: Upid::new(),
            handler: None,
            stats: Cell::new(DeliveryStats::default()),
        }
    }

    /// The UPID's delivery epoch ([`Upid::epoch`]), for the handler's
    /// acknowledgement.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.upid.epoch()
    }

    /// Registers the user-interrupt handler (at most once).
    pub fn register_handler(&mut self, handler: impl Fn(u8) + 'static) {
        assert!(self.handler.is_none(), "handler already registered");
        self.handler = Some(Box::new(handler));
    }

    /// The shared descriptor senders post into.
    pub fn upid(&self) -> Arc<Upid> {
        self.upid.clone()
    }

    /// Cumulative delivery statistics.
    pub fn stats(&self) -> DeliveryStats {
        self.stats.get()
    }

    /// Average post→delivery latency in TSC cycles, if any were delivered.
    pub fn mean_delivery_latency_cycles(&self) -> Option<u64> {
        let s = self.stats.get();
        (s.delivered > 0).then(|| s.latency_cycles_sum / s.delivered)
    }

    /// The delivery path, invoked at every preemption point.
    ///
    /// Returns the number of vectors delivered (0 on the fast path).
    ///
    /// Deferral rules (the software analog of Algorithm 1 lines 2–6 plus
    /// the paper's §4.4 lock counter check): delivery is postponed —
    /// leaving the pending bits set and marking the TCB deferred — if
    ///
    /// 1. an active context switch is in flight on this thread,
    /// 2. the current context is inside a non-preemptible region, or
    /// 3. the current context has masked delivery (`clui`).
    #[inline]
    pub fn poll(&self) -> u32 {
        if !self.has_pending() {
            return 0;
        }
        self.deliver_pending()
    }

    /// Whether any vector is pending: the one load [`poll`](Self::poll)
    /// makes when there is nothing to deliver.
    #[inline]
    pub fn has_pending(&self) -> bool {
        self.upid.has_pending()
    }

    /// Slow path of [`poll`], kept out of line so the fast path inlines
    /// into engine loops.
    #[cold]
    fn deliver_pending(&self) -> u32 {
        // Deferral checks mirror the paper's ordering: the hardware-level
        // switch window first, then the DBMS-level lock counter / UIF.
        if switch_in_progress() {
            self.note_deferred();
            return 0;
        }
        let blocked = tcb::with_current(|t| {
            if t.is_nonpreemptible() {
                t.note_deferred();
                true
            } else {
                false
            }
        });
        if blocked {
            self.bump_deferred();
            return 0;
        }
        if UIF_DISABLED.get() {
            self.note_deferred();
            return 0;
        }

        let bits = self.upid.take_pending();
        if bits == 0 {
            return 0; // raced with another poll
        }

        preempt_trace::emit(preempt_trace::TraceEvent::PendingNoticed { vectors: bits });
        preempt_metrics::counter_inc(preempt_metrics::Counter::UintrNoticed);

        // Account delivery latency against the most recent post.
        let now = rdtsc();
        let post = self.upid.last_post_tsc();
        let delta = now.saturating_sub(post);
        preempt_metrics::hist_record(preempt_metrics::FixedHist::DeliveryLatencyCycles, delta);

        // "The CPU disables user interrupt so that the handler can execute
        // to completion": mask for the duration of handling. The handler
        // typically context-switches away; the target context has its own
        // (enabled) UIF, and ours is restored when we eventually resume
        // and the guard drops.
        let _mask = MaskGuard::new();

        let handler = self
            .handler
            .as_ref()
            // preempt-lint: allow(handler-panic) — a delivery with no
            // registered handler is a worker-startup wiring bug; abort
            // is better than silently swallowing interrupts forever.
            .expect("user interrupt delivered with no handler registered");
        // Lowest vector first, set bits only.
        let mut left = bits;
        while left != 0 {
            let vector = left.trailing_zeros() as u8;
            left &= left - 1;
            preempt_trace::emit(preempt_trace::TraceEvent::HandlerEnter { vector });
            handler(vector);
            preempt_trace::emit(preempt_trace::TraceEvent::HandlerExit { vector });
        }
        let delivered = bits.count_ones();

        let mut s = self.stats.get();
        s.delivered += delivered as u64;
        s.latency_cycles_sum += delta;
        s.latency_cycles_max = s.latency_cycles_max.max(delta);
        self.stats.set(s);
        preempt_metrics::counter_add(preempt_metrics::Counter::UintrDelivered, delivered as u64);
        delivered
    }

    fn note_deferred(&self) {
        tcb::with_current(|t| t.note_deferred());
        self.bump_deferred();
    }

    fn bump_deferred(&self) {
        let mut s = self.stats.get();
        s.deferred += 1;
        self.stats.set(s);
        preempt_metrics::counter_inc(preempt_metrics::Counter::UintrDeferred);
    }
}

impl Default for UintrReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for UintrReceiver {
    fn drop(&mut self) {
        self.upid.deactivate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upid::UipiSender;
    use preempt_context::nonpreempt::NonPreemptGuard;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn receiver_with_log() -> (UintrReceiver, Rc<RefCell<Vec<u8>>>) {
        let log: Rc<RefCell<Vec<u8>>> = Rc::default();
        let l = log.clone();
        let mut rx = UintrReceiver::new();
        rx.register_handler(move |v| l.borrow_mut().push(v));
        (rx, log)
    }

    #[test]
    fn poll_without_pending_is_noop() {
        let (rx, log) = receiver_with_log();
        assert_eq!(rx.poll(), 0);
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn delivers_to_handler() {
        let (rx, log) = receiver_with_log();
        let tx = UipiSender::new(rx.upid(), 2);
        tx.send();
        assert_eq!(rx.poll(), 1);
        assert_eq!(*log.borrow(), vec![2]);
        assert_eq!(rx.stats().delivered, 1);
    }

    #[test]
    fn multiple_vectors_delivered_in_order() {
        let (rx, log) = receiver_with_log();
        UipiSender::new(rx.upid(), 9).send();
        UipiSender::new(rx.upid(), 1).send();
        UipiSender::new(rx.upid(), 33).send();
        assert_eq!(rx.poll(), 3);
        assert_eq!(*log.borrow(), vec![1, 9, 33]);
    }

    #[test]
    fn clui_defers_stui_redelivers() {
        let (rx, log) = receiver_with_log();
        let tx = UipiSender::new(rx.upid(), 0);
        clui();
        tx.send();
        assert_eq!(rx.poll(), 0, "masked: deferred");
        assert_eq!(rx.stats().deferred, 1);
        assert!(log.borrow().is_empty());
        stui();
        assert_eq!(rx.poll(), 1, "unmasked: delivered");
        assert_eq!(*log.borrow(), vec![0]);
    }

    #[test]
    fn mask_guard_restores_previous_state() {
        assert!(testui());
        {
            let _g = MaskGuard::new();
            assert!(!testui());
            {
                let _g2 = MaskGuard::new();
                assert!(!testui());
            }
            assert!(!testui(), "inner guard restores to outer masked state");
        }
        assert!(testui());
    }

    #[test]
    fn nonpreemptible_region_defers_delivery() {
        let (rx, log) = receiver_with_log();
        let tx = UipiSender::new(rx.upid(), 4);
        {
            let _np = NonPreemptGuard::enter();
            tx.send();
            assert_eq!(rx.poll(), 0);
            assert!(log.borrow().is_empty());
            assert!(preempt_context::tcb::with_current(|t| t.has_deferred()));
        }
        assert_eq!(rx.poll(), 1);
        assert_eq!(*log.borrow(), vec![4]);
    }

    #[test]
    fn switch_window_defers_delivery() {
        let (rx, log) = receiver_with_log();
        let tx = UipiSender::new(rx.upid(), 5);
        tx.send();
        preempt_context::switch::set_switch_in_progress(true);
        assert_eq!(rx.poll(), 0, "mid-switch: deferred (ip-check analog)");
        preempt_context::switch::set_switch_in_progress(false);
        assert_eq!(rx.poll(), 1);
        assert_eq!(*log.borrow(), vec![5]);
    }

    #[test]
    fn handler_is_not_reentered() {
        // A handler that polls again must not recurse: UIF is masked for
        // the duration of handling.
        struct State {
            rx: Cell<*const UintrReceiver>,
            depth: Cell<u32>,
            max_depth: Cell<u32>,
        }
        let state = Rc::new(State {
            rx: Cell::new(std::ptr::null()),
            depth: Cell::new(0),
            max_depth: Cell::new(0),
        });
        let mut rx = Box::new(UintrReceiver::new());
        let s = state.clone();
        rx.register_handler(move |_| {
            s.depth.set(s.depth.get() + 1);
            s.max_depth.set(s.max_depth.get().max(s.depth.get()));
            // Another interrupt arrives *during* handling...
            unsafe {
                (*s.rx.get()).upid().post(0);
                // ...and a nested poll must defer, not recurse.
                (*s.rx.get()).poll();
            }
            s.depth.set(s.depth.get() - 1);
        });
        state.rx.set(&*rx as *const UintrReceiver);

        rx.upid().post(0);
        rx.poll();
        assert_eq!(state.max_depth.get(), 1, "no handler re-entry");
        // The interrupt posted during handling is still pending and is
        // delivered at the next point.
        assert_eq!(rx.poll(), 1);
    }

    #[test]
    fn delivery_latency_is_recorded() {
        let (rx, _log) = receiver_with_log();
        UipiSender::new(rx.upid(), 0).send();
        rx.poll();
        assert!(rx.mean_delivery_latency_cycles().is_some());
    }

    #[test]
    fn cross_thread_delivery_smoke() {
        let (rx, log) = receiver_with_log();
        let tx = UipiSender::new(rx.upid(), 7);
        let h = std::thread::spawn(move || {
            for _ in 0..100 {
                tx.send();
            }
        });
        // Poll until the sender thread finishes; edge-triggered semantics
        // mean we may see 1..=100 deliveries, all of vector 7.
        h.join().unwrap();
        while rx.poll() > 0 {}
        assert!(!log.borrow().is_empty());
        assert!(log.borrow().iter().all(|&v| v == 7));
    }
}
