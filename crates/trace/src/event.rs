//! Typed trace events and their fixed-size binary encoding.
//!
//! Every event is recorded as exactly two `u64` words (see
//! [`crate::ring::TraceRing`]): the first is the timestamp, the second
//! packs the event kind, the recording ring's handler-nesting depth, and
//! a 48-bit payload:
//!
//! ```text
//! bits 63..56   kind (1..=25, 0 = empty slot)
//! bits 55..48   nesting depth at record time
//! bits 47..0    kind-specific payload
//! ```
//!
//! Payloads carry only small ids (worker, vector, txn sequence number,
//! level) — never pointers — so that a merged trace from a deterministic
//! simulator run is byte-identical across processes.

/// Transaction ids wider than this are truncated on encode (40 bits).
pub const MAX_TXN_ID: u64 = (1 << 40) - 1;

/// Payload width in bits (the low 48 bits of the packed word).
const PAYLOAD_MASK: u64 = (1 << 48) - 1;

pub(crate) const K_UIPI_SENT: u8 = 1;
pub(crate) const K_PENDING_NOTICED: u8 = 2;
pub(crate) const K_HANDLER_ENTER: u8 = 3;
pub(crate) const K_HANDLER_EXIT: u8 = 4;
pub(crate) const K_STACK_SWITCH: u8 = 5;
pub(crate) const K_TXN_BEGIN: u8 = 6;
pub(crate) const K_TXN_COMMIT: u8 = 7;
pub(crate) const K_TXN_ABORT: u8 = 8;
pub(crate) const K_DEGRADE: u8 = 9;
pub(crate) const K_WATCHDOG_RESEND: u8 = 10;
pub(crate) const K_STARVATION_BOOST: u8 = 11;
pub(crate) const K_LATCH_ACQUIRE: u8 = 12;
pub(crate) const K_LATCH_RELEASE: u8 = 13;
pub(crate) const K_CONTROLLER: u8 = 14;
pub(crate) const K_TXN_PANIC: u8 = 15;
// 16–18 are retired kinds, left unused so that every other kind keeps
// its code.
pub(crate) const K_STEAL: u8 = 19;
pub(crate) const K_SHOOTDOWN: u8 = 20;
pub(crate) const K_NET_ACCEPT: u8 = 21;
pub(crate) const K_NET_REQUEST: u8 = 22;
pub(crate) const K_NET_CLOSE: u8 = 23;
pub(crate) const K_REQ_ID: u8 = 24;
pub(crate) const K_TXN_PHASE: u8 = 25;

/// Phase cycle counts wider than this are clamped on encode (40 bits —
/// ~458 s at 2.4 GHz, far beyond any single transaction).
pub const MAX_PHASE_CYCLES: u64 = (1 << 40) - 1;

/// One event in the preemption lifecycle.
///
/// The variants mirror the paper's §6.1 latency breakdown: a scheduler
/// *sends* an interrupt, the receiver *notices* the pending bit at a
/// preemption point, the *handler enters*, the worker *switches stacks*
/// into the preemptive context, runs a transaction, and switches back.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// A user interrupt went out (senduipi analog or signal kick).
    UipiSent {
        /// Receiver worker id (`u16::MAX` when unattributed).
        target: u16,
        /// Interrupt vector posted.
        vector: u8,
    },
    /// The receiver's preemption point observed pending bits (low 48).
    PendingNoticed {
        /// Pending vector bitmask as taken from the UPID (truncated to
        /// 48 bits on encode; vectors 48..64 are unused by the engine).
        vectors: u64,
    },
    /// Handler dispatch began for one vector.
    HandlerEnter {
        /// Vector being dispatched.
        vector: u8,
    },
    /// Handler dispatch for one vector returned.
    HandlerExit {
        /// Vector that was dispatched.
        vector: u8,
    },
    /// The worker switched execution levels (priority stacks, §4.2).
    StackSwitch {
        /// Level being left.
        from: u8,
        /// Level being entered.
        to: u8,
    },
    /// A transaction began executing on this worker.
    TxnBegin {
        /// Worker-local transaction sequence number (40 bits).
        txn: u64,
        /// Scheduling priority of the request.
        priority: u8,
    },
    /// The transaction committed.
    TxnCommit {
        /// Worker-local transaction sequence number (40 bits).
        txn: u64,
    },
    /// The transaction aborted (deadline, retry exhaustion, or forced).
    TxnAbort {
        /// Worker-local transaction sequence number (40 bits).
        txn: u64,
    },
    /// The scheduler toggled degraded (cooperative-fallback) mode.
    Degrade {
        /// `true` when entering degraded mode, `false` on re-upgrade.
        on: bool,
    },
    /// The delivery watchdog re-sent an unacknowledged interrupt.
    WatchdogResend {
        /// Worker whose interrupt was re-sent.
        target: u16,
    },
    /// Starvation prevention intervened.
    StarvationBoost {
        /// Site id: 1 = scheduler skipped a starving worker,
        /// 2 = drain loop early-exited to a starving lower level.
        site: u8,
    },
    /// A storage latch was acquired.
    LatchAcquire {
        /// 0 = read, 1 = write.
        mode: u8,
    },
    /// A storage latch was released.
    LatchRelease {
        /// 0 = read, 1 = write.
        mode: u8,
    },
    /// The adaptive starvation-threshold controller closed an
    /// evaluation window (recorded by the scheduler's ring, so the
    /// threshold trajectory rides on the trace session).
    ControllerDecision {
        /// Evaluation window index (wraps at 16 bits).
        window: u16,
        /// Threshold now in force, in thousandths (truncated to 24 bits
        /// on encode — thresholds live in [0, 100]).
        threshold_milli: u32,
        /// Decision code: 0 = hold, 1 = raise, 2 = lower (2 bits).
        decision: u8,
    },
    /// The transaction body panicked and the worker's firewall contained
    /// it (typed abort; the worker keeps running).
    TxnPanic {
        /// Worker-local transaction sequence number (40 bits).
        txn: u64,
    },
    /// An idle worker stole the oldest request of a same-shard sibling's
    /// queue (the sharded plane's load-balancing path).
    Steal {
        /// Worker whose queue lost the request.
        victim: u16,
        /// Worker that took it.
        thief: u16,
        /// Priority level of the queue stolen from.
        level: u8,
    },
    /// A shard scheduler moved starved high-priority work to a foreign
    /// shard's worker and kicked it with a user interrupt (cross-shard
    /// shootdown — the only cross-shard signaling the plane allows).
    Shootdown {
        /// Shard that gave up dispatching locally.
        from_shard: u16,
        /// Foreign worker the request landed on.
        worker: u16,
    },
    /// The network front door accepted a client connection
    /// (`preemptdb-server`; recorded on the connection's own ring).
    NetAccept {
        /// Server-assigned connection id (wraps at 32 bits).
        conn: u32,
    },
    /// A request frame arrived on a connection and went through the
    /// per-class admission gate.
    NetRequest {
        /// Connection the request arrived on.
        conn: u32,
        /// SLO class: 1 = high (Q1), 0 = low (Q2).
        class: u8,
        /// Whether admission let it through to the worker pool
        /// (`false` = rejected with a typed `Overloaded` frame).
        admitted: bool,
    },
    /// The connection closed (client EOF, protocol error, or shutdown).
    NetClose {
        /// Connection that closed.
        conn: u32,
    },
    /// Binds the transaction most recently begun on this ring to its
    /// end-to-end request id (provenance plane; emitted immediately
    /// after `TxnBegin` with no intervening preemption point).
    ReqId {
        /// Request id flowing from the wire protocol (or synthesized by
        /// the worker for simulator workloads); truncated to 48 bits.
        id: u64,
    },
    /// One attributed latency phase of the transaction currently open on
    /// this ring (provenance plane; emitted between the last phase
    /// measurement and `TxnCommit`).
    TxnPhase {
        /// Phase index (`preempt-prov`'s `Phase as u8`, 0..8).
        phase: u8,
        /// Cycles attributed to the phase (clamped to 40 bits).
        cycles: u64,
    },
}

impl TraceEvent {
    /// The kind byte stored in bits 63..56 of the packed word.
    #[inline]
    pub fn kind(&self) -> u8 {
        match self {
            TraceEvent::UipiSent { .. } => K_UIPI_SENT,
            TraceEvent::PendingNoticed { .. } => K_PENDING_NOTICED,
            TraceEvent::HandlerEnter { .. } => K_HANDLER_ENTER,
            TraceEvent::HandlerExit { .. } => K_HANDLER_EXIT,
            TraceEvent::StackSwitch { .. } => K_STACK_SWITCH,
            TraceEvent::TxnBegin { .. } => K_TXN_BEGIN,
            TraceEvent::TxnCommit { .. } => K_TXN_COMMIT,
            TraceEvent::TxnAbort { .. } => K_TXN_ABORT,
            TraceEvent::Degrade { .. } => K_DEGRADE,
            TraceEvent::WatchdogResend { .. } => K_WATCHDOG_RESEND,
            TraceEvent::StarvationBoost { .. } => K_STARVATION_BOOST,
            TraceEvent::LatchAcquire { .. } => K_LATCH_ACQUIRE,
            TraceEvent::LatchRelease { .. } => K_LATCH_RELEASE,
            TraceEvent::ControllerDecision { .. } => K_CONTROLLER,
            TraceEvent::TxnPanic { .. } => K_TXN_PANIC,
            TraceEvent::Steal { .. } => K_STEAL,
            TraceEvent::Shootdown { .. } => K_SHOOTDOWN,
            TraceEvent::NetAccept { .. } => K_NET_ACCEPT,
            TraceEvent::NetRequest { .. } => K_NET_REQUEST,
            TraceEvent::NetClose { .. } => K_NET_CLOSE,
            TraceEvent::ReqId { .. } => K_REQ_ID,
            TraceEvent::TxnPhase { .. } => K_TXN_PHASE,
        }
    }

    /// Short label for exporters.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::UipiSent { .. } => "uipi-sent",
            TraceEvent::PendingNoticed { .. } => "pending-noticed",
            TraceEvent::HandlerEnter { .. } => "uintr-handler",
            TraceEvent::HandlerExit { .. } => "uintr-handler",
            TraceEvent::StackSwitch { .. } => "stack-switch",
            TraceEvent::TxnBegin { .. } => "txn",
            TraceEvent::TxnCommit { .. } => "txn",
            TraceEvent::TxnAbort { .. } => "txn-abort",
            TraceEvent::Degrade { .. } => "degrade",
            TraceEvent::WatchdogResend { .. } => "watchdog-resend",
            TraceEvent::StarvationBoost { .. } => "starvation-boost",
            TraceEvent::LatchAcquire { .. } => "latch-acquire",
            TraceEvent::LatchRelease { .. } => "latch-release",
            TraceEvent::ControllerDecision { .. } => "controller-decision",
            TraceEvent::TxnPanic { .. } => "txn-panic",
            TraceEvent::Steal { .. } => "steal",
            TraceEvent::Shootdown { .. } => "shootdown",
            TraceEvent::NetAccept { .. } => "net-accept",
            TraceEvent::NetRequest { .. } => "net-request",
            TraceEvent::NetClose { .. } => "net-close",
            TraceEvent::ReqId { .. } => "req-id",
            TraceEvent::TxnPhase { .. } => "txn-phase",
        }
    }

    /// Whether this event is part of the preemption delivery path (used
    /// by the latch-window invariant: none of these may appear while a
    /// latch is held on the recording worker).
    #[inline]
    pub fn is_preemption(&self) -> bool {
        matches!(
            self,
            TraceEvent::PendingNoticed { .. }
                | TraceEvent::HandlerEnter { .. }
                | TraceEvent::HandlerExit { .. }
                | TraceEvent::StackSwitch { .. }
        )
    }

    /// Encodes the event and depth into the second record word.
    ///
    /// Infallible and allocation-free: callable from interrupt handlers.
    #[inline]
    pub fn pack(&self, depth: u8) -> u64 {
        let payload: u64 = match *self {
            TraceEvent::UipiSent { target, vector } => u64::from(target) | u64::from(vector) << 16,
            TraceEvent::PendingNoticed { vectors } => vectors & PAYLOAD_MASK,
            TraceEvent::HandlerEnter { vector } => u64::from(vector),
            TraceEvent::HandlerExit { vector } => u64::from(vector),
            TraceEvent::StackSwitch { from, to } => u64::from(from) | u64::from(to) << 8,
            TraceEvent::TxnBegin { txn, priority } => {
                (txn & MAX_TXN_ID) | u64::from(priority) << 40
            }
            TraceEvent::TxnCommit { txn } => txn & MAX_TXN_ID,
            TraceEvent::TxnAbort { txn } => txn & MAX_TXN_ID,
            TraceEvent::Degrade { on } => u64::from(on),
            TraceEvent::WatchdogResend { target } => u64::from(target),
            TraceEvent::StarvationBoost { site } => u64::from(site),
            TraceEvent::LatchAcquire { mode } => u64::from(mode),
            TraceEvent::LatchRelease { mode } => u64::from(mode),
            TraceEvent::ControllerDecision {
                window,
                threshold_milli,
                decision,
            } => {
                u64::from(threshold_milli) & 0xFF_FFFF
                    | u64::from(window) << 24
                    | u64::from(decision & 0b11) << 40
            }
            TraceEvent::TxnPanic { txn } => txn & MAX_TXN_ID,
            TraceEvent::Steal {
                victim,
                thief,
                level,
            } => u64::from(victim) | u64::from(thief) << 16 | u64::from(level) << 32,
            TraceEvent::Shootdown { from_shard, worker } => {
                u64::from(from_shard) | u64::from(worker) << 16
            }
            TraceEvent::NetAccept { conn } => u64::from(conn),
            TraceEvent::NetRequest {
                conn,
                class,
                admitted,
            } => u64::from(conn) | u64::from(class) << 32 | u64::from(admitted) << 40,
            TraceEvent::NetClose { conn } => u64::from(conn),
            TraceEvent::ReqId { id } => id & PAYLOAD_MASK,
            TraceEvent::TxnPhase { phase, cycles } => {
                cycles.min(MAX_PHASE_CYCLES) | u64::from(phase) << 40
            }
        };
        u64::from(self.kind()) << 56 | u64::from(depth) << 48 | (payload & PAYLOAD_MASK)
    }

    /// Decodes a packed record word back into `(event, depth)`.
    ///
    /// Returns `None` for kind 0 (an empty ring slot) or an unknown kind.
    pub fn unpack(word: u64) -> Option<(TraceEvent, u8)> {
        let kind = (word >> 56) as u8;
        let depth = (word >> 48) as u8;
        let payload = word & PAYLOAD_MASK;
        let ev = match kind {
            K_UIPI_SENT => TraceEvent::UipiSent {
                target: payload as u16,
                vector: (payload >> 16) as u8,
            },
            K_PENDING_NOTICED => TraceEvent::PendingNoticed { vectors: payload },
            K_HANDLER_ENTER => TraceEvent::HandlerEnter {
                vector: payload as u8,
            },
            K_HANDLER_EXIT => TraceEvent::HandlerExit {
                vector: payload as u8,
            },
            K_STACK_SWITCH => TraceEvent::StackSwitch {
                from: payload as u8,
                to: (payload >> 8) as u8,
            },
            K_TXN_BEGIN => TraceEvent::TxnBegin {
                txn: payload & MAX_TXN_ID,
                priority: (payload >> 40) as u8,
            },
            K_TXN_COMMIT => TraceEvent::TxnCommit {
                txn: payload & MAX_TXN_ID,
            },
            K_TXN_ABORT => TraceEvent::TxnAbort {
                txn: payload & MAX_TXN_ID,
            },
            K_DEGRADE => TraceEvent::Degrade { on: payload != 0 },
            K_WATCHDOG_RESEND => TraceEvent::WatchdogResend {
                target: payload as u16,
            },
            K_STARVATION_BOOST => TraceEvent::StarvationBoost { site: payload as u8 },
            K_LATCH_ACQUIRE => TraceEvent::LatchAcquire { mode: payload as u8 },
            K_LATCH_RELEASE => TraceEvent::LatchRelease { mode: payload as u8 },
            K_CONTROLLER => TraceEvent::ControllerDecision {
                window: (payload >> 24) as u16,
                threshold_milli: (payload & 0xFF_FFFF) as u32,
                decision: ((payload >> 40) & 0b11) as u8,
            },
            K_TXN_PANIC => TraceEvent::TxnPanic {
                txn: payload & MAX_TXN_ID,
            },
            K_STEAL => TraceEvent::Steal {
                victim: payload as u16,
                thief: (payload >> 16) as u16,
                level: (payload >> 32) as u8,
            },
            K_SHOOTDOWN => TraceEvent::Shootdown {
                from_shard: payload as u16,
                worker: (payload >> 16) as u16,
            },
            K_NET_ACCEPT => TraceEvent::NetAccept {
                conn: payload as u32,
            },
            K_NET_REQUEST => TraceEvent::NetRequest {
                conn: payload as u32,
                class: (payload >> 32) as u8,
                admitted: (payload >> 40) & 1 != 0,
            },
            K_NET_CLOSE => TraceEvent::NetClose {
                conn: payload as u32,
            },
            K_REQ_ID => TraceEvent::ReqId { id: payload },
            K_TXN_PHASE => TraceEvent::TxnPhase {
                phase: (payload >> 40) as u8,
                cycles: payload & MAX_PHASE_CYCLES,
            },
            _ => return None,
        };
        Some((ev, depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips_each_variant() {
        let evs = [
            TraceEvent::UipiSent {
                target: 3,
                vector: 1,
            },
            TraceEvent::PendingNoticed { vectors: 0b1011 },
            TraceEvent::HandlerEnter { vector: 1 },
            TraceEvent::HandlerExit { vector: 1 },
            TraceEvent::StackSwitch { from: 0, to: 1 },
            TraceEvent::TxnBegin {
                txn: 42,
                priority: 1,
            },
            TraceEvent::TxnCommit { txn: 42 },
            TraceEvent::TxnAbort { txn: 43 },
            TraceEvent::Degrade { on: true },
            TraceEvent::WatchdogResend { target: 7 },
            TraceEvent::StarvationBoost { site: 2 },
            TraceEvent::LatchAcquire { mode: 1 },
            TraceEvent::LatchRelease { mode: 0 },
            TraceEvent::ControllerDecision {
                window: 17,
                threshold_milli: 450,
                decision: 2,
            },
            TraceEvent::TxnPanic { txn: 44 },
            TraceEvent::Steal {
                victim: 2,
                thief: 3,
                level: 1,
            },
            TraceEvent::Shootdown {
                from_shard: 1,
                worker: 9,
            },
            TraceEvent::NetAccept { conn: 0xDEAD_BEEF },
            TraceEvent::NetRequest {
                conn: 12,
                class: 1,
                admitted: true,
            },
            TraceEvent::NetRequest {
                conn: 13,
                class: 0,
                admitted: false,
            },
            TraceEvent::NetClose { conn: 12 },
            TraceEvent::ReqId {
                id: 0x1234_5678_9ABC,
            },
            TraceEvent::TxnPhase {
                phase: 7,
                cycles: 123_456_789,
            },
        ];
        for (i, ev) in evs.iter().enumerate() {
            let depth = (i % 4) as u8;
            let (back, d) = TraceEvent::unpack(ev.pack(depth)).expect("known kind");
            assert_eq!((back, d), (*ev, depth));
        }
    }

    #[test]
    fn empty_slot_decodes_to_none() {
        assert_eq!(TraceEvent::unpack(0), None);
        assert_eq!(TraceEvent::unpack(0xFF << 56), None);
    }

    #[test]
    fn txn_ids_truncate_to_40_bits() {
        let ev = TraceEvent::TxnCommit { txn: u64::MAX };
        let (back, _) = TraceEvent::unpack(ev.pack(0)).expect("known kind");
        assert_eq!(back, TraceEvent::TxnCommit { txn: MAX_TXN_ID });
    }

    #[test]
    fn phase_cycles_clamp_to_40_bits() {
        let ev = TraceEvent::TxnPhase {
            phase: 3,
            cycles: u64::MAX,
        };
        let (back, _) = TraceEvent::unpack(ev.pack(0)).expect("known kind");
        assert_eq!(
            back,
            TraceEvent::TxnPhase {
                phase: 3,
                cycles: MAX_PHASE_CYCLES,
            }
        );
    }

    #[test]
    fn controller_decision_truncates_to_payload_fields() {
        let ev = TraceEvent::ControllerDecision {
            window: u16::MAX,
            threshold_milli: u32::MAX,
            decision: u8::MAX,
        };
        let (back, _) = TraceEvent::unpack(ev.pack(0)).expect("known kind");
        assert_eq!(
            back,
            TraceEvent::ControllerDecision {
                window: u16::MAX,
                threshold_milli: 0xFF_FFFF,
                decision: 0b11,
            }
        );
    }
}
