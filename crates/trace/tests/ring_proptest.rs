//! Property tests for the trace ring: encode/decode round trips,
//! wraparound retention, and multi-ring merge ordering.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;

use preempt_trace::clock::install_thread_clock;
use preempt_trace::{merge_snapshots, TraceEvent, TraceRing, MAX_TXN_ID};

/// A strategy covering every event kind with payloads inside the ranges
/// the 48-bit encoding preserves losslessly.
fn any_event() -> BoxedStrategy<TraceEvent> {
    prop_oneof![
        (any::<u16>(), any::<u8>())
            .prop_map(|(target, vector)| TraceEvent::UipiSent { target, vector }),
        (0u64..1 << 48).prop_map(|vectors| TraceEvent::PendingNoticed { vectors }),
        any::<u8>().prop_map(|vector| TraceEvent::HandlerEnter { vector }),
        any::<u8>().prop_map(|vector| TraceEvent::HandlerExit { vector }),
        (any::<u8>(), any::<u8>()).prop_map(|(from, to)| TraceEvent::StackSwitch { from, to }),
        (0u64..=MAX_TXN_ID, any::<u8>())
            .prop_map(|(txn, priority)| TraceEvent::TxnBegin { txn, priority }),
        (0u64..=MAX_TXN_ID).prop_map(|txn| TraceEvent::TxnCommit { txn }),
        (0u64..=MAX_TXN_ID).prop_map(|txn| TraceEvent::TxnAbort { txn }),
        any::<bool>().prop_map(|on| TraceEvent::Degrade { on }),
        any::<u16>().prop_map(|target| TraceEvent::WatchdogResend { target }),
        any::<u8>().prop_map(|site| TraceEvent::StarvationBoost { site }),
        (0u8..2).prop_map(|mode| TraceEvent::LatchAcquire { mode }),
        (0u8..2).prop_map(|mode| TraceEvent::LatchRelease { mode }),
        (0u64..=MAX_TXN_ID).prop_map(|txn| TraceEvent::TxnPanic { txn }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// pack → unpack is the identity for every event kind and depth.
    #[test]
    fn encode_decode_round_trips(ev in any_event(), depth in any::<u8>()) {
        let word = ev.pack(depth);
        prop_assert_eq!(TraceEvent::unpack(word), Some((ev, depth)));
    }

    /// After arbitrarily many emits, the ring holds exactly the newest
    /// `min(n, capacity)` events in order, and reports the rest dropped.
    #[test]
    fn wraparound_keeps_newest_n(
        events in prop::collection::vec(any_event(), 1..200),
        cap in 2usize..40,
    ) {
        let ring = TraceRing::new("t", 0, cap);
        for ev in &events {
            ring.emit(*ev);
        }
        let snap = ring.snapshot();
        let cap = ring.capacity();
        let expect_kept = events.len().min(cap);
        let expect_dropped = (events.len() - expect_kept) as u64;
        prop_assert_eq!(snap.dropped, expect_dropped);
        prop_assert_eq!(snap.events.len(), expect_kept);
        for (r, ev) in snap.events.iter().zip(&events[events.len() - expect_kept..]) {
            prop_assert_eq!(r.event, *ev);
        }
        // Sequence numbers are the global emit indices of the survivors.
        for (i, r) in snap.events.iter().enumerate() {
            prop_assert_eq!(r.seq, expect_dropped + i as u64);
        }
    }

    /// Merging K rings yields a globally `(ts, worker, seq)`-ordered
    /// trace containing every surviving record, with drop counts summed.
    #[test]
    fn merge_orders_k_rings_globally(
        per_ring in prop::collection::vec(
            prop::collection::vec((0u64..1000, any_event()), 0..50),
            1..6,
        ),
    ) {
        let now = Rc::new(Cell::new(0u64));
        let clk = Rc::clone(&now);
        let _guard = install_thread_clock(Rc::new(move || clk.get()));
        let mut snaps = Vec::new();
        for (w, events) in per_ring.iter().enumerate() {
            let ring = TraceRing::new("worker", w as u16, 64);
            for (ts, ev) in events {
                now.set(*ts);
                ring.emit(*ev);
            }
            snaps.push(ring.snapshot());
        }
        let merged = merge_snapshots(&snaps);
        let total: usize = per_ring.iter().map(Vec::len).sum();
        prop_assert_eq!(merged.len(), total);
        prop_assert_eq!(merged.dropped, 0);
        for pair in merged.records.windows(2) {
            let a = (pair[0].ts, pair[0].worker, pair[0].seq);
            let b = (pair[1].ts, pair[1].worker, pair[1].seq);
            prop_assert!(a < b, "merge out of order: {a:?} !< {b:?}");
        }
        // Per-ring order (and content) survives the merge.
        for (w, events) in per_ring.iter().enumerate() {
            let kept: Vec<TraceEvent> = merged
                .worker_records(w as u16)
                .iter()
                .map(|r| r.event)
                .collect();
            let sent: Vec<TraceEvent> = events.iter().map(|(_, e)| *e).collect();
            prop_assert_eq!(kept, sent);
        }
    }
}
