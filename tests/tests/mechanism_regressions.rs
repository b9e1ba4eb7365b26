//! Regression tests for the correctness mechanisms of paper §4: each test
//! demonstrates both that the mechanism works *and* (where feasible) that
//! removing it breaks the system in exactly the way the paper warns.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use preemptdb::context::nonpreempt::NonPreemptGuard;
use preemptdb::context::switch::{switch_to, Context};
use preemptdb::context::tcb::{self, CtxState, Tcb};
use preemptdb::mvcc::{log as redo_log, TableId};
use preemptdb::uintr::{UintrReceiver, UipiSender};

/// §4.4's same-worker latch deadlock: context 1 is preempted while
/// holding a latch; context 2 on the *same* worker then spins on it.
/// With the non-preemptible region omitted, the latch's spin bound must
/// diagnose the deadlock (no lock ordering can prevent it).
#[test]
fn missing_nonpreemptible_region_deadlocks_and_is_diagnosed() {
    let latch = Arc::new(preemptdb::mvcc::Latch::new());

    // Context 1: takes the latch WITHOUT a non-preemptible region, then
    // gets "preempted" (switches away mid-critical-section).
    let root = tcb::root_ptr() as usize;
    let l1 = latch.clone();
    let ctx1 = Context::with_default_stack("holder", move || {
        let _guard = l1.write();
        // Preempted while holding the latch (the bug the paper's
        // non-preemptible regions exist to prevent).
        switch_to(unsafe { &*(root as *const Tcb) });
        // Never resumed in this test.
    })
    .unwrap();
    ctx1.resume(); // runs until the switch; latch is now held

    // Context 2 (same worker thread): tries to take the latch. The
    // holder can never run again while we spin — a same-thread deadlock.
    // The spin bound converts the silent hang into a diagnosed panic,
    // which the context machinery captures as a poisoned context.
    let l2 = latch.clone();
    let ctx2 = Context::with_default_stack("spinner", move || {
        let _guard = l2.write(); // must panic via the spin bound
    })
    .unwrap();
    ctx2.resume();

    assert_eq!(ctx2.tcb().state(), CtxState::Poisoned);
    let msg = ctx2.tcb().panic_message().expect("captured diagnosis");
    assert!(
        msg.contains("same-thread deadlock"),
        "diagnostic names the failure: {msg}"
    );
    assert!(latch.is_held(), "the holder still owns the latch");
}

/// The same pattern, protected the way the engine does it: the region
/// defers the preemption, so the latch is released before the switch.
#[test]
fn nonpreemptible_region_prevents_the_deadlock() {
    let latch = Arc::new(preemptdb::mvcc::Latch::new());
    let deferred = Arc::new(AtomicU64::new(0));

    let l1 = latch.clone();
    let d1 = deferred.clone();
    let mut rx = UintrReceiver::new();
    rx.register_handler(move |_| {
        // Would-be preemption point handler; in the engine this switches
        // contexts. Here we only count deliveries.
        d1.fetch_add(1, Ordering::Relaxed);
    });
    let tx = UipiSender::new(rx.upid(), 1);

    {
        let _np = NonPreemptGuard::enter();
        let _guard = l1.write();
        tx.send();
        // Delivery attempt inside the critical section defers.
        assert_eq!(rx.poll(), 0, "deferred while latched");
        assert_eq!(deferred.load(Ordering::Relaxed), 0);
    }
    // After the region (and latch) are released, delivery proceeds.
    assert_eq!(rx.poll(), 1);
    assert_eq!(deferred.load(Ordering::Relaxed), 1);
    assert!(!latch.is_held());
}

/// The same deadlock through the indexes. Only their *writers* latch (a
/// tree leaf, a hash shard), and they do so inside a non-preemptible
/// region; `with_write_latch_held` takes the latch without one, and the
/// holder is preempted. Everything a sibling context then does with that
/// key's leaf or shard — insert, remove, even the latch-free `get`, which
/// waits for the writer to finish before it reads — spins on a holder
/// that cannot run, and the shared spin bound must say so.
#[test]
fn index_writer_without_nonpreemptible_region_deadlocks_and_is_diagnosed() {
    use preemptdb::mvcc::{HashIndex, OrderedIndex};
    type Op = fn(&HashIndex, &OrderedIndex);
    let cases: [(&str, bool, Op); 4] = [
        ("hash insert", true, |h, _| assert!(h.insert(7, 1))),
        ("hash get", true, |h, _| assert!(h.get(7).is_some())),
        ("ordered remove", false, |_, o| assert!(o.remove(7).is_some())),
        ("ordered get", false, |_, o| assert!(o.get(7).is_some())),
    ];
    for (what, on_hash, op) in cases {
        let hash = Arc::new(HashIndex::new("pk"));
        let ordered = Arc::new(OrderedIndex::new("range"));
        assert!(hash.insert(7, 70) && ordered.insert(7, 70));

        let root = tcb::root_ptr() as usize;
        let (h1, o1) = (hash.clone(), ordered.clone());
        let holder = Context::with_default_stack("holder", move || {
            // Preempted while holding the write latch; never resumed.
            let preempted = || switch_to(unsafe { &*(root as *const Tcb) });
            if on_hash {
                h1.with_write_latch_held(7, preempted)
            } else {
                o1.with_write_latch_held(7, preempted)
            }
        })
        .unwrap();
        holder.resume();

        let (h2, o2) = (hash.clone(), ordered.clone());
        let spinner = Context::with_default_stack("spinner", move || op(&h2, &o2)).unwrap();
        spinner.resume();
        assert_eq!(spinner.tcb().state(), CtxState::Poisoned, "{what}");
        let msg = spinner.tcb().panic_message().expect("captured diagnosis");
        assert!(msg.contains("same-thread deadlock"), "{what}: {msg}");
    }
}

/// Protected the way the index writers do it: the region defers the
/// preemption, so the latch is released before the switch, and the
/// sibling's operations on the same leaf and shard go through.
#[test]
fn nonpreemptible_region_prevents_the_index_writer_deadlock() {
    use preemptdb::mvcc::{HashIndex, OrderedIndex};
    let hash = HashIndex::new("pk");
    let ordered = OrderedIndex::new("range");
    assert!(hash.insert(7, 70) && ordered.insert(7, 70));

    let delivered = Arc::new(AtomicU64::new(0));
    let d = delivered.clone();
    let mut rx = UintrReceiver::new();
    rx.register_handler(move |_| {
        d.fetch_add(1, Ordering::Relaxed);
    });
    let tx = UipiSender::new(rx.upid(), 1);

    for on_hash in [true, false] {
        let before = delivered.load(Ordering::Relaxed);
        {
            let _np = NonPreemptGuard::enter();
            let latched = || {
                tx.send();
                assert_eq!(rx.poll(), 0, "deferred while latched");
            };
            if on_hash {
                hash.with_write_latch_held(7, latched)
            } else {
                ordered.with_write_latch_held(7, latched)
            }
            assert_eq!(delivered.load(Ordering::Relaxed), before);
        }
        // After the region (and the latch) are released, delivery
        // proceeds, and whoever runs next finds the index free.
        assert_eq!(rx.poll(), 1);
        assert_eq!(delivered.load(Ordering::Relaxed), before + 1);
        assert_eq!((hash.get(7), ordered.get(7)), (Some(70), Some(70)));
        assert!(!hash.insert(7, 1) && !ordered.insert(7, 1));
    }
    assert_eq!((hash.remove(7), ordered.remove(7)), (Some(70), Some(70)));
}

/// §4.3's CLS-necessity demonstration: two transaction contexts on one
/// worker write redo entries "concurrently" (interleaved by preemption).
/// With CLS (the engine's actual log buffer), both logs stay coherent.
#[test]
fn cls_keeps_interleaved_redo_logs_coherent() {
    let mgr = Arc::new(preemptdb::mvcc::log::LogManager::new(true));
    let root = tcb::root_ptr() as usize;

    // Transaction A runs on the worker's main context (txid 1).
    redo_log::append_redo(1, TableId(0), 11, b"A-first");

    // Preemption: transaction B runs on the second context (txid 2),
    // writes, yields back mid-transaction, A writes again, B finishes.
    let m = mgr.clone();
    let ctx_b = Context::with_default_stack("txn-b", move || {
        redo_log::append_redo(2, TableId(0), 21, b"B-first");
        switch_to(unsafe { &*(root as *const Tcb) });
        redo_log::append_redo(2, TableId(0), 22, b"B-second");
        redo_log::flush_commit(&m, 2, 200);
    })
    .unwrap();

    ctx_b.resume(); // B writes its first entry
    redo_log::append_redo(1, TableId(0), 12, b"A-second");
    ctx_b.resume(); // B finishes and flushes
    redo_log::flush_commit(&mgr, 1, 100);

    let chunks = mgr.captured();
    assert_eq!(chunks.len(), 2);
    for chunk in &chunks {
        let entries = preemptdb::mvcc::log::parse_chunk(chunk).expect("well-formed chunk");
        let txid = entries[0].txid;
        assert!(
            entries.iter().all(|e| e.txid == txid),
            "no foreign entries interleaved: {entries:?}"
        );
        // Per-transaction order is preserved.
        let payloads: Vec<&[u8]> = entries[..entries.len() - 1]
            .iter()
            .map(|e| e.payload.as_slice())
            .collect();
        if txid == 1 {
            assert_eq!(payloads, vec![b"A-first".as_ref(), b"A-second".as_ref()]);
        } else {
            assert_eq!(payloads, vec![b"B-first".as_ref(), b"B-second".as_ref()]);
        }
    }
}

/// Counter-demonstration: the same interleaving through a plain
/// `thread_local!` buffer corrupts the log — transaction A's flush
/// carries B's entries. This is the §4.3 bug CLS exists to fix.
#[test]
fn thread_local_buffer_corrupts_interleaved_logs() {
    thread_local! {
        static BROKEN_BUF: std::cell::RefCell<Vec<(u64, Vec<u8>)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    fn broken_append(txid: u64, payload: &[u8]) {
        BROKEN_BUF.with(|b| b.borrow_mut().push((txid, payload.to_vec())));
    }
    fn broken_flush(txid: u64) -> Vec<(u64, Vec<u8>)> {
        BROKEN_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()))
            .into_iter()
            .inspect(|_| {
                let _ = txid;
            })
            .collect()
    }

    let root = tcb::root_ptr() as usize;
    broken_append(1, b"A-first");
    let flushed_b: Rc<Cell<usize>> = Rc::new(Cell::new(0));
    let fb = flushed_b.clone();
    // Single-threaded: smuggle the Rc through a raw pointer.
    let fb_ptr = Rc::into_raw(fb) as usize;
    let ctx_b = Context::with_default_stack("txn-b-broken", move || {
        broken_append(2, b"B-first");
        switch_to(unsafe { &*(root as *const Tcb) });
        broken_append(2, b"B-second");
        let chunk = broken_flush(2);
        // SAFETY: the Rc outlives the context (held by the test).
        let fb = unsafe { Rc::from_raw(fb_ptr as *const Cell<usize>) };
        fb.set(chunk.len());
        let _ = Rc::into_raw(fb);
    })
    .unwrap();

    ctx_b.resume();
    broken_append(1, b"A-second");
    ctx_b.resume();
    let chunk_a = broken_flush(1);

    // B's flush swept up A's entries (and vice versa): corruption.
    let b_len = flushed_b.get();
    assert!(
        b_len != 2 || chunk_a.iter().any(|(t, _)| *t != 1),
        "plain TLS must corrupt: B flushed {b_len} entries, A's chunk: {chunk_a:?}"
    );
    // Clean up the smuggled Rc.
    unsafe { Rc::decrement_strong_count(fb_ptr as *const Cell<usize>) };
}

/// §4.2's atomic active switch: a delivery attempt landing inside the
/// switch window is deferred (the Algorithm 1 instruction-pointer check
/// analog), and the pending interrupt survives to the next point.
#[test]
fn delivery_during_switch_window_is_deferred() {
    let mut rx = UintrReceiver::new();
    let fired = Arc::new(AtomicU64::new(0));
    let f = fired.clone();
    rx.register_handler(move |_| {
        f.fetch_add(1, Ordering::Relaxed);
    });
    let tx = UipiSender::new(rx.upid(), 0);
    tx.send();

    preemptdb::context::switch::set_switch_in_progress(true);
    assert_eq!(rx.poll(), 0, "mid-switch: deferred");
    assert_eq!(fired.load(Ordering::Relaxed), 0);
    assert!(tcb::with_current(|t| t.has_deferred()));
    preemptdb::context::switch::set_switch_in_progress(false);

    assert_eq!(rx.poll(), 1, "delivered after the window closes");
    assert_eq!(fired.load(Ordering::Relaxed), 1);
}

/// End-to-end passive preemption: the uintr handler performs a real
/// context switch into a drain context and back, resuming the preempted
/// computation exactly where it paused (Figure 6).
#[test]
fn handler_driven_context_switch_round_trip() {
    struct Shared {
        drain: Cell<*const Tcb>,
        log: std::cell::RefCell<Vec<&'static str>>,
    }
    let shared = Rc::new(Shared {
        drain: Cell::new(std::ptr::null()),
        log: std::cell::RefCell::new(Vec::new()),
    });

    let s = shared.clone();
    let s_ptr = Rc::as_ptr(&s) as usize;
    let mut rx = UintrReceiver::new();
    rx.register_handler(move |_| {
        // The handler body = the paper's uintr_handler_helper: perform
        // the passive switch into the preemptive context.
        let sh = unsafe { &*(s_ptr as *const Shared) };
        sh.log.borrow_mut().push("handler");
        switch_to(unsafe { &*sh.drain.get() });
        sh.log.borrow_mut().push("handler-return");
    });
    let tx = UipiSender::new(rx.upid(), 1);

    let root = tcb::root_ptr() as usize;
    let s2 = shared.clone();
    let s2_ptr = Rc::as_ptr(&s2) as usize;
    let drain = Context::with_default_stack("drain", move || loop {
        let sh = unsafe { &*(s2_ptr as *const Shared) };
        sh.log.borrow_mut().push("high-priority-txn");
        switch_to(unsafe { &*(root as *const Tcb) });
    })
    .unwrap();
    shared.drain.set(drain.tcb_ptr());

    // The "long scan": interrupted at its second preemption point.
    shared.log.borrow_mut().push("scan-part-1");
    tx.send();
    rx.poll(); // preemption point -> handler -> drain -> back
    shared.log.borrow_mut().push("scan-part-2");

    assert_eq!(
        *shared.log.borrow(),
        vec![
            "scan-part-1",
            "handler",
            "high-priority-txn",
            "handler-return",
            "scan-part-2"
        ]
    );
    assert_eq!(drain.tcb().state(), CtxState::Suspended);
}
