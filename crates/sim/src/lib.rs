//! # preempt-sim
//!
//! Deterministic virtual-time multicore simulator: the substitute for the
//! paper's 32-core UINTR-enabled Xeon testbed (DESIGN.md §1.3).
//!
//! Simulated cores run **real engine code** on real stackful contexts;
//! only *time* is virtual. The scheduling experiments of §6 are therefore
//! executed with the actual PreemptDB mechanisms (user-interrupt posting,
//! handler-driven context switches, CLS swaps, non-preemptible deferral) —
//! the simulator merely decides when each core runs and what its clock
//! reads, making 16-core 30-second experiments reproducible on a 1-core
//! host in deterministic fashion.
//!
//! ```
//! use preempt_sim::{SimConfig, Simulation};
//!
//! let sim = Simulation::new(SimConfig::default());
//! sim.spawn_core("worker", 64 * 1024, || {
//!     // Engine code calls preempt_point(cost) at every operation; here
//!     // we model 3 operations of 1000 cycles each.
//!     for _ in 0..3 {
//!         preempt_context::runtime::preempt_point(1000);
//!     }
//!     assert_eq!(preempt_sim::api::now_cycles(), 3000);
//! });
//! sim.run();
//! assert_eq!(sim.final_vtime(), 3000);
//! ```

pub mod api;
pub mod config;
pub mod simulation;

pub use api::SimUipiSender;
pub use config::SimConfig;
pub use simulation::{CoreFailure, CoreId, CoreStats, Simulation};

#[cfg(test)]
mod tests {
    use super::*;
    use preempt_context::runtime::preempt_point;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Tiny Send+Sync event log for single-threaded sim tests.
    mod parking {
        use std::sync::Mutex;
        #[derive(Default)]
        pub struct Order(Mutex<Vec<(&'static str, u64)>>);
        impl Order {
            pub fn push(&self, v: (&'static str, u64)) {
                self.0.lock().unwrap().push(v);
            }
            pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
                self.0.lock().unwrap().clone()
            }
        }
    }

    #[test]
    fn single_core_advances_virtual_time() {
        let sim = Simulation::new(SimConfig::default());
        sim.spawn_core("c0", 64 * 1024, || {
            for _ in 0..10 {
                preempt_point(500);
            }
        });
        sim.run();
        assert_eq!(sim.final_vtime(), 5000);
        let stats = sim.core_stats(CoreId(0));
        assert_eq!(stats.busy_cycles, 5000);
        assert_eq!(stats.preempt_points, 10);
    }

    #[test]
    fn cores_interleave_by_virtual_time() {
        // A slow core (big ops) and a fast core (small ops): completion
        // times in virtual time must reflect cost, not spawn order.
        let order: Arc<parking::Order> = Arc::default();
        // A small slice forces fine-grained interleaving so completion
        // order tracks virtual time exactly.
        let sim = Simulation::new(SimConfig {
            max_slice_cycles: 50,
            ..SimConfig::default()
        });
        let (o1, o2) = (order.clone(), order.clone());
        sim.spawn_core("slow", 64 * 1024, move || {
            preempt_point(10_000);
            o1.push(("slow", api::now_cycles()));
        });
        sim.spawn_core("fast", 64 * 1024, move || {
            preempt_point(100);
            o2.push(("fast", api::now_cycles()));
        });
        sim.run();
        let v = order.snapshot();
        assert_eq!(v[0], ("fast", 100));
        assert_eq!(v[1], ("slow", 10_000));
    }

    #[test]
    fn sleep_until_wakes_at_the_right_time() {
        let observed = Arc::new(AtomicU64::new(0));
        let o = observed.clone();
        let sim = Simulation::new(SimConfig::default());
        sim.spawn_core("sleeper", 64 * 1024, move || {
            api::sleep_until(123_456);
            o.store(api::now_cycles(), Ordering::Relaxed);
        });
        sim.run();
        assert_eq!(observed.load(Ordering::Relaxed), 123_456);
    }

    #[test]
    fn block_and_wake_across_cores() {
        let woke_at = Arc::new(AtomicU64::new(0));
        let w = woke_at.clone();
        let sim = Simulation::new(SimConfig::default());
        let blocked = sim.spawn_core("blocked", 64 * 1024, move || {
            api::block();
            w.store(api::now_cycles(), Ordering::Relaxed);
        });
        sim.spawn_core("waker", 64 * 1024, move || {
            preempt_point(7_000); // do some work first
            api::wake(blocked);
        });
        sim.run();
        assert_eq!(
            woke_at.load(Ordering::Relaxed),
            7_000,
            "blocked core inherits the waker's virtual time"
        );
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn forever_blocked_core_is_a_deadlock() {
        let sim = Simulation::new(SimConfig::default());
        sim.spawn_core("stuck", 64 * 1024, api::block);
        sim.run();
    }

    #[test]
    fn core_panic_is_contained() {
        // A panicking core is recorded and retired; its peers finish.
        let survivor_done = Arc::new(AtomicU64::new(0));
        let s = survivor_done.clone();
        let sim = Simulation::new(SimConfig::default());
        let bad = sim.spawn_core("bad", 64 * 1024, || {
            preempt_point(500);
            panic!("boom");
        });
        sim.spawn_core("survivor", 64 * 1024, move || {
            preempt_point(10_000);
            s.store(api::now_cycles(), Ordering::Relaxed);
        });
        sim.run();
        assert_eq!(
            survivor_done.load(Ordering::Relaxed),
            10_000,
            "peer cores keep running after a contained panic"
        );
        let failures = sim.core_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].core, bad);
        assert_eq!(failures[0].name, "bad");
        assert_eq!(failures[0].message, "boom");
        assert_eq!(failures[0].at, 500);
    }

    thread_local! {
        static UPID_CHAN: RefCell<Option<Arc<preempt_uintr::Upid>>> =
            const { RefCell::new(None) };
    }

    #[test]
    fn uintr_delivery_has_configured_latency() {
        // Receiver core spins at preemption points; sender posts at a
        // known virtual time; the handler records delivery time.
        let cfg = SimConfig::default();
        let lat = cfg.uintr_delivery_cycles;
        let delivered_at = Arc::new(AtomicU64::new(0));
        let sim = Simulation::new(cfg);

        let d = delivered_at.clone();
        let rx_core = sim.spawn_core("rx", 64 * 1024, move || {
            let mut rx = preempt_uintr::UintrReceiver::new();
            let d2 = d.clone();
            rx.register_handler(move |_| {
                d2.store(api::now_cycles(), Ordering::Relaxed);
            });
            let rx = Rc::new(rx);
            api::bind_receiver(rx.clone());
            // Expose the UPID to the sender core through a side channel
            // (both cores run on the same OS thread).
            UPID_CHAN.with(|c| *c.borrow_mut() = Some(rx.upid()));
            // Let the sender core reach its sleep first so its timed
            // wake-up bounds our grants (as the scheduler's arrival pacing
            // does in the real experiments; see module docs on causality).
            api::sleep_until(1);
            // Spin in small ops until delivery happens.
            while d.load(Ordering::Relaxed) == 0 {
                preempt_point(100);
            }
        });

        sim.spawn_core("tx", 64 * 1024, move || {
            // The receiver registered its UPID at vtime 0. Sleep (a timed
            // event, like the paper's scheduler pacing arrivals) so the
            // receiver's grants are bounded by our wake-up, then send.
            api::sleep_until(10_000);
            let upid = UPID_CHAN.with(|c| c.borrow().clone()).expect("upid ready");
            SimUipiSender::new(upid, 0, rx_core).send();
        });

        sim.run();
        let t = delivered_at.load(Ordering::Relaxed);
        assert!(t >= 10_000 + lat, "delivered no earlier than send+latency");
        assert!(
            t <= 10_000 + lat + 200,
            "delivered promptly after latency: t={t}, expected <= {}",
            10_000 + lat + 200
        );
    }

    #[test]
    fn max_slice_bounds_run_ahead() {
        // With two free-running cores and no timers, neither core's clock
        // should ever be more than ~max_slice ahead when the other runs.
        let cfg = SimConfig {
            max_slice_cycles: 1_000,
            ..SimConfig::default()
        };
        let max_skew = Arc::new(AtomicU64::new(0));
        let sim = Simulation::new(cfg);
        let other_clock = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let skew = max_skew.clone();
            let other = other_clock.clone();
            sim.spawn_core("racer", 64 * 1024, move || {
                for _ in 0..100 {
                    preempt_point(100);
                    let mine = api::now_cycles();
                    let theirs = other.swap(mine, Ordering::Relaxed);
                    let d = mine.saturating_sub(theirs);
                    skew.fetch_max(d, Ordering::Relaxed);
                }
            });
        }
        sim.run();
        // Each core runs 10 ops (1000 cycles) per grant; skew bounded by
        // one slice plus one op.
        assert!(max_skew.load(Ordering::Relaxed) <= 1_100);
    }

    #[test]
    fn try_now_outside_sim_is_none() {
        assert_eq!(api::try_now_cycles(), None);
        assert!(!api::active());
    }

    #[test]
    fn wake_at_schedules_a_timed_wakeup() {
        let woke = Arc::new(AtomicU64::new(0));
        let w = woke.clone();
        let sim = Simulation::new(SimConfig::default());
        let sleeper = sim.spawn_core("sleeper", 64 * 1024, move || {
            api::block();
            w.store(api::now_cycles(), Ordering::Relaxed);
        });
        sim.spawn_core("alarm", 64 * 1024, move || {
            api::wake_at(9_999, sleeper);
        });
        sim.run();
        assert_eq!(woke.load(Ordering::Relaxed), 9_999);
    }

    #[test]
    fn core_stats_and_final_vtime() {
        let sim = Simulation::new(SimConfig::default());
        let a = sim.spawn_core("a", 64 * 1024, || {
            for _ in 0..4 {
                preempt_point(1_000);
            }
        });
        let b = sim.spawn_core("b", 64 * 1024, || {
            api::sleep_until(20_000);
        });
        sim.run();
        let sa = sim.core_stats(a);
        assert_eq!(sa.busy_cycles, 4_000);
        assert_eq!(sa.preempt_points, 4);
        assert_eq!(sa.final_vclock, 4_000);
        let sb = sim.core_stats(b);
        assert_eq!(sb.busy_cycles, 0, "sleeping costs no busy cycles");
        assert_eq!(sb.final_vclock, 20_000);
        assert_eq!(sim.final_vtime(), 20_000);
    }

    #[test]
    fn advance_charges_without_preemption_check() {
        let sim = Simulation::new(SimConfig::default());
        let c = sim.spawn_core("c", 64 * 1024, || {
            api::advance(5_000);
            assert_eq!(api::now_cycles(), 5_000);
        });
        sim.run();
        let s = sim.core_stats(c);
        assert_eq!(s.busy_cycles, 5_000);
        assert_eq!(s.preempt_points, 0);
    }

    #[test]
    fn yield_now_round_robins() {
        let log: Arc<parking::Order> = Arc::default();
        let sim = Simulation::new(SimConfig::default());
        for name in ["a", "b"] {
            let l = log.clone();
            sim.spawn_core("yielder", 64 * 1024, move || {
                for _ in 0..3 {
                    l.push((name, api::now_cycles()));
                    preempt_point(10);
                    api::yield_now();
                }
            });
        }
        sim.run();
        let names: Vec<&str> = log.snapshot().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["a", "b", "a", "b", "a", "b"]);
    }
}
