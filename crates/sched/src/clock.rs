//! Unified cycle clock: virtual time inside a simulation, `rdtscp`
//! (paper §5) on real threads.

use preempt_uintr::cycles;

/// Current time in cycles. Inside a running simulation this is the
/// virtual clock; otherwise the TSC.
#[inline]
pub fn now_cycles() -> u64 {
    match preempt_sim::api::try_now_cycles() {
        Some(t) => t,
        None => monotonic_tsc(),
    }
}

/// TSC read clamped to a thread-local high-water mark. Raw TSC values can
/// step backward (cross-socket migration, unsynchronized TSCs, VM
/// migration); without the clamp, elapsed-time subtractions all over the
/// scheduler would wrap to huge values. Sim virtual clocks are
/// deliberately not clamped: distinct simulated cores share one OS
/// thread, so their clocks legitimately interleave non-monotonically.
#[inline]
fn monotonic_tsc() -> u64 {
    use std::cell::Cell;
    thread_local! {
        static HIGH_WATER: Cell<u64> = const { Cell::new(0) };
    }
    HIGH_WATER.with(|hw| {
        let t = cycles::rdtsc().max(hw.get());
        hw.set(t);
        t
    })
}

/// Charges virtual cycles when running under the simulator (on real
/// threads the work itself costs real time).
#[inline]
pub(crate) fn charge(cycles: u64) {
    if preempt_sim::api::active() {
        preempt_sim::api::advance(cycles);
    }
}

/// Cycles per second of [`now_cycles`]'s time base.
pub fn freq_hz() -> u64 {
    if preempt_sim::api::active() {
        preempt_sim::api::config().freq_hz
    } else {
        cycles::tsc_hz()
    }
}

/// Converts a cycle count from [`now_cycles`]'s time base to
/// microseconds (0.0 if the frequency probe reports zero).
pub fn cycles_to_us(cycles: u64) -> f64 {
    let hz = freq_hz();
    if hz == 0 {
        return 0.0;
    }
    cycles as f64 * 1e6 / hz as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_advances() {
        let a = now_cycles();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let b = now_cycles();
        assert!(b > a);
    }

    #[test]
    fn real_clock_never_steps_backward() {
        let mut last = 0u64;
        for _ in 0..100_000 {
            let t = now_cycles();
            assert!(t >= last, "non-monotonic: {t} < {last}");
            last = t;
        }
    }

    #[test]
    fn sim_clock_wins_inside_simulation() {
        use preempt_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig::default());
        sim.spawn_core("c", 64 * 1024, || {
            assert_eq!(now_cycles(), 0);
            preempt_context::runtime::preempt_point(777);
            assert_eq!(now_cycles(), 777);
            assert_eq!(freq_hz(), 2_400_000_000);
        });
        sim.run();
    }
}
