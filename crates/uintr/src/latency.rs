//! Delivery-latency measurement (paper §6.1: "user interrupt delivery
//! latency between two POSIX threads is consistently lower than 1 µs").
//!
//! Two experiments, same structure: a sender thread posts an interrupt, a
//! receiver thread observes it, and we record the post→observation TSC
//! delta.
//!
//! * [`uintr_latency_samples`] — the user-level path: the receiver spins on
//!   preemption points (a relaxed load); observation is the handler firing.
//! * [`signal_latency_samples`] — the kernel-mediated path: the receiver
//!   spins likewise, but the *notification* travels through
//!   `pthread_kill`/the kernel's signal machinery; observation is the
//!   signal handler stamping arrival.
//!
//! On a multi-core host the user-level path lands well under 1 µs and the
//! signal path an order of magnitude above it — the paper's motivating gap.
//! On a single-core host both paths include scheduler noise; report
//! medians (the harness does).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::cycles::rdtsc;
use crate::receiver::UintrReceiver;
use crate::signal;
use crate::upid::UipiSender;

/// Measures `n` post→delivery latencies (in TSC cycles) for the emulated
/// user-interrupt path.
pub fn uintr_latency_samples(n: usize) -> Vec<u64> {
    let ready = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let arrival = Arc::new(AtomicU64::new(0));
    // Receiver thread: registers a handler that stamps arrival, then spins
    // on poll() — the tightest possible preemption-point loop.
    let (r, s, a) = (ready.clone(), stop.clone(), arrival.clone());
    let (upid_tx, upid_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let mut rx = UintrReceiver::new();
        let a2 = a.clone();
        rx.register_handler(move |_| {
            a2.store(rdtsc(), Ordering::Release);
        });
        upid_tx
            .send(rx.upid())
            .expect("main thread holds the receiving end for the whole run");
        r.store(true, Ordering::Release);
        while !s.load(Ordering::Acquire) {
            rx.poll();
            std::hint::spin_loop();
        }
    });
    let upid = upid_rx
        .recv()
        .expect("receiver thread sends its UPID before spinning");
    let sender = UipiSender::new(upid, 0);
    while !ready.load(Ordering::Acquire) {
        std::thread::yield_now();
    }

    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        arrival.store(0, Ordering::Release);
        let t0 = rdtsc();
        sender.send();
        // Wait for the handler to stamp arrival.
        let mut t1;
        loop {
            t1 = arrival.load(Ordering::Acquire);
            if t1 != 0 {
                break;
            }
            std::thread::yield_now();
        }
        samples.push(t1.saturating_sub(t0));
    }
    stop.store(true, Ordering::Release);
    handle
        .join()
        .expect("measurement thread only exits via the stop flag");
    samples
}

/// Measures `n` kick→signal-handler latencies (in TSC cycles) for the
/// kernel-mediated path.
pub fn signal_latency_samples(n: usize) -> Vec<u64> {
    let stop = Arc::new(AtomicBool::new(false));
    let s = stop.clone();
    let (kick_tx, kick_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let upid = crate::upid::Upid::new();
        let kicker = signal::SignalKicker::for_current_thread(upid, 0)
            .expect("sigaction for the kick signal is installable");
        kick_tx
            .send(kicker)
            .expect("main thread holds the receiving end for the whole run");
        // Busy loop so the signal interrupts running userspace code, the
        // scenario the paper's preemption targets.
        while !s.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
    });
    let kicker = kick_rx
        .recv()
        .expect("target thread sends its kicker before spinning");

    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let before = signal::handled_count();
        let t0 = kicker
            .kick()
            .expect("measurement target thread is pinned alive until stop");
        loop {
            if signal::handled_count() != before {
                break;
            }
            std::thread::yield_now();
        }
        let t1 = signal::last_arrival_tsc();
        samples.push(t1.saturating_sub(t0));
    }
    stop.store(true, Ordering::Release);
    handle
        .join()
        .expect("measurement thread only exits via the stop flag");
    samples
}

/// Median of a sample set (destructive ordering; empty → 0).
pub fn median(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mid = samples.len() / 2;
    *samples.select_nth_unstable(mid).1
}

/// Percentile `p` in `[0, 100]` of a sample set, as `Histogram::percentile`
/// and every other percentile in the workspace take it (destructive
/// ordering; empty → 0).
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let idx = ((samples.len() - 1) as f64 * p / 100.0).round() as usize;
    *samples.select_nth_unstable(idx).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uintr_latency_measures_something() {
        let mut s = uintr_latency_samples(50);
        assert_eq!(s.len(), 50);
        assert!(median(&mut s) > 0);
    }

    #[test]
    fn signal_latency_measures_something() {
        let mut s = signal_latency_samples(20);
        assert_eq!(s.len(), 20);
        assert!(median(&mut s) > 0);
    }

    #[test]
    fn median_and_percentile_basics() {
        let mut v = vec![5, 1, 9, 3, 7];
        assert_eq!(median(&mut v), 5);
        let mut v = vec![10, 20, 30, 40];
        assert_eq!(percentile(&mut v, 0.0), 10);
        assert_eq!(percentile(&mut v, 100.0), 40);
        assert_eq!(median(&mut []), 0);
    }

    #[test]
    fn percentile_takes_percent_not_fraction() {
        let sample = [13, 2, 8, 21, 1, 5, 3, 34, 1];
        let mut v = sample.to_vec();
        let mid = median(&mut v);
        assert_eq!(mid, 5);
        assert_eq!(percentile(&mut sample.to_vec(), 50.0), mid);
        assert_eq!(percentile(&mut sample.to_vec(), 100.0), 34);
        // A fraction passed by mistake lands at the bottom of the sample,
        // which is how a "p99" once read below its median.
        assert_eq!(percentile(&mut sample.to_vec(), 0.99), 1);
    }
}
