//! Closed-loop load generator for the network front door.
//!
//! Each generator thread owns one TCP connection of one SLO class and
//! keeps exactly one request in flight: send, block on the reply, record
//! latency, send the next (the classic closed-loop client the paper's
//! evaluation drives the system with). Rejections ([`Frame::Overloaded`])
//! are counted but do not terminate the loop — the client retries with
//! fresh requests, which is precisely the pressure pattern the admission
//! gate is designed to absorb.

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use preemptdb::sched::clock::now_cycles;
use preemptdb::sched::Histogram;

use crate::proto::{self, Frame, FrameReader, Op, SloClass, Status, PROTO_VERSION};

/// Workload mix for one connection, in percent. Remainder after
/// `read_pct + deposit_pct` goes to full-table `Sum` scans.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub read_pct: u32,
    pub deposit_pct: u32,
}

impl Mix {
    /// Paper-style Q1 traffic: short point operations only.
    pub fn point() -> Mix {
        Mix {
            read_pct: 50,
            deposit_pct: 50,
        }
    }

    /// Paper-style Q2 traffic: mostly scans with some writes.
    pub fn scan_heavy() -> Mix {
        Mix {
            read_pct: 10,
            deposit_pct: 20,
        }
    }

    fn pick(&self, roll: u64) -> Op {
        let r = (roll % 100) as u32;
        if r < self.read_pct {
            Op::Read
        } else if r < self.read_pct + self.deposit_pct {
            Op::Deposit
        } else {
            Op::Sum
        }
    }
}

/// Load-generator configuration for one class of connections.
#[derive(Clone, Debug)]
pub struct GenConfig {
    pub addr: String,
    pub class: SloClass,
    pub connections: usize,
    pub mix: Mix,
    pub duration: Duration,
    /// Deterministic seed; each connection derives its own stream.
    pub seed: u64,
}

/// Aggregate results for one class of connections.
#[derive(Clone, Debug, Default)]
pub struct GenReport {
    /// Requests that got an Ok/Failed/Panicked response.
    pub completed: u64,
    pub ok: u64,
    pub failed: u64,
    pub panicked: u64,
    /// Requests answered with `Overloaded`.
    pub rejected: u64,
    /// Connections that ended with a transport or protocol error.
    pub errors: u64,
    /// Client-observed round-trip latency (cycles).
    pub rtt: Histogram,
    /// Server-reported request latency (cycles), from `Resp` frames.
    pub server_latency: Histogram,
    /// Clock frequency reported by the server's `HelloOk`.
    pub freq_hz: u64,
}

impl GenReport {
    fn merge(&mut self, other: &GenReport) {
        self.completed += other.completed;
        self.ok += other.ok;
        self.failed += other.failed;
        self.panicked += other.panicked;
        self.rejected += other.rejected;
        self.errors += other.errors;
        self.rtt.merge(&other.rtt);
        self.server_latency.merge(&other.server_latency);
        if self.freq_hz == 0 {
            self.freq_hz = other.freq_hz;
        }
    }

    /// Client round-trip latency at percentile `p` in [0, 100] (as
    /// [`Histogram::percentile`] takes it), in microseconds.
    pub fn rtt_us(&self, p: f64) -> f64 {
        if self.freq_hz == 0 {
            return 0.0;
        }
        self.rtt.percentile(p) as f64 / self.freq_hz as f64 * 1e6
    }
}

/// Runs `cfg.connections` closed-loop clients until `cfg.duration`
/// elapses, then drains and merges their per-connection reports.
pub fn run(cfg: &GenConfig) -> GenReport {
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::with_capacity(cfg.connections);
    for i in 0..cfg.connections {
        let cfg = cfg.clone();
        let stop = stop.clone();
        let seed = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1);
        handles.push(
            std::thread::Builder::new()
                .name(format!("loadgen-{}-{i}", cfg.class.name()))
                .spawn(move || conn_loop(&cfg, seed, &stop))
                .expect("spawn loadgen thread"),
        );
    }
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Release);
    let mut total = GenReport::default();
    for h in handles {
        match h.join() {
            Ok(report) => total.merge(&report),
            Err(_) => total.errors += 1,
        }
    }
    total
}

/// Splitmix64 — deterministic per-connection stream without external deps.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn conn_loop(cfg: &GenConfig, seed: u64, stop: &AtomicBool) -> GenReport {
    let mut report = GenReport::default();
    let mut stream = match TcpStream::connect(cfg.addr.as_str()) {
        Ok(s) => s,
        Err(_) => {
            report.errors += 1;
            return report;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));

    let mut reader = FrameReader::new();
    if send(&mut stream, &Frame::Hello {
        version: PROTO_VERSION,
        class: cfg.class,
    })
    .is_err()
    {
        report.errors += 1;
        return report;
    }
    let accounts = match wait_frame(&mut stream, &mut reader) {
        Some(Frame::HelloOk { freq_hz, accounts }) => {
            report.freq_hz = freq_hz;
            accounts.max(2)
        }
        _ => {
            report.errors += 1;
            return report;
        }
    };

    let mut rng = seed;
    let mut id: u64 = 0;
    while !stop.load(Ordering::Acquire) {
        id += 1;
        let op = cfg.mix.pick(next_rand(&mut rng));
        let a = next_rand(&mut rng) % accounts;
        let b = next_rand(&mut rng) % accounts;
        let t0 = now_cycles();
        if send(&mut stream, &Frame::Req { id, op, a, b }).is_err() {
            report.errors += 1;
            return report;
        }
        match wait_frame(&mut stream, &mut reader) {
            Some(Frame::Resp {
                id: rid,
                status,
                latency_cycles,
                ..
            }) => {
                debug_assert_eq!(rid, id);
                report.completed += 1;
                match status {
                    Status::Ok => report.ok += 1,
                    Status::Failed => report.failed += 1,
                    Status::Panicked => report.panicked += 1,
                }
                report.rtt.record(now_cycles().saturating_sub(t0));
                report.server_latency.record(latency_cycles);
            }
            Some(Frame::Overloaded { id: rid }) => {
                debug_assert_eq!(rid, id);
                report.rejected += 1;
                report.rtt.record(now_cycles().saturating_sub(t0));
            }
            Some(_) | None => {
                // Server error frame, hangup, or reply timeout.
                report.errors += 1;
                return report;
            }
        }
    }
    report
}

fn send(stream: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    proto::write_frame(stream, frame)
}

/// Blocks until one complete frame arrives or the peer hangs up. A
/// request is always in flight when this is called, so the loop waits
/// through `stop` for the final reply — bounded by ~10s of read
/// timeouts so a dead server cannot wedge the generator.
fn wait_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Option<Frame> {
    let mut chunk = [0u8; 4096];
    let mut idle = 0u32;
    loop {
        match reader.next_frame() {
            Ok(Some(frame)) => return Some(frame),
            Ok(None) => {}
            Err(_) => return None,
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                idle = 0;
                reader.push(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                idle += 1;
                if idle > 200 {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `p` is a percentage, not a fraction. On the samples 1..=100 the
    /// rank of percentile p is ceil(p), so 0.99 is the smallest sample
    /// and 99.0 the 99th — passing 0.99 for "p99" reports the minimum.
    #[test]
    fn rtt_us_takes_a_percentage() {
        let mut report = GenReport {
            freq_hz: 1_000_000, // one cycle = one microsecond
            ..GenReport::default()
        };
        for v in 1..=100u64 {
            report.rtt.record(v);
        }
        // Values up to 32 are exact, above that within one 1/32 bucket.
        assert_eq!(report.rtt.percentile(0.99), 1);
        assert_eq!(report.rtt.percentile(50.0), 50);
        assert_eq!(report.rtt.percentile(99.0), 98, "99 lands in the 98..100 bucket");
        assert_ne!(report.rtt.percentile(0.99), report.rtt.percentile(99.0));
        assert_eq!(report.rtt_us(0.99), 1.0);
        assert_eq!(report.rtt_us(50.0), 50.0);
        assert_eq!(report.rtt_us(99.0), 98.0);
    }
}
