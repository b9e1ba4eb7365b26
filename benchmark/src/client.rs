//! The benchmark's side of the socket: a wire client with a reply
//! time-out that either sleeps in the kernel for its replies or polls for
//! them, and the loopback echo peer that gives the host's floor for
//! sleeping peers.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use preemptdb_server::proto::{Frame, FrameReader, SloClass, PROTO_VERSION};

use crate::recorder::Samples;

/// A reply slower than this is a failed operation: a wedged server fails
/// the run instead of hanging it.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Empty looks at a polling socket between two looks at the clock.
const LOOKS_PER_CLOCK_CHECK: u32 = 4096;

/// One connection of one SLO class, past its handshake.
pub struct Wire {
    stream: TcpStream,
    reader: FrameReader,
    polling: bool,
    /// The server's cycle-clock frequency, for `Resp.latency_cycles`.
    pub freq_hz: u64,
    pub accounts: u64,
}

impl Wire {
    /// Connects and shakes hands. A `polling` wire never sleeps in the
    /// kernel: its socket is non-blocking and [`Wire::recv`] yields the
    /// CPU between looks, so a reply needs no wake-up to be seen.
    pub fn connect(addr: SocketAddr, class: SloClass, polling: bool) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_nonblocking(polling)?;
        let mut wire = Wire {
            stream,
            reader: FrameReader::new(),
            polling,
            freq_hz: 0,
            accounts: 0,
        };
        wire.send(&Frame::Hello {
            version: PROTO_VERSION,
            class,
        })?;
        match wire.recv()? {
            Frame::HelloOk { freq_hz, accounts } if freq_hz > 0 && accounts > 0 => {
                wire.freq_hz = freq_hz;
                wire.accounts = accounts;
                Ok(wire)
            }
            other => Err(io::Error::other(format!("handshake answered {other:?}"))),
        }
    }

    /// Writes one frame (a frame fits the socket's buffer, so one system
    /// call does it).
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let bytes = frame.encode();
        let mut done = 0;
        while done < bytes.len() {
            match self.stream.write(&bytes[done..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The next frame; a time-out, hang-up or undecodable frame is an error.
    pub fn recv(&mut self) -> io::Result<Frame> {
        let timed_out = || io::Error::new(ErrorKind::TimedOut, "no reply in time");
        let mut chunk = [0u8; 4096];
        let mut looks = 0u32;
        let mut waiting_since: Option<Instant> = None;
        loop {
            match self.reader.next_frame() {
                Ok(Some(f)) => return Ok(f),
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(ErrorKind::InvalidData, e)),
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "server hung up")),
                Ok(n) => self.reader.push(&chunk[..n]),
                // On a sleeping wire this is the read time-out.
                Err(e) if e.kind() == ErrorKind::WouldBlock && !self.polling => {
                    return Err(timed_out())
                }
                // Nothing yet: let whoever else can run on this CPU run.
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::yield_now();
                    looks += 1;
                    if looks.is_multiple_of(LOOKS_PER_CLOCK_CHECK)
                        && waiting_since.get_or_insert_with(Instant::now).elapsed() > REPLY_TIMEOUT
                    {
                        return Err(timed_out());
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Server-reported cycles as nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        (u128::from(cycles) * 1_000_000_000 / u128::from(self.freq_hz)) as u64
    }
}

/// Size of a `Req`/`Resp` frame on the wire (length prefix included).
const FRAME_BYTES: usize = 4 + 26;

/// Round trips of request-sized frames against an echo thread of the
/// benchmark's own: what loopback TCP and two thread wake-ups cost on
/// this host with none of the program in the path. Returns the
/// one-in-flight round-trip samples and the echoes per second with a
/// window of eight.
pub fn echo_floor(round_trips: usize, windowed: usize) -> io::Result<(Samples, f64)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> io::Result<()> {
            let (mut peer, _) = listener.accept()?;
            peer.set_nodelay(true)?;
            let mut buf = [0u8; 4096];
            loop {
                let n = peer.read(&mut buf)?;
                if n == 0 {
                    return Ok(());
                }
                peer.write_all(&buf[..n])?;
            }
        });
        let run = || -> io::Result<(Samples, f64)> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
            let frame = [0x5Au8; FRAME_BYTES];
            let mut back = [0u8; FRAME_BYTES];
            let mut rtt = Samples::with_capacity(round_trips);
            let start = Instant::now();
            for _ in 0..round_trips {
                let t0 = Instant::now();
                stream.write_all(&frame)?;
                stream.read_exact(&mut back)?;
                let t1 = Instant::now();
                rtt.push((t1 - start).as_micros() as u64, (t1 - t0).as_nanos() as u64);
            }
            let t0 = Instant::now();
            for _ in 0..8 {
                stream.write_all(&frame)?;
            }
            for i in 0..windowed {
                stream.read_exact(&mut back)?;
                if i + 8 < windowed {
                    stream.write_all(&frame)?;
                }
            }
            let per_s = windowed as f64 / t0.elapsed().as_secs_f64();
            Ok((rtt, per_s))
        };
        let result = run();
        // The client stream is dropped by now, so the echo thread sees EOF.
        let echoed = echo.join().expect("echo thread does not panic");
        let out = result?;
        echoed?;
        Ok(out)
    })
}
