//! The PreemptDB wire protocol: small pipelined length-prefixed frames.
//!
//! Every frame is a 4-byte little-endian payload length followed by the
//! payload; the payload's first byte is the opcode. Payloads are fixed
//! layouts per opcode, written on the stack by [`Frame::encode_into`] and
//! read with the `Dec` cursor from `preempt-workloads` (the same row codec
//! the storage benchmarks use).
//!
//! ```text
//! [len: u32 LE] [op: u8] [op-specific fields ...]
//! ```
//!
//! The protocol is deliberately tiny and *defensive*: decode validates
//! the opcode and the exact payload length **before** touching the
//! cursor (the `Dec` cursor panics on short reads by design — layout
//! drift in trusted row codecs should be loud — so the socket edge must
//! never hand it unvalidated bytes). A malformed frame is a typed
//! [`DecodeError`], never a panic.
//!
//! Conversation shape: the client opens with [`Frame::Hello`] declaring
//! its SLO class; the server answers [`Frame::HelloOk`]. After that the
//! client pipelines [`Frame::Req`] frames freely; the server answers
//! each with exactly one [`Frame::Resp`] or [`Frame::Overloaded`]
//! (admission backpressure). [`Frame::Error`] precedes a server-side
//! hangup on protocol violations.

use std::io::{Read, Write};

use preempt_workloads::codec::Dec;

/// Protocol version spoken by this build (in `Hello`).
pub const PROTO_VERSION: u32 = 1;

/// Upper bound on a payload (op byte + fields). Anything larger in a
/// length prefix is a protocol violation — requests are tiny, so a big
/// length means a corrupt or hostile stream, and bounding it keeps a
/// bad client from ballooning the reassembly buffer.
pub const MAX_FRAME: usize = 64;

/// Longest encoded frame: the length prefix and the largest payload in
/// `payload_len`, so any frame fits a stack buffer of this size.
pub const MAX_WIRE_FRAME: usize = 4 + max_payload_len();

const OP_HELLO: u8 = 1;
const OP_HELLO_OK: u8 = 2;
const OP_REQ: u8 = 3;
const OP_RESP: u8 = 4;
const OP_OVERLOADED: u8 = 5;
const OP_ERROR: u8 = 6;

/// Per-connection SLO class, mirroring the paper's Q1/Q2 split: `High`
/// maps to the scheduler's preempting high-priority queue, `Low` to the
/// regular path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloClass {
    Low,
    High,
}

impl SloClass {
    /// Scheduler priority level (and the index of per-class server
    /// state): low = 0, high = 1.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            SloClass::Low => 0,
            SloClass::High => 1,
        }
    }

    pub fn from_u8(v: u8) -> Option<SloClass> {
        match v {
            0 => Some(SloClass::Low),
            1 => Some(SloClass::High),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SloClass::Low => "low",
            SloClass::High => "high",
        }
    }
}

/// Transaction kinds a request can ask for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Point read of account `a`.
    Read,
    /// Credit accounts `a` and `b` by one each (the conservation-law
    /// workload: total balance grows by exactly 2 per commit).
    Deposit,
    /// Full scan summing every account — the long low-priority work
    /// high-class traffic preempts.
    Sum,
    /// Panics inside the transaction body (chaos testing only; refused
    /// unless the server was started with chaos ops enabled).
    Boom,
}

impl Op {
    pub fn to_u8(self) -> u8 {
        match self {
            Op::Read => 0,
            Op::Deposit => 1,
            Op::Sum => 2,
            Op::Boom => 3,
        }
    }

    pub fn from_u8(v: u8) -> Option<Op> {
        match v {
            0 => Some(Op::Read),
            1 => Some(Op::Deposit),
            2 => Some(Op::Sum),
            3 => Some(Op::Boom),
            _ => None,
        }
    }
}

/// Outcome carried on a [`Frame::Resp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Committed; `value` is the op's result.
    Ok,
    /// Retry budget exhausted without a commit.
    Failed,
    /// The transaction body panicked; the worker firewall contained it
    /// and the engine aborted the transaction.
    Panicked,
}

impl Status {
    pub fn to_u8(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Failed => 1,
            Status::Panicked => 2,
        }
    }

    pub fn from_u8(v: u8) -> Option<Status> {
        match v {
            0 => Some(Status::Ok),
            1 => Some(Status::Failed),
            2 => Some(Status::Panicked),
            _ => None,
        }
    }
}

/// Typed protocol-violation codes carried on [`Frame::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// Frame failed to decode (bad op, bad length, oversized).
    BadFrame,
    /// First frame was not `Hello`, or `Hello` repeated mid-stream.
    ExpectedHello,
    /// `Hello` carried an unknown protocol version.
    BadVersion,
    /// `Boom` requested but chaos ops are disabled on this server.
    ChaosDisabled,
}

impl ErrCode {
    pub fn to_u8(self) -> u8 {
        match self {
            ErrCode::BadFrame => 1,
            ErrCode::ExpectedHello => 2,
            ErrCode::BadVersion => 3,
            ErrCode::ChaosDisabled => 4,
        }
    }

    pub fn from_u8(v: u8) -> Option<ErrCode> {
        match v {
            1 => Some(ErrCode::BadFrame),
            2 => Some(ErrCode::ExpectedHello),
            3 => Some(ErrCode::BadVersion),
            4 => Some(ErrCode::ChaosDisabled),
            _ => None,
        }
    }
}

/// One protocol frame, either direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Client → server, first frame: declares protocol version and the
    /// connection's SLO class.
    Hello { version: u32, class: SloClass },
    /// Server → client handshake reply: the server's cycle-clock
    /// frequency (so clients can convert `latency_cycles`) and the
    /// number of seeded accounts.
    HelloOk { freq_hz: u64, accounts: u64 },
    /// Client → server: one transaction request. `id` is echoed on the
    /// reply; pipelining is allowed and replies preserve submission
    /// order per class only as the worker pool schedules them.
    Req { id: u64, op: Op, a: u64, b: u64 },
    /// Server → client: the request's outcome. `latency_cycles` is
    /// ingress-to-completion on the server's cycle clock — the same
    /// clock the tracer stamps events with.
    Resp {
        id: u64,
        status: Status,
        latency_cycles: u64,
        value: u64,
    },
    /// Server → client: admission backpressure. The request was *not*
    /// queued; the client should back off and retry. This is the typed
    /// alternative to unbounded queueing.
    Overloaded { id: u64 },
    /// Server → client: protocol violation; the server hangs up after
    /// sending this.
    Error { code: ErrCode },
}

/// Why a payload failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Length prefix exceeds [`MAX_FRAME`].
    Oversized { len: usize },
    /// Empty payload (no opcode byte).
    Empty,
    /// Unknown opcode byte.
    UnknownOp { op: u8 },
    /// Payload length does not match the opcode's fixed layout.
    BadLength { op: u8, got: usize, want: usize },
    /// A field held an out-of-range value (class, status, code).
    BadField { op: u8 },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte bound")
            }
            DecodeError::Empty => write!(f, "empty frame payload"),
            DecodeError::UnknownOp { op } => write!(f, "unknown opcode {op}"),
            DecodeError::BadLength { op, got, want } => {
                write!(f, "opcode {op}: payload length {got}, layout wants {want}")
            }
            DecodeError::BadField { op } => write!(f, "opcode {op}: field out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Fixed payload length for each opcode (op byte included).
const fn payload_len(op: u8) -> Option<usize> {
    match op {
        OP_HELLO => Some(1 + 4 + 1),
        OP_HELLO_OK => Some(1 + 8 + 8),
        OP_REQ => Some(1 + 8 + 1 + 8 + 8),
        OP_RESP => Some(1 + 8 + 1 + 8 + 8),
        OP_OVERLOADED => Some(1 + 8),
        OP_ERROR => Some(1 + 1),
        _ => None,
    }
}

/// The largest `payload_len` over every opcode byte.
const fn max_payload_len() -> usize {
    let mut max = 0;
    let mut op = 0u8;
    loop {
        if let Some(n) = payload_len(op) {
            if n > max {
                max = n;
            }
        }
        if op == u8::MAX {
            return max;
        }
        op += 1;
    }
}

impl Frame {
    /// Encodes the frame as length prefix + payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = [0; MAX_WIRE_FRAME];
        let n = self.encode_into(&mut buf);
        buf[..n].to_vec()
    }

    /// [`encode`](Self::encode) into a stack buffer, with no allocation:
    /// returns how many bytes of `out` the frame fills.
    pub fn encode_into(&self, out: &mut [u8; MAX_WIRE_FRAME]) -> usize {
        let mut len = 4;
        let mut put = |bytes: &[u8]| {
            out[len..len + bytes.len()].copy_from_slice(bytes);
            len += bytes.len();
        };
        match *self {
            Frame::Hello { version, class } => {
                put(&[OP_HELLO]);
                put(&version.to_le_bytes());
                put(&[class.index() as u8]);
            }
            Frame::HelloOk { freq_hz, accounts } => {
                put(&[OP_HELLO_OK]);
                put(&freq_hz.to_le_bytes());
                put(&accounts.to_le_bytes());
            }
            Frame::Req { id, op, a, b } => {
                put(&[OP_REQ]);
                put(&id.to_le_bytes());
                put(&[op.to_u8()]);
                put(&a.to_le_bytes());
                put(&b.to_le_bytes());
            }
            Frame::Resp {
                id,
                status,
                latency_cycles,
                value,
            } => {
                put(&[OP_RESP]);
                put(&id.to_le_bytes());
                put(&[status.to_u8()]);
                put(&latency_cycles.to_le_bytes());
                put(&value.to_le_bytes());
            }
            Frame::Overloaded { id } => {
                put(&[OP_OVERLOADED]);
                put(&id.to_le_bytes());
            }
            Frame::Error { code } => {
                put(&[OP_ERROR]);
                put(&[code.to_u8()]);
            }
        }
        out[..4].copy_from_slice(&(len as u32 - 4).to_le_bytes());
        len
    }

    /// Decodes one payload (the bytes after the length prefix).
    ///
    /// Validates opcode and exact length before any cursor read, so a
    /// hostile payload can never panic the decoder.
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, DecodeError> {
        let &op = payload.first().ok_or(DecodeError::Empty)?;
        let want = payload_len(op).ok_or(DecodeError::UnknownOp { op })?;
        if payload.len() != want {
            return Err(DecodeError::BadLength {
                op,
                got: payload.len(),
                want,
            });
        }
        let mut d = Dec::new(&payload[1..]);
        match op {
            OP_HELLO => {
                let version = d.u32();
                let class =
                    SloClass::from_u8(d.u8()).ok_or(DecodeError::BadField { op })?;
                Ok(Frame::Hello { version, class })
            }
            OP_HELLO_OK => Ok(Frame::HelloOk {
                freq_hz: d.u64(),
                accounts: d.u64(),
            }),
            OP_REQ => {
                let id = d.u64();
                let o = Op::from_u8(d.u8()).ok_or(DecodeError::BadField { op })?;
                Ok(Frame::Req {
                    id,
                    op: o,
                    a: d.u64(),
                    b: d.u64(),
                })
            }
            OP_RESP => {
                let id = d.u64();
                let status =
                    Status::from_u8(d.u8()).ok_or(DecodeError::BadField { op })?;
                Ok(Frame::Resp {
                    id,
                    status,
                    latency_cycles: d.u64(),
                    value: d.u64(),
                })
            }
            OP_OVERLOADED => Ok(Frame::Overloaded { id: d.u64() }),
            OP_ERROR => {
                let code =
                    ErrCode::from_u8(d.u8()).ok_or(DecodeError::BadField { op })?;
                Ok(Frame::Error { code })
            }
            // payload_len returned Some above, so op is known.
            _ => Err(DecodeError::UnknownOp { op }),
        }
    }
}

/// Incremental frame reassembly: push raw bytes in whatever chunks the
/// socket produced, pull complete frames out. Frames split across
/// arbitrary read boundaries — including mid-length-prefix — reassemble
/// exactly (property-tested).
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are
    /// needed. After an `Err` the stream is poisoned — framing is lost,
    /// the connection must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(DecodeError::Oversized { len });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = Frame::decode_payload(&self.buf[4..4 + len])?;
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }
}

/// Writes one frame to `w` (no flush; callers batch pipelined writes).
/// Encodes on the stack: a worker replying allocates nothing.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let mut buf = [0; MAX_WIRE_FRAME];
    let n = frame.encode_into(&mut buf);
    w.write_all(&buf[..n])
}

/// Blocking read of the next frame from `stream`, reassembling through
/// `reader`. Returns `Ok(None)` on clean EOF with no partial frame
/// buffered; maps decode errors and mid-frame EOF to `InvalidData`.
pub fn read_frame(
    stream: &mut impl Read,
    reader: &mut FrameReader,
) -> std::io::Result<Option<Frame>> {
    let mut chunk = [0u8; 4096];
    loop {
        match reader.next_frame() {
            Ok(Some(f)) => return Ok(Some(f)),
            Ok(None) => {}
            Err(e) => return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return if reader.pending() == 0 {
                Ok(None)
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "EOF mid-frame",
                ))
            };
        }
        reader.push(&chunk[..n]);
    }
}
