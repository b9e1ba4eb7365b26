//! Wire-protocol properties: frames reassemble across arbitrary read
//! boundaries, and hostile bytes produce typed errors — never panics.

use preemptdb_server::proto::{
    DecodeError, ErrCode, Frame, FrameReader, Op, SloClass, Status, MAX_FRAME, MAX_WIRE_FRAME,
};
use preempt_workloads::codec::Enc;
use proptest::prelude::*;

fn any_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u32>(), 0u8..2).prop_map(|(version, c)| Frame::Hello {
            version,
            class: SloClass::from_u8(c).unwrap(),
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(freq_hz, accounts)| Frame::HelloOk {
            freq_hz,
            accounts,
        }),
        (any::<u64>(), 0u8..4, any::<u64>(), any::<u64>()).prop_map(|(id, op, a, b)| {
            Frame::Req {
                id,
                op: Op::from_u8(op).unwrap(),
                a,
                b,
            }
        }),
        (any::<u64>(), 0u8..3, any::<u64>(), any::<u64>()).prop_map(
            |(id, s, latency_cycles, value)| Frame::Resp {
                id,
                status: Status::from_u8(s).unwrap(),
                latency_cycles,
                value,
            }
        ),
        any::<u64>().prop_map(|id| Frame::Overloaded { id }),
        (1u8..5).prop_map(|c| Frame::Error {
            code: ErrCode::from_u8(c).unwrap(),
        }),
    ]
}

/// The wire layout written out field by field with the row codec's `Enc`
/// cursor: an oracle independent of the server's encoder.
fn reference_bytes(frame: &Frame) -> Vec<u8> {
    let mut e = Enc::with_capacity(MAX_FRAME);
    match *frame {
        Frame::Hello { version, class } => {
            e.u8(1).u32(version).u8(class.index() as u8);
        }
        Frame::HelloOk { freq_hz, accounts } => {
            e.u8(2).u64(freq_hz).u64(accounts);
        }
        Frame::Req { id, op, a, b } => {
            e.u8(3).u64(id).u8(op.to_u8()).u64(a).u64(b);
        }
        Frame::Resp {
            id,
            status,
            latency_cycles,
            value,
        } => {
            e.u8(4)
                .u64(id)
                .u8(status.to_u8())
                .u64(latency_cycles)
                .u64(value);
        }
        Frame::Overloaded { id } => {
            e.u8(5).u64(id);
        }
        Frame::Error { code } => {
            e.u8(6).u8(code.to_u8());
        }
    }
    let payload = e.finish();
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&payload);
    out
}

/// Drains every currently complete frame out of the reader.
fn drain(reader: &mut FrameReader, out: &mut Vec<Frame>) {
    while let Ok(Some(f)) = reader.next_frame() {
        out.push(f);
    }
}

proptest! {
    /// The stack encoder `write_frame` uses writes exactly the reference
    /// layout, for every frame kind, and nothing past the frame's end;
    /// `encode` and `write_frame` write the same bytes.
    #[test]
    fn stack_encoding_matches_encode(frame in any_frame()) {
        let want = reference_bytes(&frame);
        let mut buf = [0xAA; MAX_WIRE_FRAME];
        let n = frame.encode_into(&mut buf);
        prop_assert_eq!(&buf[..n], &want[..]);
        prop_assert!(buf[n..].iter().all(|&b| b == 0xAA));
        prop_assert_eq!(frame.encode(), want.clone());
        let mut written = Vec::new();
        preemptdb_server::proto::write_frame(&mut written, &frame).unwrap();
        prop_assert_eq!(written, want);
    }

    /// Any frame survives encode → single-push decode.
    #[test]
    fn round_trip_single_frame(frame in any_frame()) {
        let mut reader = FrameReader::new();
        reader.push(&frame.encode());
        prop_assert_eq!(reader.next_frame().unwrap(), Some(frame));
        prop_assert_eq!(reader.pending(), 0);
    }

    /// A pipelined stream of frames reassembles exactly no matter how
    /// the socket fragments it — including splits inside the length
    /// prefix and splits inside payloads.
    #[test]
    fn round_trip_across_arbitrary_chunking(
        frames in prop::collection::vec(any_frame(), 1..12),
        chunks in prop::collection::vec(1usize..9, 1..128),
    ) {
        let bytes: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        let mut pos = 0;
        for n in chunks {
            if pos >= bytes.len() {
                break;
            }
            let end = (pos + n).min(bytes.len());
            reader.push(&bytes[pos..end]);
            pos = end;
            drain(&mut reader, &mut decoded);
        }
        if pos < bytes.len() {
            reader.push(&bytes[pos..]);
            drain(&mut reader, &mut decoded);
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(reader.pending(), 0);
    }

    /// Arbitrary bytes never panic the decoder: every outcome is a
    /// frame, a need-more-bytes, or a typed error.
    #[test]
    fn hostile_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        // Bounded: each Ok(Some) consumes >= 4 bytes; Err and Ok(None)
        // terminate.
        for _ in 0..=bytes.len() {
            match reader.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// A corrupted length prefix beyond the bound is rejected before any
    /// buffering amplification.
    #[test]
    fn oversized_length_rejected(extra in 1usize..1_000_000) {
        let len = MAX_FRAME + extra;
        let mut reader = FrameReader::new();
        reader.push(&(len as u32).to_le_bytes());
        prop_assert_eq!(reader.next_frame(), Err(DecodeError::Oversized { len }));
    }
}

#[test]
fn truncated_frame_stays_pending() {
    let bytes = Frame::Overloaded { id: 7 }.encode();
    let mut reader = FrameReader::new();
    reader.push(&bytes[..bytes.len() - 1]);
    assert_eq!(reader.next_frame(), Ok(None));
    assert_eq!(reader.pending(), bytes.len() - 1);
    reader.push(&bytes[bytes.len() - 1..]);
    assert_eq!(reader.next_frame(), Ok(Some(Frame::Overloaded { id: 7 })));
}

#[test]
fn malformed_payloads_get_typed_errors() {
    // Unknown opcode.
    let mut reader = FrameReader::new();
    reader.push(&1u32.to_le_bytes());
    reader.push(&[0xFF]);
    assert_eq!(
        reader.next_frame(),
        Err(DecodeError::UnknownOp { op: 0xFF })
    );

    // Known opcode, wrong payload length (REQ wants 26 bytes).
    let mut reader = FrameReader::new();
    reader.push(&3u32.to_le_bytes());
    reader.push(&[3, 0, 0]);
    assert_eq!(
        reader.next_frame(),
        Err(DecodeError::BadLength {
            op: 3,
            got: 3,
            want: 26,
        })
    );

    // Right length, out-of-range field (REQ with op byte 200).
    let mut good = Frame::Req {
        id: 1,
        op: Op::Read,
        a: 0,
        b: 0,
    }
    .encode();
    good[4 + 1 + 8] = 200; // the op field, after len prefix + opcode + id
    let mut reader = FrameReader::new();
    reader.push(&good);
    assert_eq!(reader.next_frame(), Err(DecodeError::BadField { op: 3 }));

    // Empty payload.
    let mut reader = FrameReader::new();
    reader.push(&0u32.to_le_bytes());
    assert_eq!(reader.next_frame(), Err(DecodeError::Empty));
}
