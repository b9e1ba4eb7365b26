//! Redo logging with per-context log buffers.
//!
//! This is the paper's flagship CLS example (§4.3): ERMIA keeps a
//! *per-thread* log buffer as a thread-local, which breaks the moment two
//! transaction contexts share a worker thread — they would interleave redo
//! bytes in one buffer. Here the buffer is a [`ClsCell`], so every context
//! transparently owns a private buffer, and the integration tests verify
//! that preempting mid-transaction cannot corrupt the log (and that using
//! a plain `thread_local!` instead *does*).
//!
//! Entry wire format (little-endian):
//! `[txid:8][table:4][oid:8][len:4][payload:len]`, with a commit marker
//! `[txid:8][0xFFFF_FFFF:4][commit_ts:8][0:4]` sealing each flushed chunk.

use std::sync::atomic::Ordering;

use parking_lot::Mutex;
use preempt_context::cls::ClsCell;

use crate::sync::Striped;
use crate::table::TableId;
use crate::version::{Oid, Timestamp};

/// Table-id sentinel marking a commit record.
pub const COMMIT_MARKER: u32 = 0xFFFF_FFFF;

/// Length sentinel marking a tombstone (delete) entry.
pub const TOMBSTONE_LEN: u32 = 0xFFFF_FFFF;

/// The context-local redo buffer. Deliberately module-private: all access
/// goes through [`append_redo`] / [`flush_commit`] / [`discard`], exactly
/// as engine code would use a thread-local log buffer.
static LOG_BUF: ClsCell<Vec<u8>> = ClsCell::new(Vec::new);

/// Appends one redo entry to the current context's buffer. Returns the
/// entry's size in bytes (for cost accounting).
pub fn append_redo(txid: u64, table: TableId, oid: Oid, payload: &[u8]) -> usize {
    debug_assert!((payload.len() as u32) < TOMBSTONE_LEN);
    LOG_BUF.with(|buf| {
        buf.extend_from_slice(&txid.to_le_bytes());
        buf.extend_from_slice(&table.0.to_le_bytes());
        buf.extend_from_slice(&oid.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload);
        24 + payload.len()
    })
}

/// Appends a tombstone (delete) redo entry.
pub fn append_redo_delete(txid: u64, table: TableId, oid: Oid) -> usize {
    LOG_BUF.with(|buf| {
        buf.extend_from_slice(&txid.to_le_bytes());
        buf.extend_from_slice(&table.0.to_le_bytes());
        buf.extend_from_slice(&oid.to_le_bytes());
        buf.extend_from_slice(&TOMBSTONE_LEN.to_le_bytes());
        24
    })
}

/// Bytes currently buffered by this context (diagnostics/tests).
pub fn buffered_bytes() -> usize {
    LOG_BUF.with(|buf| buf.len())
}

/// Discards the current context's buffer (abort path).
pub fn discard() {
    LOG_BUF.with(|buf| buf.clear());
}

/// Seals the current context's buffer with a commit marker and hands it to
/// the shared log. Returns the flushed byte count.
pub fn flush_commit(manager: &LogManager, txid: u64, commit_ts: Timestamp) -> usize {
    LOG_BUF.with(|buf| {
        buf.extend_from_slice(&txid.to_le_bytes());
        buf.extend_from_slice(&COMMIT_MARKER.to_le_bytes());
        buf.extend_from_slice(&commit_ts.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let n = buf.len();
        manager.ingest(buf);
        buf.clear();
        n
    })
}

const BYTES: usize = 0;
const FLUSHES: usize = 1;

/// The shared, durable end of the log. In-memory (the paper places all
/// data in memory and studies scheduling, not recovery); optionally
/// captures flushed chunks for inspection by tests.
pub struct LogManager {
    /// `[bytes, flushes]`, striped per thread: every commit bumps both.
    totals: Striped<2>,
    capture: bool,
    captured: Mutex<Vec<Vec<u8>>>,
}

impl LogManager {
    pub fn new(capture: bool) -> LogManager {
        LogManager {
            totals: Striped::new(),
            capture,
            captured: Mutex::new(Vec::new()),
        }
    }

    fn ingest(&self, chunk: &[u8]) {
        let totals = self.totals.local();
        totals[BYTES].fetch_add(chunk.len() as u64, Ordering::Relaxed);
        totals[FLUSHES].fetch_add(1, Ordering::Relaxed);
        if self.capture {
            self.captured.lock().push(chunk.to_vec());
        }
    }

    /// Total bytes flushed.
    pub fn bytes(&self) -> u64 {
        self.totals.sum(BYTES)
    }

    /// Total commit flushes.
    pub fn flushes(&self) -> u64 {
        self.totals.sum(FLUSHES)
    }

    /// Captured chunks (empty unless constructed with `capture = true`).
    pub fn captured(&self) -> Vec<Vec<u8>> {
        self.captured.lock().clone()
    }
}

/// A parsed redo entry (for recovery, tests, and debugging tools).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEntry {
    pub txid: u64,
    pub table: u32,
    pub oid: u64,
    pub payload: Vec<u8>,
    /// True for delete entries (no payload on the wire).
    pub tombstone: bool,
}

/// Parses a flushed chunk into entries; the final entry is the commit
/// marker (table == [`COMMIT_MARKER`], oid == commit_ts).
pub fn parse_chunk(mut chunk: &[u8]) -> Result<Vec<ParsedEntry>, String> {
    let mut out = Vec::new();
    while !chunk.is_empty() {
        if chunk.len() < 24 {
            return Err(format!("truncated header: {} bytes left", chunk.len()));
        }
        let txid = u64::from_le_bytes(chunk[0..8].try_into().unwrap());
        let table = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
        let oid = u64::from_le_bytes(chunk[12..20].try_into().unwrap());
        let len_word = u32::from_le_bytes(chunk[20..24].try_into().unwrap());
        let (len, tombstone) = if len_word == TOMBSTONE_LEN && table != COMMIT_MARKER {
            (0usize, true)
        } else if table == COMMIT_MARKER {
            (0usize, false)
        } else {
            (len_word as usize, false)
        };
        if chunk.len() < 24 + len {
            return Err(format!("truncated payload: want {len}"));
        }
        out.push(ParsedEntry {
            txid,
            table,
            oid,
            payload: chunk[24..24 + len].to_vec(),
            tombstone,
        });
        chunk = &chunk[24 + len..];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_flush_parse_round_trip() {
        let mgr = LogManager::new(true);
        append_redo(42, TableId(3), 7, b"hello");
        append_redo(42, TableId(3), 8, b"world!");
        assert!(buffered_bytes() > 0);
        let n = flush_commit(&mgr, 42, 1234);
        assert_eq!(buffered_bytes(), 0);
        assert_eq!(mgr.bytes(), n as u64);
        assert_eq!(mgr.flushes(), 1);

        let chunks = mgr.captured();
        assert_eq!(chunks.len(), 1);
        let entries = parse_chunk(&chunks[0]).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].payload, b"hello");
        assert_eq!(entries[1].oid, 8);
        let commit = &entries[2];
        assert_eq!(commit.table, COMMIT_MARKER);
        assert_eq!(commit.oid, 1234, "commit marker carries the timestamp");
    }

    #[test]
    fn discard_clears_without_flushing() {
        let mgr = LogManager::new(false);
        append_redo(1, TableId(0), 0, b"doomed");
        discard();
        assert_eq!(buffered_bytes(), 0);
        assert_eq!(mgr.flushes(), 0);
    }

    #[test]
    fn buffers_are_context_local() {
        // Two contexts on one thread interleave appends; each buffer stays
        // coherent — the §4.3 property.
        use preempt_context::switch::{switch_to, Context};
        use preempt_context::tcb;

        let mgr = std::sync::Arc::new(LogManager::new(true));
        let root = tcb::root_ptr() as usize;

        // Root context writes txid 1.
        append_redo(1, TableId(0), 1, b"root-a");

        let m2 = mgr.clone();
        let ctx = Context::with_default_stack("ctx2", move || {
            // Fresh context: its buffer starts empty even though root has
            // bytes buffered.
            assert_eq!(buffered_bytes(), 0);
            append_redo(2, TableId(0), 2, b"ctx-a");
            switch_to(unsafe { &*(root as *const tcb::Tcb) });
            append_redo(2, TableId(0), 3, b"ctx-b");
            flush_commit(&m2, 2, 200);
        })
        .unwrap();

        ctx.resume(); // ctx2 appends, yields back
        append_redo(1, TableId(0), 4, b"root-b");
        ctx.resume(); // ctx2 appends again and flushes
        flush_commit(&mgr, 1, 100);

        let chunks = mgr.captured();
        assert_eq!(chunks.len(), 2);
        // First flush is ctx2's: only txid-2 entries, in order.
        let c2 = parse_chunk(&chunks[0]).unwrap();
        assert!(c2[..c2.len() - 1].iter().all(|e| e.txid == 2));
        assert_eq!(c2[0].payload, b"ctx-a");
        assert_eq!(c2[1].payload, b"ctx-b");
        // Second flush is root's: only txid-1 entries.
        let c1 = parse_chunk(&chunks[1]).unwrap();
        assert!(c1[..c1.len() - 1].iter().all(|e| e.txid == 1));
        assert_eq!(c1[0].payload, b"root-a");
        assert_eq!(c1[1].payload, b"root-b");
    }

    #[test]
    fn parse_rejects_truncation() {
        assert!(parse_chunk(&[0u8; 10]).is_err());
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.extend_from_slice(&0u64.to_le_bytes());
        bad.extend_from_slice(&100u32.to_le_bytes()); // claims 100-byte payload
        bad.extend_from_slice(b"short");
        assert!(parse_chunk(&bad).is_err());
    }
}
