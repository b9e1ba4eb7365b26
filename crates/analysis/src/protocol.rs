//! Declarative atomic-protocol specifications.
//!
//! The engine's lock-free handoffs are eight small protocols; each has an
//! exact ordering contract per (field, op) and a loom model that
//! explores its interleavings. v1 enforced a *deny*-list (specific bad
//! orderings); this table is an *allow*-list with coverage: every atomic
//! op touching a governed field must match a spec row, and every spec'd
//! orderings set is exhaustive. Adding a new op on `pending` without
//! extending the table is itself a finding — the spec, the code, and the
//! models cannot silently drift apart:
//!
//! * `protocol-ordering`    — an op uses an ordering outside its row's
//!   allow set, or touches a governed field with no row at all;
//! * `protocol-model-drift` — a protocol's loom model function is
//!   missing from the loom suite, or no longer mentions the identifiers
//!   the protocol is about (the model was renamed or hollowed out).
//!
//! The vendored loom stub explores sequentially-consistent
//! interleavings; orderings stronger than SC cannot be distinguished
//! dynamically, which is exactly why the static allow-list and the
//! model-existence check are two halves of one gate.

use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::rules::Finding;

/// One row: the only orderings `field.op(…)` may use in `file`.
pub struct SpecRow {
    pub protocol: &'static str,
    /// Base file name the row governs (`upid.rs`, `worker.rs`, …).
    pub file: &'static str,
    pub field: &'static str,
    pub op: &'static str,
    pub allow: &'static [&'static str],
    pub why: &'static str,
}

/// A protocol's loom model: the test fn that must exist in its loom
/// suite and the identifiers its body must still mention.
pub struct ModelRef {
    pub protocol: &'static str,
    /// Workspace-relative path of the suite holding the model.
    pub suite: &'static str,
    pub model_fn: &'static str,
    pub idents: &'static [&'static str],
}

/// The scheduler-side suite (UPID, watchdog, degraded flag, request queue).
pub const SCHED_SUITE: &str = "crates/uintr/tests/loom.rs";
/// The storage-side suite (version chains, reclamation, directory).
pub const MVCC_SUITE: &str = "crates/mvcc/src/loom_tests.rs";

/// The eight protocols (DESIGN.md §2.2–§2.3, §12–§13), the worker's stop
/// flag and the scheduler plane's relaxed hints (§13). Governed fields
/// are closed per
/// file: any ordering-bearing atomic op on a listed field that has no
/// row here is flagged until the table is extended.
pub const SPEC: &[SpecRow] = &[
    // ── UPID pending-bit post/take/repost ────────────────────────────
    SpecRow {
        protocol: "upid-pending",
        file: "upid.rs",
        field: "pending",
        op: "fetch_or",
        allow: &["Release"],
        why: "posting a vector publishes the sender's writes",
    },
    SpecRow {
        protocol: "upid-pending",
        file: "upid.rs",
        field: "pending",
        op: "swap",
        allow: &["Acquire"],
        why: "draining must observe the sender's writes",
    },
    SpecRow {
        protocol: "upid-pending",
        file: "upid.rs",
        field: "pending",
        op: "load",
        allow: &["Relaxed"],
        why: "fast-path emptiness probe; the subsequent swap is authoritative",
    },
    SpecRow {
        protocol: "upid-pending",
        file: "upid.rs",
        field: "active",
        op: "store",
        allow: &["Release"],
        why: "deactivation is ordered after teardown writes",
    },
    SpecRow {
        protocol: "upid-pending",
        file: "upid.rs",
        field: "active",
        op: "load",
        allow: &["Acquire"],
        why: "the active check gates posting into freed state",
    },
    // ── Epoch/ack delivery watchdog ──────────────────────────────────
    SpecRow {
        protocol: "watchdog-epoch-ack",
        file: "upid.rs",
        field: "epoch",
        op: "fetch_add",
        allow: &["Release"],
        why: "the epoch bump must happen-before the UPID post",
    },
    SpecRow {
        protocol: "watchdog-epoch-ack",
        file: "upid.rs",
        field: "epoch",
        op: "load",
        allow: &["Acquire"],
        why: "the ack must copy an epoch no older than the delivered post",
    },
    SpecRow {
        protocol: "watchdog-epoch-ack",
        file: "plane.rs",
        field: "uintr_ack",
        op: "load",
        allow: &["Acquire"],
        why: "watchdog comparison against the epoch",
    },
    SpecRow {
        protocol: "watchdog-epoch-ack",
        file: "worker.rs",
        field: "uintr_ack",
        op: "store",
        allow: &["Release"],
        why: "publishing the ack races the watchdog's re-send decision",
    },
    // ── Degraded-mode flag ───────────────────────────────────────────
    SpecRow {
        protocol: "degraded",
        file: "plane.rs",
        field: "degraded",
        op: "store",
        allow: &["Release"],
        why: "degraded-mode entry publishes the wake-fallback configuration",
    },
    SpecRow {
        protocol: "degraded",
        file: "plane.rs",
        field: "degraded",
        op: "load",
        allow: &["Acquire"],
        why: "dispatch picks interrupt or wake by the mode last published",
    },
    SpecRow {
        protocol: "degraded",
        file: "worker.rs",
        field: "degraded",
        op: "load",
        allow: &["Acquire"],
        why: "pairs with the scheduler's Release store on mode entry",
    },
    // ── Worker stop flag ─────────────────────────────────────────────
    SpecRow {
        protocol: "worker-stop",
        file: "worker.rs",
        field: "stopped",
        op: "store",
        allow: &["Release"],
        why: "the stop flag publishes queue teardown",
    },
    SpecRow {
        protocol: "worker-stop",
        file: "worker.rs",
        field: "stopped",
        op: "load",
        allow: &["Acquire"],
        why: "observing stop must also observe teardown",
    },
    // ── Scheduler-plane hints (DESIGN.md §13) ────────────────────────
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "rr",
        op: "fetch_add",
        allow: &["Relaxed"],
        why: "the round-robin cursor only spreads load; any value is a valid target",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "rr",
        op: "load",
        allow: &["Relaxed"],
        why: "a prefetch guess at the next target",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "threshold",
        op: "store",
        allow: &["Relaxed"],
        why: "a copy of the workers' live cells, written after them",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "threshold",
        op: "load",
        allow: &["Relaxed"],
        why: "only decides whether the worker's own cell is read at all",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "last_notify",
        op: "store",
        allow: &["Relaxed"],
        why: "a timestamp that restarts the watchdog clock; late is harmless",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "last_notify",
        op: "load",
        allow: &["Relaxed"],
        why: "the epoch/ack pair, not this stamp, decides a re-send",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "sends",
        op: "fetch_add",
        allow: &["Relaxed"],
        why: "a dispatcher counts a send into the open window",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "sends",
        op: "fetch_sub",
        allow: &["Relaxed"],
        why: "the housekeeper closes a window by what it read, so a concurrent send lands in the next",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "sends",
        op: "load",
        allow: &["Relaxed"],
        why: "a statistic; the housekeeper is the only reader",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "sends",
        op: "store",
        allow: &["Relaxed"],
        why: "reset by the housekeeper on re-arming",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "failures",
        op: "fetch_add",
        allow: &["Relaxed"],
        why: "a dispatcher counts a failed send into the open window",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "failures",
        op: "fetch_sub",
        allow: &["Relaxed"],
        why: "closed like `sends`",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "failures",
        op: "load",
        allow: &["Relaxed"],
        why: "a statistic; the housekeeper is the only reader",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "failures",
        op: "store",
        allow: &["Relaxed"],
        why: "reset by the housekeeper on re-arming",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "window_start",
        op: "load",
        allow: &["Relaxed"],
        why: "read and written by the housekeeper only",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "window_start",
        op: "store",
        allow: &["Relaxed"],
        why: "read and written by the housekeeper only",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "last_failure",
        op: "store",
        allow: &["Relaxed"],
        why: "a timestamp; the latest failure wins either way",
    },
    SpecRow {
        protocol: "plane-hints",
        file: "plane.rs",
        field: "last_failure",
        op: "load",
        allow: &["Relaxed"],
        why: "the quiet period is judged on whole milliseconds",
    },
    // ── Per-worker request queue (DESIGN.md §13.1) ───────────────────
    SpecRow {
        protocol: "shard-deque",
        file: "deque.rs",
        field: "state",
        op: "load",
        allow: &["Acquire"],
        why: "a claim attempt must observe the ticket/len published by racing claims",
    },
    SpecRow {
        protocol: "shard-deque",
        file: "deque.rs",
        field: "state",
        op: "compare_exchange",
        allow: &["AcqRel", "Acquire"],
        why: "a successful claim both acquires prior transitions of the packed \
              word and releases its ticket/len update to racing claimants",
    },
    SpecRow {
        protocol: "shard-deque",
        file: "deque.rs",
        field: "seq",
        op: "load",
        allow: &["Acquire"],
        why: "a handoff waiting on its claim's phase stamp must observe the \
              payload writes the stamp's publication covered (the request is \
              inline, plain memory under the stamp)",
    },
    SpecRow {
        protocol: "shard-deque",
        file: "deque.rs",
        field: "seq",
        op: "store",
        allow: &["Release"],
        why: "publishing FULL or re-opening EMPTY must happen-after the \
              move of the request into or out of the cell",
    },
    SpecRow {
        protocol: "shard-deque",
        file: "deque.rs",
        field: "hint",
        op: "load",
        allow: &["Relaxed"],
        why: "a side's guess of its next ticket is only a prefetch address, \
              never dereferenced for data; an ordering here would suggest \
              it publishes something",
    },
    SpecRow {
        protocol: "shard-deque",
        file: "deque.rs",
        field: "hint",
        op: "store",
        allow: &["Relaxed"],
        why: "as for the load: the claim on `state` is what orders the \
              hand-off, the hint only points a prefetch",
    },
    // ── MVCC version chains: latch-free readers (DESIGN.md §2.2) ─────
    SpecRow {
        protocol: "version-chain",
        file: "version.rs",
        field: "head",
        op: "load",
        allow: &["SeqCst", "Relaxed"],
        why: "a reader's walk must be ordered after any unlink its snapshot \
              follows (the reclamation argument runs through one total \
              order); Relaxed only under the write latch, where the chain \
              is frozen",
    },
    SpecRow {
        protocol: "version-chain",
        file: "version.rs",
        field: "head",
        op: "store",
        allow: &["Release", "SeqCst"],
        why: "install publishes the version's header and payload (Release); \
              an unlink must precede the limbo stamp's clock read (SeqCst)",
    },
    SpecRow {
        protocol: "version-chain",
        file: "version.rs",
        field: "next",
        op: "load",
        allow: &["SeqCst", "Relaxed"],
        why: "as for `head`: SeqCst on the reader's walk, Relaxed under the \
              write latch or on an exclusively owned run",
    },
    SpecRow {
        protocol: "version-chain",
        file: "version.rs",
        field: "next",
        op: "store",
        allow: &["Relaxed", "SeqCst"],
        why: "linking an unpublished version is ordered by the head store \
              that publishes it (Relaxed); a trim's cut is an unlink (SeqCst)",
    },
    SpecRow {
        protocol: "version-chain",
        file: "version.rs",
        field: "begin",
        op: "load",
        allow: &["Acquire"],
        why: "seeing a commit stamp (or a committing mark) must also see \
              what its writer did before storing it",
    },
    SpecRow {
        protocol: "version-chain",
        file: "version.rs",
        field: "begin",
        op: "store",
        allow: &["Release"],
        why: "the committing mark is ordered before the SeqCst timestamp \
              draw that follows it; the stamp publishes the commit",
    },
    // ── Table segment directory: install-once pointers ───────────────
    SpecRow {
        protocol: "segment-directory",
        file: "table.rs",
        field: "slot",
        op: "load",
        allow: &["Acquire", "Relaxed"],
        why: "a lookup must see the initialized block or segment behind a \
              published pointer; Relaxed only in `Drop`, with `&mut self`",
    },
    SpecRow {
        protocol: "segment-directory",
        file: "table.rs",
        field: "slot",
        op: "compare_exchange",
        allow: &["AcqRel", "Acquire"],
        why: "the winner publishes its initialized slice; the loser must \
              see the winner's",
    },
    // ── Optimistic index latch and B+-tree nodes (DESIGN.md §2.3) ────
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "version",
        op: "load",
        allow: &["Acquire", "Relaxed"],
        why: "a reader's first look must see everything the unlocking writer \
              stored (Acquire); its re-check is ordered by the acquire fence \
              in front of it, and a writer's peek before its CAS is only a \
              hint (Relaxed)",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "version",
        op: "compare_exchange",
        allow: &["Acquire", "Relaxed"],
        why: "taking the latch must see the previous holder's stores; the \
              release fence after it orders the lock bit before the new \
              holder's own",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "version",
        op: "store",
        allow: &["Release"],
        why: "unlocking publishes the modification with its version",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "count",
        op: "load",
        allow: &["Relaxed"],
        why: "read between a version snapshot and its validation, or under \
              the write latch",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "count",
        op: "store",
        allow: &["Relaxed"],
        why: "written under the write latch, published by the unlock",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "keys",
        op: "load",
        allow: &["Relaxed"],
        why: "as for `count`",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "keys",
        op: "store",
        allow: &["Relaxed"],
        why: "as for `count`",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "slots",
        op: "load",
        allow: &["Relaxed"],
        why: "as for `count`; a child pointer is dereferenced only after the \
              node it was read from validated",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "slots",
        op: "store",
        allow: &["Relaxed"],
        why: "as for `count`",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "root",
        op: "load",
        allow: &["Acquire", "Relaxed"],
        why: "a descent must see the initialized root behind the pointer; \
              Relaxed only under the root's own write latch",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "root",
        op: "store",
        allow: &["Release"],
        why: "publishes the new root's entries",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "nodes",
        op: "load",
        allow: &["Relaxed"],
        why: "the allocation list is only pushed to while the index is \
              shared, and walked in `Drop`, with `&mut self`",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "nodes",
        op: "compare_exchange",
        allow: &["Release", "Relaxed"],
        why: "a push publishes the node's link to whoever pushes next",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "next_alloc",
        op: "load",
        allow: &["Relaxed"],
        why: "read in `Drop`, with `&mut self`",
    },
    SpecRow {
        protocol: "index-olc",
        file: "index.rs",
        field: "next_alloc",
        op: "store",
        allow: &["Relaxed"],
        why: "written before the push that publishes it",
    },
    // ── Hash shards: slot arrays under the same latch ────────────────
    SpecRow {
        protocol: "index-hash-seq",
        file: "index.rs",
        field: "array",
        op: "load",
        allow: &["Acquire", "Relaxed"],
        why: "a probe must see the initialized array behind the pointer; \
              Relaxed only under the shard's write latch or in `Drop`",
    },
    SpecRow {
        protocol: "index-hash-seq",
        file: "index.rs",
        field: "array",
        op: "store",
        allow: &["Release"],
        why: "publishes the rehashed array",
    },
    SpecRow {
        protocol: "index-hash-seq",
        file: "index.rs",
        field: "key",
        op: "load",
        allow: &["Relaxed"],
        why: "read between the shard's version snapshot and its validation, \
              or under its write latch",
    },
    SpecRow {
        protocol: "index-hash-seq",
        file: "index.rs",
        field: "key",
        op: "store",
        allow: &["Relaxed"],
        why: "written under the shard's write latch, published by the unlock",
    },
    SpecRow {
        protocol: "index-hash-seq",
        file: "index.rs",
        field: "oid",
        op: "load",
        allow: &["Relaxed"],
        why: "as for `key`",
    },
    SpecRow {
        protocol: "index-hash-seq",
        file: "index.rs",
        field: "oid",
        op: "store",
        allow: &["Relaxed"],
        why: "as for `key`",
    },
    SpecRow {
        protocol: "index-hash-seq",
        file: "index.rs",
        field: "len",
        op: "load",
        allow: &["Relaxed"],
        why: "a statistic to everyone but the latched writer",
    },
    SpecRow {
        protocol: "index-hash-seq",
        file: "index.rs",
        field: "len",
        op: "store",
        allow: &["Relaxed"],
        why: "written under the shard's write latch",
    },
];

/// Every protocol must keep a live loom model. `idents` are searched in
/// the model fn's body tokens.
pub const MODELS: &[ModelRef] = &[
    ModelRef {
        suite: SCHED_SUITE,
        protocol: "upid-pending",
        model_fn: "pending_bit_post_is_never_lost",
        idents: &["post", "take_pending"],
    },
    ModelRef {
        suite: SCHED_SUITE,
        protocol: "upid-pending",
        model_fn: "repost_preserves_vectors_under_concurrency",
        idents: &["repost"],
    },
    ModelRef {
        suite: SCHED_SUITE,
        protocol: "watchdog-epoch-ack",
        model_fn: "epoch_ack_watchdog_has_no_lost_wakeup_or_double_execution",
        idents: &["epoch", "ack", "pending"],
    },
    ModelRef {
        suite: SCHED_SUITE,
        protocol: "degraded",
        model_fn: "degraded_entry_publishes_wake_fallback",
        idents: &["degraded"],
    },
    ModelRef {
        suite: SCHED_SUITE,
        protocol: "shard-deque",
        model_fn: "steal_deque_no_lost_or_duplicated_requests",
        idents: &["dq_pop", "dq_push"],
    },
    ModelRef {
        suite: SCHED_SUITE,
        protocol: "shard-deque",
        model_fn: "steal_deque_four_claims_complete",
        idents: &["dq_push_handoff", "dq_pop_claim", "dq_take"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "version-chain",
        model_fn: "reader_vs_install_and_commit",
        idents: &["read", "update", "commit"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "version-chain",
        model_fn: "reader_vs_abort",
        idents: &["read", "abort", "reclaim"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "version-chain",
        model_fn: "readers_vs_trim_retire_and_reclaim",
        idents: &["read", "trim", "retire", "reclaim"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "version-chain",
        model_fn: "explorer_catches_free_at_unlink",
        idents: &["unlink_pending", "free"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "segment-directory",
        model_fn: "racing_creators_share_one_directory",
        idents: &["create_record", "record"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "index-olc",
        model_fn: "reader_vs_leaf_split",
        idents: &["insert", "read_all"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "index-olc",
        model_fn: "explorer_catches_skipped_validation",
        idents: &["without_validation", "reader_vs_leaf_split"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "index-olc",
        model_fn: "reader_vs_root_split",
        idents: &["insert", "read_all"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "index-olc",
        model_fn: "reader_vs_leaf_unlink",
        idents: &["remove", "read_all"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "index-olc",
        model_fn: "insert_vs_leaf_unlink",
        idents: &["remove", "insert"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "index-olc",
        model_fn: "racing_same_key_inserts",
        idents: &["insert", "get"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "index-hash-seq",
        model_fn: "reader_vs_shard_grow",
        idents: &["insert", "remove", "get"],
    },
    ModelRef {
        suite: MVCC_SUITE,
        protocol: "index-hash-seq",
        model_fn: "racing_same_key_inserts",
        idents: &["hash", "insert"],
    },
];

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Check every `field.op(…)` in the governed files against the table.
pub fn check_orderings(models: &[FileModel], out: &mut Vec<Finding>) {
    for m in models {
        let base = m.path.rsplit('/').next().unwrap_or(&m.path);
        let rows: Vec<&SpecRow> = SPEC.iter().filter(|r| r.file == base).collect();
        if rows.is_empty() {
            continue;
        }
        let governed: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.field).collect();
        for i in 0..m.toks.len().saturating_sub(3) {
            if m.skipped(i) {
                continue;
            }
            let [recv, dot, op, paren] =
                [&m.toks[i], &m.toks[i + 1], &m.toks[i + 2], &m.toks[i + 3]];
            if !dot.is(".") || op.kind != TokKind::Ident || !paren.is("(") {
                continue;
            }
            // The field is the receiver's last name: `x.pending` or, for
            // an array of atomics, the name in front of `[…]`.
            let f = if recv.is("]") { indexed_name(m, i) } else { Some(recv) };
            let Some(f) = f else { continue };
            if f.kind != TokKind::Ident || !governed.contains(f.text.as_str()) {
                continue;
            }
            // Only the call's own orderings (paren depth 1) count: a
            // nested `x.load(Acquire)` argument is matched at its own
            // position, not attributed to the outer op.
            let ords = orderings_at_depth1(m, i + 3);
            if ords.is_empty() {
                continue; // not an atomic op (`.is_empty()` on a field, …)
            }
            match rows.iter().find(|r| r.field == f.text && r.op == op.text) {
                Some(row) => {
                    for ord in ords {
                        if !row.allow.contains(&ord) {
                            out.push(Finding {
                                file: m.path.clone(),
                                line: f.line,
                                rule: "protocol-ordering",
                                msg: format!(
                                    "`{}.{}` uses Ordering::{}, but the {} protocol \
                                     requires {:?}: {}",
                                    row.field, row.op, ord, row.protocol, row.allow, row.why
                                ),
                            });
                        }
                    }
                }
                None => {
                    out.push(Finding {
                        file: m.path.clone(),
                        line: f.line,
                        rule: "protocol-ordering",
                        msg: format!(
                            "`{}.{}` touches protocol field `{}` but has no spec row; \
                             extend the protocol table (crates/analysis/src/protocol.rs) \
                             with the required ordering",
                            f.text, op.text, f.text
                        ),
                    });
                }
            }
        }
    }
}

/// The token in front of the `[` that the `]` at `close` closes.
fn indexed_name(m: &FileModel, close: usize) -> Option<&crate::lexer::Tok> {
    let mut depth = 0i32;
    for i in (0..=close).rev() {
        match m.toks[i].text.as_str() {
            "]" => depth += 1,
            "[" => {
                depth -= 1;
                if depth == 0 {
                    return i.checked_sub(1).map(|name| &m.toks[name]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Orderings appearing at paren depth 1 of the call whose `(` is at
/// `open` (i.e. the call's own arguments, not nested calls').
fn orderings_at_depth1(m: &FileModel, open: usize) -> Vec<&str> {
    let mut depth = 0i32;
    let mut out = Vec::new();
    for t in &m.toks[open..] {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ if depth == 1
                && t.kind == TokKind::Ident
                && ORDERINGS.contains(&t.text.as_str()) =>
            {
                out.push(t.text.as_str())
            }
            _ => {}
        }
    }
    out
}

/// Cross-validate the spec table against the loom suites: every
/// protocol's model fn must exist in its suite and still mention its
/// protocol identifiers. A suite that is not among `suites` (a partial
/// tree) is not checked.
pub fn check_models(suites: &[FileModel], out: &mut Vec<Finding>) {
    for mr in MODELS {
        let Some(loom) = suites.iter().find(|s| s.path == mr.suite) else {
            continue;
        };
        let Some(f) = loom.fns.iter().find(|f| f.name == mr.model_fn) else {
            out.push(Finding {
                file: loom.path.clone(),
                line: 1,
                rule: "protocol-model-drift",
                msg: format!(
                    "loom model `{}` for protocol {} is missing; the spec table \
                     requires a live interleaving model per protocol",
                    mr.model_fn, mr.protocol
                ),
            });
            continue;
        };
        let Some((open, close)) = f.body else { continue };
        for ident in mr.idents {
            let found = loom.toks[open..=close]
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text.contains(ident));
            if !found {
                out.push(Finding {
                    file: loom.path.clone(),
                    line: f.line,
                    rule: "protocol-model-drift",
                    msg: format!(
                        "loom model `{}` no longer mentions `{}`; it has drifted \
                         from the {} protocol it is supposed to explore",
                        mr.model_fn, ident, mr.protocol
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let m = FileModel::build(path, src);
        let mut out = Vec::new();
        check_orderings(&[m], &mut out);
        out
    }

    #[test]
    fn wrong_ordering_is_flagged() {
        let f = run(
            "crates/uintr/src/upid.rs",
            "fn post(p: &U) { p.pending.fetch_or(1, Ordering::Relaxed); }\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "protocol-ordering");
        assert!(f[0].msg.contains("upid-pending"));
    }

    #[test]
    fn unspecced_op_on_governed_field_is_flagged() {
        let f = run(
            "crates/uintr/src/upid.rs",
            "fn clear(p: &U) { p.pending.fetch_and(0, Ordering::Release); }\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].msg.contains("no spec row"), "{}", f[0].msg);
    }

    #[test]
    fn nested_call_orderings_are_not_misattributed() {
        // `stopped.store(degraded.load(Acquire), Release)`: the Acquire
        // belongs to the inner load, not the outer store.
        let f = run(
            "crates/sched/src/worker.rs",
            "fn stop(s: &S) { s.stopped.store(s.degraded.load(Ordering::Acquire), Ordering::Release); }\n",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn non_atomic_method_on_governed_field_is_ignored() {
        let f = run(
            "crates/uintr/src/upid.rs",
            "fn probe(p: &U) -> bool { p.pending.is_set() }\n",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn ungoverned_files_are_unconstrained() {
        let f = run(
            "crates/metrics/src/counters.rs",
            "fn bump(c: &C) { c.pending.fetch_or(1, Ordering::Relaxed); }\n",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn version_chain_reader_must_not_weaken_its_walk() {
        let f = run(
            "crates/mvcc/src/version.rs",
            "fn walk(r: &R) { let v = r.head.load(Ordering::Acquire); v.next.load(Ordering::SeqCst); }\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].msg.contains("version-chain"), "{}", f[0].msg);
    }

    #[test]
    fn an_array_of_atomics_is_governed_through_its_index() {
        let f = run(
            "crates/mvcc/src/index.rs",
            "fn peek(n: &Node, i: usize) -> u64 { n.keys[i + 1].load(Ordering::Acquire) + n.slots[f(i)].load(Ordering::Relaxed) }\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].msg.contains("`keys.load`") && f[0].msg.contains("index-olc"), "{}", f[0].msg);
    }

    #[test]
    fn an_index_writer_must_not_unlock_relaxed() {
        let f = run(
            "crates/mvcc/src/index.rs",
            "fn unlock(l: &OptLatch, v: u64) { l.version.store(v, Ordering::Relaxed); }\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].msg.contains("index-olc"), "{}", f[0].msg);
    }

    #[test]
    fn a_deque_hint_publishes_nothing() {
        let f = run(
            "crates/sched/src/deque.rs",
            "fn guess(d: &D) -> u32 { d.pop_hint.hint.load(Ordering::Acquire) }\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].msg.contains("`hint.load`") && f[0].msg.contains("shard-deque"), "{}", f[0].msg);
    }

    #[test]
    fn a_suite_outside_the_tree_is_not_checked() {
        let mut out = Vec::new();
        check_models(&[], &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn missing_model_is_drift() {
        let loom = FileModel::build(
            SCHED_SUITE,
            "fn pending_bit_post_is_never_lost() { post(); take_pending(); }\n",
        );
        let mut out = Vec::new();
        check_models(&[loom], &mut out);
        assert!(
            out.iter().any(|f| f.rule == "protocol-model-drift"
                && f.msg.contains("degraded_entry_publishes_wake_fallback")),
            "{out:#?}"
        );
    }

    #[test]
    fn hollowed_out_model_is_drift() {
        let loom = FileModel::build(
            SCHED_SUITE,
            "fn degraded_entry_publishes_wake_fallback() { let x = 1; }\n",
        );
        let mut out = Vec::new();
        check_models(&[loom], &mut out);
        assert!(
            out.iter().any(|f| f.rule == "protocol-model-drift"
                && f.msg.contains("degraded_entry_publishes_wake_fallback")
                && f.msg.contains("drifted")),
            "{out:#?}"
        );
    }

    #[test]
    fn spec_covers_every_protocol_with_a_model() {
        use std::collections::HashSet;
        let spec: HashSet<&str> = SPEC.iter().map(|r| r.protocol).collect();
        let modeled: HashSet<&str> = MODELS.iter().map(|m| m.protocol).collect();
        for p in [
            "upid-pending",
            "watchdog-epoch-ack",
            "degraded",
            "shard-deque",
            "version-chain",
            "segment-directory",
            "index-olc",
            "index-hash-seq",
        ] {
            assert!(spec.contains(p), "protocol {p} has no spec rows");
            assert!(modeled.contains(p), "protocol {p} has no loom model");
        }
    }
}
