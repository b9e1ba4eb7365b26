#!/usr/bin/env bash
# Tier-1 verification gate (ROADMAP.md): build, full test suite, a
# warning-free clippy pass, the preempt-lint static analyzer, and the
# loom model-checking tests. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# Every test binary runs under a time limit, so a hung test fails and
# cargo names the binary instead of the gate never ending. The slowest
# binary (policy_shapes) takes 24-30 s on a 2-CPU host; 300 s leaves
# ten times that.
CARGO_TARGET_X86_64_UNKNOWN_LINUX_GNU_RUNNER="timeout -k 10 300" cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Static preemption-safety analysis (DESIGN.md §12), diff-aware: fails
# only on findings not in the checked-in baseline; suppressions require
# a written reason. The JSON document is archived by CI as an artifact.
cargo run -p preempt-analysis --release -- \
    --baseline lint-baseline.json --json-out target/preempt-lint.json

# Exhaustive interleaving checks for the UPID pending-bit and epoch/ack
# watchdog protocols. `--cfg loom` changes every crate's fingerprint, so
# a dedicated target dir keeps it from thrashing the main build cache.
CARGO_TARGET_DIR=target/loom RUSTFLAGS="--cfg loom" \
    cargo test -p preempt-uintr --test loom -q

# The same for the storage engine's memory protocol (DESIGN.md §2.2):
# latch-free chain walks against install/commit, abort-unlink, trim,
# limbo reclamation and the segment-directory install race, with a teeth
# check that frees at unlink time and must be caught.
CARGO_TARGET_DIR=target/loom RUSTFLAGS="--cfg loom" \
    cargo test -p preempt-mvcc --lib loom_tests -q

# The four self-checking bench gates, one binary, in this order, stopping
# at the first failure (`run_all --check`; names in crates/bench/src/cli.rs).
#
# Adaptive-controller gate (DESIGN.md §9): unit + integration tests run
# under `cargo test` above; this replays the load-shift benchmark at CI
# scale and fails unless the controller beats the static sweep, honors
# the p99 SLO, replays deterministically, and abandons nothing on the
# no-progress retry path.
#
# Sharded-plane scaling gate (DESIGN.md §13): replays the fig09 sweep at
# CI scale and fails unless the sharded scheduler plane at least matches
# the single-global-queue baseline at >= 4 workers and throughput grows
# monotonically with the worker count. Full numbers: BENCH_fig09.json.
#
# Network front-door gate (DESIGN.md §14): closed-loop TCP load against
# the server with a throttled low class; fails unless accounting is
# exact (every request gets one typed reply), admission rejections
# surface as Overloaded frames, in-flight drains to zero, the ledger
# conserves, and the high class holds its p99 SLO under mixed load.
# Full numbers: BENCH_server.json.
#
# Attribution gate (DESIGN.md §15): reconstructs per-class phase
# attribution from the trace rings and fails unless it reconciles with
# the registry plane exactly, phase sums match end-to-end p99 within
# tolerance, Preempt shows lower high-class queue-wait than Wait on the
# same seed, attribution replays byte-identically, and the flight
# recorder fires on SLO breach. Full numbers: BENCH_attr.json.
cargo run --release -p preempt-bench --bin run_all -- --check
