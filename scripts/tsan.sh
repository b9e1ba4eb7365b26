#!/usr/bin/env bash
# ThreadSanitizer pass over the atomics-heavy crates: the UPID
# pending-bit and epoch/ack watchdog protocols (preempt-uintr) and the
# scheduler's degraded/incarnation plumbing (preempt-sched). TSan
# observes the *real* orderings the compiled code uses, complementing
# the two static/model gates:
#
#  * loom explores all sequentially-consistent interleavings of the
#    modeled protocols, but only of the models;
#  * preempt-lint's protocol spec table checks every load/store against
#    the declared ordering, but cannot see dynamic interleavings;
#  * TSan runs the actual test suite under a happens-before race
#    detector, catching accesses the other two never modeled.
#
# TSan on Rust needs a nightly toolchain plus the rust-src component
# (`-Zbuild-std` rebuilds std with the sanitizer). A lane that did not
# run must not read as green: with a prerequisite missing this prints
# SKIPPED and exits 77, like scripts/miri.sh. tier1.sh does not call this
# script (its loom + preempt-lint gates run everywhere); the CI job that
# does installs both first.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "tsan.sh: SKIPPED — no nightly toolchain (rustup toolchain install nightly)" >&2
    exit 77
fi

if ! rustup +nightly component list --installed 2>/dev/null | grep -q '^rust-src'; then
    echo "tsan.sh: SKIPPED — rust-src is missing (rustup +nightly component add rust-src)" >&2
    exit 77
fi

host="$(rustc +nightly -vV | awk '/^host:/ {print $2}')"

# Sanitized builds get their own target dir: `-Zsanitizer=thread`
# changes every fingerprint and must not thrash the main build cache.
export CARGO_TARGET_DIR=target/tsan
export RUSTFLAGS="-Zsanitizer=thread"
# Suppress TSan's non-zero exit on benign shutdown ordering in the test
# harness itself; races in crate code still abort the run.
export TSAN_OPTIONS="halt_on_error=1"

# UPID post/take/repost and the epoch/ack watchdog handoff.
cargo +nightly test -Zbuild-std --target "$host" -p preempt-uintr --lib

# Scheduler-side degraded-mode and incarnation publication.
cargo +nightly test -Zbuild-std --target "$host" -p preempt-sched --lib
