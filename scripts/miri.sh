#!/usr/bin/env bash
# Targeted Miri runs for the UB-sensitive corners that neither tests nor
# preempt-lint can prove: the context-local storage (CLS) slot machinery,
# the version-chain raw-pointer walks, and the indexes' node and slot-array
# pointers (never freed before `Drop`, dereferenced by latch-free readers).
#
# Scope notes:
#  * The raw stack switch itself (`arch::raw_swap`) is naked asm — Miri
#    cannot execute it, so switch tests are excluded by name.
#  * Stack allocation goes through mmap, which Miri's isolation rejects;
#    `-Zmiri-disable-isolation` lets the FFI through where supported.
#
# A lane that did not run must not read as green: without the miri
# component this prints SKIPPED and exits 77. tier1.sh does not call this
# script (the hermetic image has no network to install miri from; its loom
# and preempt-lint gates run everywhere); the CI job that does installs
# the component first.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo +nightly miri --version >/dev/null 2>&1; then
    echo "miri.sh: SKIPPED — miri is not installed (rustup +nightly component add miri)" >&2
    exit 77
fi

export MIRIFLAGS="-Zmiri-disable-isolation"

# CLS: slot allocation, per-context value isolation, reentrancy guard.
cargo +nightly miri test -p preempt-context --lib cls

# Version chains: latch-free walks over raw `head`/`next` pointers.
cargo +nightly miri test -p preempt-mvcc --lib version

# Indexes: node and slot-array pointers under optimistic readers, the
# child slots' exposed addresses, and `Drop` freeing every node once.
cargo +nightly miri test -p preempt-mvcc --lib index
