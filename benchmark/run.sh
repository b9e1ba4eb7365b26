#!/usr/bin/env bash
# The canonical invocation named in BENCHMARK.json. Builds the benchmark
# (offline, release) and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload tcp_mixed --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh                 # one full set, all workloads
#   bash benchmark/run.sh --repeat 5      # five sets and the spread check
#   bash benchmark/run.sh --quick         # development smoke
#
# cargo's own output goes to stderr; stdout is the benchmark's alone.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
