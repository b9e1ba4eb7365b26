#!/usr/bin/env bash
# Network front-door smoke: start the standalone preemptdb-server
# binary on an ephemeral port, drive it with the external mode of the
# server_bench load generator over a real TCP connection, and require a
# clean pass. Exercises the process boundary the in-process gate in
# tier1.sh cannot (binary arg parsing, the "listening on" contract, and
# cross-process framing). Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p preempt-bench --bin run_all -p preemptdb-server --bin preemptdb-server

log="$(mktemp)"
./target/release/preemptdb-server --addr 127.0.0.1:0 --workers 2 --accounts 64 \
    --duration-ms 60000 >"$log" 2>&1 &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true' EXIT

# Wait for the bind line (the binary prints it once the socket is up).
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$log" | head -n1)"
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$log"; echo "server exited early"; exit 1; }
    sleep 0.1
done
if [ -z "$addr" ]; then
    cat "$log"
    echo "server never reported its listen address"
    exit 1
fi
echo "server up on $addr"

./target/release/run_all server_bench --addr "$addr"

kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
trap - EXIT
echo "server smoke passed"
