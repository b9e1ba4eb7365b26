#!/usr/bin/env bash
# Alternating parent/change runs of the frozen benchmark (ROADMAP ground
# rules: "measured as alternating parent/change pairs on seeds not used
# in development").
#
#   scripts/bench_pairs.sh [--control] <parent-ref> <workload> <pairs> [seconds] [trace]
#
#   scripts/bench_pairs.sh HEAD~1 pool_preempt 6        # 6 pairs, 20 s, untraced
#   scripts/bench_pairs.sh HEAD~1 pool_preempt 3 20 1   # traced: per-layer rows
#   scripts/bench_pairs.sh --control HEAD~1 pool_preempt 10   # noise floor
#
# The parent is exported (`git archive`) to target/bench_pairs/<sha> and
# built there once; the change is the working tree. Pair i runs both
# sides on seed base+i, and which side goes first alternates. Prints one
# row per pair for the four end-to-end metrics, then for every metric
# both sides printed the two medians, the parent runs' inter-quartile
# range and how many pairs the change won (direction from
# BENCHMARK.json). Each run gets 4 x seconds + 240 s; one that takes
# longer is killed and reported as hung. A run that exits non-zero
# shows its failing `check` rows and the end of its stderr; every run's
# output is kept in target/bench_pairs/runs/<workload>.t<trace>/. Run
# nothing else meanwhile: the host has two CPUs.
#
# --control runs the parent against itself: the "change" side is a
# second export of the same commit (target/bench_pairs/<sha>.control),
# built on its own, so the table shows what two builds of identical
# source read — the noise floor a claimed difference must clear.
set -euo pipefail
cd "$(dirname "$0")/.."

control=0
if [ "${1:-}" = --control ]; then
    control=1
    shift
fi
if [ $# -lt 3 ]; then
    sed -n '2,10p' "$0" >&2
    exit 2
fi
ref=$1 workload=$2 pairs=$3 seconds=${4:-20} trace=${5:-0}
sha=$(git rev-parse --short "$ref^{commit}")
parent=target/bench_pairs/$sha
change=.
out=target/bench_pairs/runs/$workload.t$trace
if [ "$control" -eq 1 ]; then
    change=$parent.control
    out=$out.control
fi
# A local build rewrites benchmark/Cargo.lock by one line.
trap 'git checkout -q -- benchmark/Cargo.lock' EXIT

for tree in "$parent" "$change"; do
    if [ ! -d "$tree" ]; then
        mkdir -p "$tree"
        git archive "$sha" | tar -x -C "$tree"
    fi
done
for tree in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
done

leftovers=$(ps -eo pid,pcpu,args | awk '$3 ~ /\/target\/.*\/deps\//' || true)
if [ -n "$leftovers" ]; then
    echo "WARNING: a test binary is still running and will skew every number:" >&2
    echo "$leftovers" >&2
fi

base=$(( $(date +%s) % 100000 * 10 ))
if [ "$control" -eq 1 ]; then what="a second build of $sha (control)"; else what="working tree"; fi
echo "parent $sha, change = $what; $workload, $pairs pairs, --seconds $seconds --trace $trace, seeds $((base + 1))..$((base + pairs))"

rm -rf "$out" && mkdir -p "$out"
e2e="setup_s high_p50_us high_p90_us high_ops_per_s"
printf '%-5s %-7s %-7s' pair seed first
for m in $e2e; do printf ' %27s' "$m (parent change)"; done
echo
for i in $(seq 1 "$pairs"); do
    seed=$((base + i))
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
        log=$out/$i.$side
        rc=0
        timeout $((4 * seconds + 240)) bash "$tree/benchmark/run.sh" --workload "$workload" \
            --seed "$seed" --seconds "$seconds" --trace "$trace" >"$log" 2>"$log.err" || rc=$?
        if [ "$rc" -eq 124 ]; then
            echo "pair $i: the $side run hung (killed after $((4 * seconds + 240)) s)"
        elif [ "$rc" -ne 0 ]; then
            echo "pair $i: the $side run failed:"
            grep -E '^check .* FAILED' "$log" || true
            tail -n 5 "$log.err"
        fi
    done
    printf '%-5s %-7s %-7s' "$i" "$seed" "${order%% *}"
    for m in $e2e; do
        row=
        for side in parent change; do
            v=$(awk -v m="$m" '$1 == "metric" && $4 == m { printf "%.6g", $5 }' "$out/$i.$side")
            row="$row ${v:--}"
        done
        printf ' %27s' "$row"
    done
    echo
done

# Medians and wins over every metric row both sides of a pair printed.
echo
printf '%-34s %14s %14s %14s %8s %s\n' metric parent_median parent_iqr change_median change wins
for f in "$out"/*.parent "$out"/*.change; do
    awk -v pair="$(basename "${f%.*}")" -v side="${f##*.}" \
        '$1 == "metric" { print $4, pair, side, $5 }' "$f"
done | sort -k1,1 -k2,2n | awk -v spec=BENCHMARK.json '
    BEGIN {
        while ((getline line < spec) > 0)
            if (match(line, /"name": "[^"]+"/)) {
                name = substr(line, RSTART + 9, RLENGTH - 10)
                if (line ~ /"better": "higher"/) higher[name] = 1
                else if (line ~ /"better": "lower"/) higher[name] = 0
            }
    }
    function median(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    function flush(    n, k, up, wins, ties) {
        if (metric == "") return
        up = (metric in higher) ? higher[metric] : -1
        n = 0; wins = 0; ties = 0
        for (k in par) if (k in chg) {
            n++; ps[n] = par[k]; cs[n] = chg[k]
            if (chg[k] == par[k]) ties++
            else if ((chg[k] > par[k]) == up) wins++
        }
        if (n > 0) {
            pm = median(ps, n); cm = median(cs, n)
            # median() left ps sorted: nearest-rank quartiles of the parent.
            iqr = ps[int((3 * n + 3) / 4)] - ps[int((n + 3) / 4)]
            delta = pm != 0 ? sprintf("%+.1f%%", (cm - pm) / pm * 100) : "-"
            score = up < 0 ? "-" : sprintf("%d/%d%s", wins, n, ties ? " (" ties " ties)" : "")
            printf "%-34s %14.6g %14.6g %14.6g %8s %s\n", metric, pm, iqr, cm, delta, score
        }
        delete par; delete chg
    }
    $1 != metric { flush(); metric = $1 }
    $3 == "parent" { par[$2] = $4 + 0 }
    $3 == "change" { chg[$2] = $4 + 0 }
    END { flush() }
'
