#!/usr/bin/env bash
# Same-behaviour check: runs the 72-block simulator matrix
# (crates/bench/examples/same_behaviour.rs) in an export of <ref> and in
# the working tree, and diffs the two outputs.
#
#   scripts/same_behaviour.sh <ref> [filter...]
#
#   scripts/same_behaviour.sh HEAD~1            # all 72 blocks
#   scripts/same_behaviour.sh HEAD~1 coop       # only the Cooperative blocks
#   scripts/same_behaviour.sh ../other-tree     # a directory instead of a ref
#
# <ref> is exported (`git archive`) to target/same_behaviour/<sha>; a
# directory is used as it is. The working tree's copy of the example is
# put into the other tree before building, so both sides run the same
# matrix against their own libraries; a directory that already holds a
# different copy is refused (exit 2), not overwritten. Filters select
# blocks whose label ("16w coop s2 lossy") contains every one of them.
# Prints the label of every block that differs; exits 0 when the outputs
# are byte-identical, 1 when they differ. Both outputs and their line diff stay in
# target/same_behaviour/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    sed -n '2,10p' "$0" >&2
    exit 2
fi
ref=$1
shift
example=crates/bench/examples/same_behaviour.rs
if [ -d "$ref" ]; then
    other=$(cd "$ref" && pwd)
    name=$(basename "$other")
else
    name=$(git rev-parse --short "$ref^{commit}")
    other=target/same_behaviour/$name
    if [ ! -d "$other" ]; then
        # Extract beside the final name and move it into place whole, so
        # an interrupted export is never taken for a finished one.
        mkdir -p target/same_behaviour
        part=$(mktemp -d "$other.part.XXXXXX")
        git archive "$name" | tar -x -C "$part"
        mv "$part" "$other"
    fi
fi
out=target/same_behaviour
if [ -d "$ref" ] && [ -e "$other/$example" ] && ! cmp -s "$example" "$other/$example"; then
    echo "$other/$example differs from $example; remove it or copy it over first" >&2
    exit 2
fi
mkdir -p "$out" "$other/crates/bench/examples"
if ! cmp -s "$example" "$other/$example"; then
    cp "$example" "$other/$example"
fi
for side in other tree; do
    if [ "$side" = other ]; then dir=$other; else dir=.; fi
    # Each tree builds into its own target directory, whatever the
    # caller's CARGO_TARGET_DIR says.
    CARGO_TARGET_DIR=$dir/target cargo build --release --offline --quiet \
        --manifest-path "$dir/Cargo.toml" -p preempt-bench --example same_behaviour
    "$dir/target/release/examples/same_behaviour" "$@" >"$out/$name.$side.txt" 2>"$out/$name.$side.err"
done

a=$out/$name.other.txt b=$out/$name.tree.txt
if cmp -s "$a" "$b"; then
    echo "identical: $(grep -c '^== ' "$b") blocks"
    exit 0
fi
# Every line prefixed with its block's label, so a diff names the blocks.
labelled() { awk '/^== /{ l = substr($0, 4) } { print l "\t" $0 }' "$1"; }
differ=$(diff <(labelled "$a") <(labelled "$b") | sed -n 's/^[<>] \([^\t]*\)\t.*/\1/p' | sort -u || true)
echo "blocks that differ ($(echo "$differ" | wc -l) of $(grep -c '^== ' "$b")):"
echo "$differ" | sed 's/^/  /'
diff "$a" "$b" >"$out/$name.diff" || true
echo "line diff: $out/$name.diff"
exit 1
