#!/usr/bin/env bash
# Non-test line count per crate: for every `.rs` file under
# crates/<name>/src, the lines before the file's first `#[cfg(test)]`
# line (the whole file when it has none). This is the measure the
# ROADMAP's subtraction items are judged by.
#
#   scripts/loc.sh                 # every crate, then the total
#   scripts/loc.sh sched core      # only the named crates, then their sum
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    crates=("$@")
else
    crates=()
    for dir in crates/*/; do
        crates+=("$(basename "$dir")")
    done
fi

total=0
for name in "${crates[@]}"; do
    src="crates/$name/src"
    if [ ! -d "$src" ]; then
        echo "loc.sh: no such crate source directory: $src" >&2
        exit 2
    fi
    n=0
    while IFS= read -r -d '' file; do
        lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        n=$((n + lines))
    done < <(find "$src" -name '*.rs' -print0)
    printf '%-10s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
