#!/bin/sh
# perfgate.sh — the cross-run performance gate: this tree against a base
# commit, measured in alternating pairs on the same machine.
#
# It checks <base-ref> out with `git worktree add` into a temp dir. For each
# benchmark workload (table3, corpus_cold, corpus_dirty, serve) it then runs
# three base/change pairs of
#
#   bash bench/run.sh --workload W --seed 1 --seconds 3 --trace 0 --out ...
#
# flipping which side goes first in each pair, and compares the two sets
# against the bounds in BENCHMARK.json twice. `pdbench -compare`, built
# from this tree, prints medians and quartiles and fails on a "worse"
# verdict. scripts/perfcheck.go fails when every change run of a metric is
# worse than every base run by more than its bound (which holds a gross
# slowdown that pdbench's spread rule leaves "unresolved"), when the
# change fails a larger share of its operations than the base, or when a
# run document reports no operations. No timing baseline is committed:
# both sides are measured here and now.
#
# The run documents, the compare table (compare.txt) and perfcheck's
# lines (perfcheck.txt) are left in .bench_build/perfgate/.
#
# Usage: sh scripts/perfgate.sh <base-ref>
#        (ci.sh and `make perfgate` pass PERF_BASE, default HEAD~1)
set -eu

if [ $# -ne 1 ]; then
    echo "usage: sh scripts/perfgate.sh <base-ref>" >&2
    exit 2
fi
ref=$1
cd "$(dirname "$0")/.."
base=$(git rev-parse --verify --quiet "$ref^{commit}") || {
    echo "perfgate: $ref is not a commit" >&2
    exit 2
}

out=$(pwd)/.bench_build/perfgate
rm -rf "$out"
mkdir -p "$out"
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" 2>/dev/null; rm -rf "$tmp"; git worktree prune' EXIT
git worktree add --quiet --detach "$tmp/base" "$base"
if [ ! -f "$tmp/base/bench/run.sh" ]; then
    echo "perfgate: base $ref has no bench/run.sh to measure" >&2
    exit 2
fi

# measure SIDE DIR WORKLOAD PAIR runs one workload in one tree.
measure() {
    echo "perfgate: $3 pair $4: $1" >&2
    (cd "$2" && bash bench/run.sh --workload "$3" --seed 1 --seconds 3 --trace 0 \
        --out "$out/$3.$1.$4.json" >/dev/null)
}

status=0
for w in table3 corpus_cold corpus_dirty serve; do
    for pair in 1 2 3; do
        if [ $((pair % 2)) = 1 ]; then
            measure base "$tmp/base" "$w" "$pair"
            measure change . "$w" "$pair"
        else
            measure change . "$w" "$pair"
            measure base "$tmp/base" "$w" "$pair"
        fi
    done
done

runs() { ls "$out"/*."$1".*.json | paste -sd, -; }
bash bench/run.sh -compare "$(runs base)" "$(runs change)" >"$out/compare.txt" || status=1
cat "$out/compare.txt"
go run scripts/perfcheck.go BENCHMARK.json "$(runs base)" "$(runs change)" >"$out/perfcheck.txt" || status=1
cat "$out/perfcheck.txt"
if [ "$status" != 0 ]; then
    echo "perfgate: FAIL against $ref ($base)" >&2
    exit 1
fi
echo "perfgate: no worse than $ref ($base)"
