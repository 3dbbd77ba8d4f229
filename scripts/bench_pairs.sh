#!/usr/bin/env bash
# bench_pairs.sh — paired end-to-end benchmark of the working tree
# against an earlier revision, as benchmark/README.md's "Comparing two
# commits" asks:
#
#   bash scripts/bench_pairs.sh REV WORKLOAD [PAIRS]
#
# REV is checked out into a temporary git worktree. Each pair runs
#   bash benchmark/run.sh --workload WORKLOAD --seed 1 --seconds 10 --trace 0 --out F
# once on REV and once on the working tree, alternating which side goes
# first, for PAIRS pairs (default 10). Then it prints
# `benchmark/run.sh compare` of the two record sets and removes the
# worktree. The records and each run's output stay under
# .bench_build/pairs/ at the repository root.
#
# Exits 2 on bad arguments, 1 when a run or compare fails.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: bash scripts/bench_pairs.sh REV WORKLOAD [PAIRS]" >&2
    exit 2
fi
rev="$1"
workload="$2"
pairs="${3:-10}"
case "$pairs" in
    '' | *[!0-9]* | 0) echo "bench_pairs: PAIRS must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/pairs"
mkdir -p "$out"
parent_out="$out/$workload-parent.jsonl"
change_out="$out/$workload-change.jsonl"
: >"$parent_out"
: >"$change_out"

wt="$(mktemp -d)"
cleanup() {
    git -C "$root" worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
    git -C "$root" worktree prune
}
trap cleanup EXIT INT TERM
git -C "$root" worktree add --quiet --detach "$wt" "$rev"

failed=0
# run SIDE DIR RECORDS PAIR: one benchmark run of the checkout at DIR.
run() {
    local log="$out/$workload-$1-$4.log"
    if bash "$2/benchmark/run.sh" --workload "$workload" --seed 1 --seconds 10 \
        --trace 0 --out "$3" >"$log" 2>&1; then
        echo "pair $4 $1: $(tail -n 1 "$log")"
    else
        echo "pair $4 $1: run failed, see $log" >&2
        failed=1
    fi
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$wt" "$parent_out" "$i"
        run change "$root" "$change_out" "$i"
    else
        run change "$root" "$change_out" "$i"
        run parent "$wt" "$parent_out" "$i"
    fi
done

bash "$root/benchmark/run.sh" compare "$parent_out" "$change_out" || failed=1
exit "$failed"
