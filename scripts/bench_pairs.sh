#!/usr/bin/env bash
# bench_pairs.sh — paired end-to-end benchmark of the working tree
# against an earlier revision, as benchmark/README.md's "Comparing two
# commits" asks:
#
#   bash scripts/bench_pairs.sh REV WORKLOAD[,WORKLOAD...] [PAIRS [SEED]]
#
# REV is exported (git archive) into a temporary directory. For each
# workload in the comma-separated list, each pair runs
#   bash benchmark/run.sh --workload WORKLOAD --seed SEED --seconds 10 --trace 0 --out F
# once on REV and once on the working tree, alternating which side goes
# first, for PAIRS pairs (default 10) on SEED (default 1). Then it
# prints `benchmark/run.sh compare` of each workload's two record sets
# and removes the temporary directory. The records and each run's
# output stay under .bench_build/pairs/ at the repository root, named
# after the workload and seed.
#
# So "the claimed workload improved, every other workload stayed within
# bound, and the claim holds on a seed not used while writing" is
#   bash scripts/bench_pairs.sh REV grid-chunk-rr,openworld-flow,leafspine-10k-flow,tlsimd-submit
#   bash scripts/bench_pairs.sh REV grid-chunk-rr 10 3
#
# Exits 2 on bad arguments, 1 when a run or compare fails.
set -euo pipefail

usage="usage: bash scripts/bench_pairs.sh REV WORKLOAD[,WORKLOAD...] [PAIRS [SEED]]"
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "$usage" >&2
    exit 2
fi
rev="$1"
pairs="${3:-10}"
seed="${4:-1}"
case "$pairs" in
    '' | *[!0-9]* | 0) echo "bench_pairs: PAIRS must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac
case "$seed" in
    '' | *[!0-9]*) echo "bench_pairs: SEED must be a non-negative integer, got '$seed'" >&2; exit 2 ;;
esac
IFS=, read -r -a workloads <<<"$2"
if [ ${#workloads[@]} -eq 0 ]; then
    echo "$usage" >&2
    exit 2
fi
for w in "${workloads[@]}"; do
    if [ -z "$w" ]; then
        echo "bench_pairs: empty workload name in '$2'" >&2
        exit 2
    fi
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/pairs"
mkdir -p "$out"

src="$(mktemp -d)"
trap 'rm -rf "$src"' EXIT INT TERM
git -C "$root" archive "$rev" | tar -x -C "$src"

failed=0
# run SIDE DIR RECORDS PAIR: one benchmark run of the checkout at DIR.
run() {
    local log="$out/$workload-seed$seed-$1-$4.log"
    if bash "$2/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds 10 \
        --trace 0 --out "$3" >"$log" 2>&1; then
        echo "$workload pair $4 $1: $(tail -n 1 "$log")"
    else
        echo "$workload pair $4 $1: run failed, see $log" >&2
        failed=1
    fi
}

for workload in "${workloads[@]}"; do
    parent_out="$out/$workload-seed$seed-parent.jsonl"
    change_out="$out/$workload-seed$seed-change.jsonl"
    : >"$parent_out"
    : >"$change_out"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run parent "$src" "$parent_out" "$i"
            run change "$root" "$change_out" "$i"
        else
            run change "$root" "$change_out" "$i"
            run parent "$src" "$parent_out" "$i"
        fi
    done
done

for workload in "${workloads[@]}"; do
    echo "== $workload, seed $seed =="
    bash "$root/benchmark/run.sh" compare "$out/$workload-seed$seed-parent.jsonl" \
        "$out/$workload-seed$seed-change.jsonl" || failed=1
done
exit "$failed"
