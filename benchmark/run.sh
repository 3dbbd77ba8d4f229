#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root
# with the arguments given, e.g.
#
#   bash benchmark/run.sh --workload grid-chunk-rr --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh compare parent.jsonl change.jsonl
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/benchmark" build -o "$build/tlbench" .
cd "$root"
exec "$build/tlbench" "$@"
