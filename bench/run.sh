#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   bash bench/run.sh                 build, untraced pass, traced pass, selfcheck
#   bash bench/run.sh <flags>         build, then run the benchmark with those flags
#                                     (the driver: --workload W --seed N --seconds S --trace 0|1)
#
# Everything the build and the runs write stays inside the checkout: the
# binary and the Go build cache under .bench_build/, outputs under
# bench/out/. GOMAXPROCS and GOGC are pinned so two runs compare.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMAXPROCS=2 GOGC=100

bin="$build/rpivideo-bench"
go build -C "$root/bench" -o "$bin" .

out="$root/bench/out"
if [ "$#" -gt 0 ]; then
	exec "$bin" -out "$out" "$@"
fi
"$bin" -out "$out"
"$bin" -out "$out" -trace 1
"$bin" -out "$out" -selfcheck
