#!/usr/bin/env bash
# Builds the benchmark and the experiments binary from this checkout into
# .bench_build/, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload l2_star_scan --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off
go build -o "$out/experiments" ./cmd/experiments
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
