#!/usr/bin/env bash
# Builds anyoptd and the benchmark program from this checkout, then runs the
# benchmark with the arguments given (--workload, --seed, --seconds, --trace).
# Run from the repository root:
#
#	bash anyoptbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
#
# Every build output, Go cache and run directory stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/anyoptd" ./cmd/anyoptd
(cd anyoptbench && go build -o "$out/anyoptbench" .)
exec "$out/anyoptbench" -anyoptd "$out/anyoptd" -workdir "$out" "$@"
