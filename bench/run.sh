#!/usr/bin/env bash
# Builds the benchmark and the peerd it launches, then runs the benchmark
# from the root of the checkout:
#
#   bash bench/run.sh --workload serve_cold --seed 42 --seconds 16 --trace 0
#
# Everything the build leaves behind goes under .bench_build/ in the
# checkout, the Go build cache included, so nothing outside the checkout is
# written. Building happens here, before the benchmark's clock starts.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/peerd" ./cmd/peerd
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
