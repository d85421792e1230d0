#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark from the checkout's own
# sources into .bench_build/ (build cache included, so nothing is written
# outside the checkout) and runs it with the driver's arguments:
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# An up-to-date binary makes the build step a no-op, so only the first run
# in a checkout pays for compilation.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOWORK=off
go build -o "$build/newtop-benchmark" ./benchmark
exec "$build/newtop-benchmark" "$@"
