#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: bash benchmark/run.sh --workload seqwrite --seed 1 --seconds 10 --trace 0
# Everything the build writes (Go build cache included) stays under
# .bench_build/, so a run reads and writes only inside its checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
go build -o "$build/raizn-benchmark" ./benchmark
exec "$build/raizn-benchmark" "$@"
