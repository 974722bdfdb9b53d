#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source inside the
# checkout, then run it with the arguments given. Everything the build
# writes (Go's build cache and temporary files included) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS="-buildvcs=false"
go build -o .bench_build/streach-benchmark ./benchmark
exec .bench_build/streach-benchmark "$@"
