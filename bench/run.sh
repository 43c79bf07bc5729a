#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments. This
# is the command BENCHMARK.json names: everything it writes — the Go build
# cache, the binary, journals, span files — stays under .bench_build in the
# checkout it is run from.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
# A build leaves dirty pages behind; flushing them now keeps their write-back
# out of the fsync latencies about to be measured.
sync
exec .bench_build/bench "$@"
