#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, keeping
# everything the Go toolchain writes (build cache, module cache, temporary
# files, the binary) under .bench_build in the checkout.
#
#   bash benchmark/run.sh --workload node-batch --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
