#!/usr/bin/env bash
# Builds the dtlbench benchmark from the enclosing checkout and runs it:
#
#   bash dtlbench/run.sh --workload sr-replay --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache, span dumps and profiles all stay under
# .bench_build/ in the checkout. The build fails, and so does this script,
# when the checkout holds no simulator sources.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$bench" build -o "$build/dtlbench" . >&2
exec "$build/dtlbench" --out "$build" "$@"
