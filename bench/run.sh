#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it with the arguments given. Everything the build and the run write
# — Go's build cache, temporary files, scratch directories, span files —
# goes under .bench_build/ at the root of the checkout, so nothing outside
# the checkout is touched. Without the repository around it (go.mod and
# the packages under test) the build fails and the script exits nonzero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export TMPDIR="$build/tmp" BENCH_OUT="$build/spans"
go build -C "$here" -o "$build/bench" .
exec "$build/bench" "$@"
