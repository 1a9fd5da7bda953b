#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# repository root with the given arguments, e.g.
#   bash benchmark/run.sh --workload engine-cold --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare PARENT_DIR CHANGE_DIR
# Everything it writes (Go build cache, binary, scratch files) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o "$build/s3bench-load" .)
exec "$build/s3bench-load" "$@"
