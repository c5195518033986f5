#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness and the two
# daemons it drives from source, then runs the harness with the caller's
# flags. Everything the Go toolchain writes (build cache, temp files,
# binaries) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$build/bin/" . antace/cmd/aced antace/cmd/acerouter)
exec "$build/bin/bench" "$@"
