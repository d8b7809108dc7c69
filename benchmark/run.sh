#!/usr/bin/env bash
# Builds the harness and timber-serve from this checkout and runs the
# harness with the given arguments. Everything the build and the run
# write stays inside the checkout: the Go build cache and binaries in
# .bench_build/, results and work files in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
mkdir -p "$build/bin" "$here/out"

(cd "$root" && go build -o "$build/bin/timber-serve" ./cmd/timber-serve)
(cd "$here" && go build -o "$build/bin/timber-benchmark" .)

exec "$build/bin/timber-benchmark" -serve-bin "$build/bin/timber-serve" -out "$here/out" "$@"
