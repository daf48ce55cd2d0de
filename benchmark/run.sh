#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from this
# directory. Everything the go command writes (build cache, temp files, the
# binary, its own config and telemetry files) goes to .bench_build/ at the
# root of the checkout, and it is told not to reach for the network. Every
# argument goes to the binary; see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export CGO_ENABLED=0 GOPROXY=off GOTOOLCHAIN=local
cd "$here"
go build -o "$build/plsqlbench" .
exec "$build/plsqlbench" "$@"
