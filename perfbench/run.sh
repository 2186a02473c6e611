#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#   bash perfbench/run.sh --workload sum-exact --seed 1 --seconds 10 --trace 0
# Run from the repository root. Everything the Go toolchain writes
# (build cache, module cache, temporary files, its config and telemetry
# directory, the binary) stays under .bench_build.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
