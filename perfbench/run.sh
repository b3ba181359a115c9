#!/usr/bin/env bash
# Builds saserve and the benchmark from the tree in the current directory,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under the tree: binaries and the Go build cache in $CARGO_TARGET_DIR
# (default .bench_build), results and spans in .bench_out.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$build/saserve" ./cmd/saserve
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -saserve "$build/saserve" -out "$root/.bench_out" "$@"
