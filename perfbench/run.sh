#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; arguments pass through, e.g.
#   bash perfbench/run.sh --workload estimate-cold --seed 1 --seconds 20 --trace 0
# Everything it writes (Go build cache, binary, stores, span files) stays
# under the build directory inside the checkout.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
build="$build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's own files (its telemetry
# counters) inside the build directory too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -work "$build" "$@"
