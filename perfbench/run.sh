#!/usr/bin/env bash
# Builds the benchmark and the maiad daemon from this checkout's sources,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/maiad" maia/cmd/maiad)
exec "$build/bin/perfbench" --maiad "$build/bin/maiad" --out "$build/out" "$@"
