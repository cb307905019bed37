#!/usr/bin/env bash
# Builds cmd/yatserve and the benchmark from this checkout, then runs
# the benchmark from the checkout root with the given arguments:
#
#   bash perfbench/run.sh --workload hot-ask --seed 1 --seconds 10 --trace 0
#
# Builds, the Go build cache and run artifacts stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/config" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
go build -o "$build/bin/yatserve" ./cmd/yatserve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -yatserve "$build/bin/yatserve" -out "$build/perfbench" "$@"
