#!/usr/bin/env bash
# Builds the df3perf benchmark harness from the checkout's source and runs
# it with the given arguments, from the root of the checkout:
#
#   bash df3perf/run.sh --workload fed_edge --seed 1 --seconds 25 --trace 0
#
# Build output, the Go build cache and run scratch all stay under the
# build directory ($CARGO_TARGET_DIR, default .bench_build), so a run
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomodcache
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/df3perf" && go build -o "$build/df3perf" .)

# The run's scratch is named relative to the checkout root so unix socket
# paths stay short.
exec "$build/df3perf" -workdir "${build#"$root"/}/run" "$@"
