#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it with the
# arguments given, from the root of a checkout:
#
#   bash wallbench/run.sh --workload tpch --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) of the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-cache" "$build/go-path" "$build/go-tmp" "$build/config"

export GOCACHE=$build/go-cache GOPATH=$build/go-path GOTMPDIR=$build/go-tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOWORK=off

(cd "$root/wallbench" && go build -o "$build/wallbench" .)
exec "$build/wallbench" --out "$build/wallbench-out" "$@"
