#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it:
#
#   bash okbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# per-run result files all stay under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath \
	GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/okbench" && go build -o "$build/okbench" .)
exec "$build/okbench" --out "$build/okbench-results" "$@"
