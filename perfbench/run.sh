#!/usr/bin/env bash
# Builds the PrismDB benchmark from the checkout it sits in and runs it.
#
# Usage (from the repository root):
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write (Go build cache, the binary, the
# durable workload's data directory, temp files) goes under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build. The build uses
# no network: the benchmark module needs nothing but the repository itself.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOWORK=off

go -C perfbench build -o "$build/prismperf" .
exec "$build/prismperf" --workdir "$build" "$@"
