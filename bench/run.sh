#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash bench/run.sh --workload infer-local --seed 1 --seconds 8 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ so nothing is read or written outside the checkout; the
# first build therefore compiles the standard library too (about a
# minute on two cores), later ones only what changed.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$build/edgehd-bench" ./bench
exec "$build/edgehd-bench" "$@"
