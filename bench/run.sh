#!/bin/bash
# Builds the benchmark and runs it with the arguments given, from the
# root of a checkout:
#
#	bash bench/run.sh --workload durable --seed 1 --seconds 20 --trace 0
#
# The binary and Go's build cache go to .bench_build/ in the checkout, so
# that nothing is written outside it; the first run in a fresh checkout
# therefore compiles the standard library too (about a minute).
set -e
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" .
exec "$build/bench" "$@"
