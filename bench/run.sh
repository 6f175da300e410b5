#!/bin/sh
# Entry point named by BENCHMARK.json: build the benchmark from source into
# .bench_build/ of the checkout (Go's build cache and temp files included, so
# nothing is written outside it) and run it with the driver's arguments.
set -e
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C bench -o "$build/sheriffbench" .
exec "$build/sheriffbench" "$@"
