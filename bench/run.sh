#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# checkout and runs it there. BENCHMARK.json's command is this script, run
# from the repository root; every argument goes to the benchmark. The Go
# build cache is kept inside the checkout too, so nothing is read or written
# outside it (the Go toolchain itself aside).
set -euo pipefail
root=$PWD
src=$(dirname "$0")
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C "$src" -o "$out/bench" .
exec "$out/bench" "$@"
