#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. This is the
# command BENCHMARK.json names; run it from the repository root.
#
# The build cache, the module cache and the binary all live in .bench_build
# at the repository root, so building writes nothing outside the checkout.
# A second run finds everything cached and only relinks if a source changed.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off

# The benchmark is a module of its own (bench/go.mod) that replaces the
# "nexus" module with the repository root; without the root's sources the
# build fails here and nothing is run.
(cd "$bench_dir" && go build -o "$build/nexus-bench" .)

exec "$build/nexus-bench" "$@"
