#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the given
# flags, from the repository root:
#
#   bash bench/run.sh -workload suite-colored -seed 1 -seconds 10 -trace 0
#
# The binary and the Go build cache live in .bench_build/ at the root, so a
# run reads and writes nothing outside the checkout. The benchmark is its own
# module (bench/go.mod) that uses the library from the parent directory; a
# bench/ directory without the library around it fails to build.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
go -C "$here" build -o "$out/grappolo-bench" .
exec "$out/grappolo-bench" "$@"
