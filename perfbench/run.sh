#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build in the checkout: the
# Go build cache, a private HOME and temporary directory for the toolchain,
# the binary, results, traces and scratch files.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/bin" "$build/tmp"
export HOME="$build/home" GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off GOENV=off
PERFBENCH_GIT_REV="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
export PERFBENCH_GIT_REV
go -C "$root/perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
