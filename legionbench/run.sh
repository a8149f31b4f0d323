#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash legionbench/run.sh --workload invoke-mem --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# (Go build cache, temporary files, store directories, the binary) stays
# under .bench_build/ in that root. The last line of standard output is
# the result as one JSON object.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" TMPDIR="$work/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

# Fails (non-zero, no result) when the program's sources are not beside
# the benchmark: the module replaces repro with the checkout root.
go -C "$root/legionbench" build -o "$work/legionbench" . >&2

exec "$work/legionbench" -workdir "$work" "$@"
