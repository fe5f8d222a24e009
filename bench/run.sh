#!/usr/bin/env bash
# Builds the hwgc end-to-end benchmark from source and runs it.
#
# Run from the repository root, e.g.
#
#   bash bench/run.sh --workload sim-paper --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --workload all
#
# Every build product, the Go build cache and all temporary files stay under
# .bench_build/ in the current directory, so the benchmark reads and writes
# nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/hwgcbench" .)
exec "$out/hwgcbench" "$@"
