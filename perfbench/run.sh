#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
