#!/usr/bin/env bash
# Builds linmond, linverify and the perfbench program from this checkout, then
# runs perfbench with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload wire-firehose --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and run files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0
mkdir -p "$GOTMPDIR"

go build -o "$out/bin/linmond" ./cmd/linmond
go build -o "$out/bin/linverify" ./cmd/linverify
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" -repo "$root" "$@"
