#!/usr/bin/env bash
# Builds stationd and the benchmark driver from source and runs the
# driver from the repository root. Every build output, including the Go
# build cache, stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/stationd" ./cmd/stationd
go build -C bench -o "$PWD/$out/bench" .
exec "$out/bench" "$@"
