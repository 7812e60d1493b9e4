#!/bin/sh
# bench.sh — run the hot-path benchmarks and record the numbers as JSON.
#
# Usage: scripts/bench.sh output.json
#
# Runs the solver, selector, and full-system benchmarks with -benchmem and
# writes one JSON object per benchmark (name, ns/op, B/op, allocs/op) as a
# JSON array to the given path. There is no default path: the BENCH_<n>.json
# files at the repository root are the archived trajectory, and a run must
# name its output rather than overwrite one of them. The raw `go test`
# output is echoed to stderr so regressions are visible in CI logs.
#
# The unit-aware parsing that used to live here as awk now lives in
# internal/runner (ParseBench, with fixture tests over ns/µs/ms lines);
# this script just shells out to the experiment runner's bench mode.
#
# Alongside the timings it archives a station-metrics snapshot
# (<out>.metrics.json) from a quick instrumented figures run, so counter
# and histogram drift is reviewable next to the benchmark numbers.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: scripts/bench.sh output.json" >&2
    exit 2
fi
out=$1
cd "$(dirname "$0")/.."

go run ./cmd/experiment-runner -mode bench -out-bench "$out"

# Metrics snapshot: a quick instrumented run over the core figures, dumped
# as JSON next to the benchmark numbers.
metrics_out="${out%.json}.metrics.json"
go run ./cmd/figures -fig 2 -quick -metrics-out "$metrics_out" >/dev/null
echo "wrote $metrics_out" >&2
