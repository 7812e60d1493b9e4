#!/bin/sh
# check.sh — the tier-1 gate: formatting, vet, build, race-enabled tests
# (shuffled, uncached), a coverage floor, and a short fuzz smoke over the
# native fuzz targets. Run before sending any change.
set -eu

cd "$(dirname "$0")/.."

# Statement-coverage floor across ./... — raise it as coverage grows,
# never lower it to get a change through. Measured 80.4% when recorded.
COVERAGE_BASELINE=80.0
# Per-target budget for the fuzz smoke; set FUZZTIME=0 to skip.
FUZZTIME=${FUZZTIME:-10s}
# Archived benchmark baseline for the perf gate; set PERFCHECK=0 to skip
# the (benchmark-running) comparison.
PERF_BASELINE=BENCH_4.json
PERFCHECK=${PERFCHECK:-1}

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    printf '%s\n' "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race -count=1 -shuffle=on -coverprofile=coverage.out ./...

# Extra race shakedown, a second shuffled run so scheduling-order and
# test-order bugs have two chances to trip: the daemon's handler and
# clone-pool paths (its two-station fleet test sends a concurrent load
# through both window loops and their peer fetches), the parallel map
# behind the studies' sweeps, the resilience state machines and the
# serving tier (window engine + peer fetcher + consistent-hash ring,
# whose submit/serve loop and cross-station fetch phase are the most
# schedule-sensitive code in the repo). The multi-cell engine, the
# dissemination stack (strategy cells plus the invalidation/broadcast
# layers under them) and the request-stream generator start no
# goroutines; they stay on the list because they cost the pass little
# and a second shuffled run still catches test-order dependence.
go test -race -count=2 -shuffle=on ./cmd/stationd ./internal/parallel ./internal/multicell ./internal/resilience \
    ./internal/broadcast ./internal/invalidation ./internal/dissemination \
    ./internal/serve ./internal/serve/ring ./internal/loadgen

coverage=$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')
rm -f coverage.out
echo "total coverage: ${coverage}% (baseline ${COVERAGE_BASELINE}%)"
if awk "BEGIN {exit !($coverage < $COVERAGE_BASELINE)}"; then
    echo "coverage ${coverage}% fell below the ${COVERAGE_BASELINE}% baseline" >&2
    exit 1
fi

# Solver-equivalence gate: the incremental warm-start solver must return
# bit-identical solutions to the cold DP across randomized edit sequences
# (knapsack layer) and identical plans through the selector (core layer),
# and the cold DP's pruned rows must reproduce the unpruned reference DP
# bit for bit.
go test -race -count=1 -run 'Incremental|PrunedDP' ./internal/knapsack ./internal/core

# The benchmark driver (bench/) is its own module importing the facade,
# internal/runner and internal/experiment; its unit tests open no ports
# and start no processes, so a refactor that breaks its build fails here
# rather than only in a benchmark run.
(cd bench && go test ./...)

if [ "$FUZZTIME" != "0" ]; then
    go test -run=NONE -fuzz=FuzzSolveDP -fuzztime="$FUZZTIME" ./internal/knapsack
    go test -run=NONE -fuzz=FuzzIncremental -fuzztime="$FUZZTIME" ./internal/knapsack
    go test -run=NONE -fuzz=FuzzRecencyCurve -fuzztime="$FUZZTIME" ./internal/recency
    go test -run=NONE -fuzz=FuzzBreaker -fuzztime="$FUZZTIME" ./internal/resilience
    go test -run=NONE -fuzz=FuzzNextOccurrence -fuzztime="$FUZZTIME" ./internal/broadcast
    go test -run=NONE -fuzz=FuzzDecodeSelect -fuzztime="$FUZZTIME" ./cmd/stationd
fi

# Experiment-runner smoke: a tiny 2x2 sweep (two solvers x two cell
# counts, short horizon) archived to a temp dir, then swept again against
# that archive as the baseline — exercising the matrix expansion, the
# per-run archive, and the summary gate end to end under the race
# detector. A third pass injects a regression into the baseline and
# requires the gate to fail.
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
smoke='-solvers dp,greedy -cells 1,2 -accesses zipf -budgets 8 -profiles ideal
       -policies on-demand,push-ts -objects 60 -rate 20 -clients 60 -warmup 5 -ticks 40'
# shellcheck disable=SC2086
go run -race ./cmd/experiment-runner $smoke -out "$smokedir/base" >/dev/null
# shellcheck disable=SC2086
go run -race ./cmd/experiment-runner $smoke -out "$smokedir/head" -baseline "$smokedir/base" >/dev/null
tampered=$(find "$smokedir/base" -name summary.json | head -1)
sed 's/"mean_score": /"mean_score": 9/' "$tampered" > "$tampered.tmp" && mv "$tampered.tmp" "$tampered"
# shellcheck disable=SC2086
if go run -race ./cmd/experiment-runner $smoke -out "$smokedir/head2" -baseline "$smokedir/base" >/dev/null 2>&1; then
    echo "experiment-runner summary gate passed on an injected regression" >&2
    exit 1
fi
echo "experiment-runner smoke: sweep + archive + gate (incl. injected failure) OK"

# Perf + golden regression gate: regenerate Figures 2-6 and byte-compare
# against results/golden, and re-run the hot-path benchmark set against
# the numbers archived in BENCH_4.json (scripts/bench.sh). Both checks
# live in the experiment runner's gate mode; tolerance stays at the
# historical 20%.
if [ "$PERFCHECK" != "0" ] && [ -f "$PERF_BASELINE" ]; then
    go run ./cmd/experiment-runner -mode gate -bench-baseline "$PERF_BASELINE"
fi

echo "all checks passed"
