#!/usr/bin/env sh
# Verification + benchmark gate. Runs the static checks, the full test
# suite under the race detector (which exercises the sharded counting
# kernels via the IntraNodeWorkers>1 equivalence tests), then the E1-E9
# benchmark harness, failing if any workload's wall-clock or held memory
# (bytes_held) regresses more than 20% against the committed baseline or
# any simulated time drifts. A baseline written before the current report
# schema is an error: pmihp-bench names its schema version and exits 1 —
# regenerate BENCH_baseline.json with pmihp-bench -benchjson. Workloads added
# since the baseline was written (e.g. E9Dense) also only get a notice:
# they run ungated until the baseline is regenerated, so adding a
# benchmark never fails the gate by itself.
#
# Usage: scripts/bench.sh [baseline.json]
set -eu
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_baseline.json}"
rev="$(git rev-parse --short HEAD 2>/dev/null || echo dev)"

echo "== go vet"
go vet ./...
echo "== go build"
go build ./...
echo "== go test -race"
go test -race ./...
echo "== benchmark harness (rev $rev, baseline $baseline)"
if [ -f "$baseline" ]; then
    go run ./cmd/pmihp-bench -benchjson "BENCH_${rev}.json" -rev "$rev" -scale small -baseline "$baseline" -v
else
    echo "no baseline at $baseline; writing fresh report only"
    go run ./cmd/pmihp-bench -benchjson "BENCH_${rev}.json" -rev "$rev" -scale small -v
fi
