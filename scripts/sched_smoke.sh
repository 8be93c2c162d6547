#!/usr/bin/env sh
# Multi-tenant scheduler smoke test: boots a worker pool, registers real
# pmihp-node processes into it with -pool, and drives it through the
# elastic scheduler's whole surface —
#
#   1. two concurrent tenant sessions sharing the pool, each verified
#      byte-identical to a single-process reference mine;
#   2. a session admitted on 2 logical nodes that scales up mid-run
#      (-grow 4) at the checkpoint barrier, again byte-identical;
#   3. the static-vs-elastic comparison on the skewed preset at 8 nodes
#      (pmihp-bench sched-compare), which must show the elastic
#      scheduler beating static partitioning on both the deterministic
#      imbalance ratio and the modeled makespan, with identical
#      itemsets.
#
# Artifacts land in $OUT_DIR (default ./sched-smoke) so CI can upload
# them.
#
# Usage: scripts/sched_smoke.sh [out_dir]
set -eu
cd "$(dirname "$0")/.."

out="${1:-sched-smoke}"
mkdir -p "$out"

echo "== build"
go build -o "$out/pmihp-mine" ./cmd/pmihp-mine
go build -o "$out/pmihp-node" ./cmd/pmihp-node
go build -o "$out/pmihp-bench" ./cmd/pmihp-bench

node_pids=""
cleanup() {
    for pid in $node_pids; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT INT TERM

# The pool must be listening before workers can register, and the mine
# process IS the pool, so: start it first on a fixed port with
# sched -wait, then point the workers at it.
pool_addr=127.0.0.1:19710

echo "== multi-tenant: 2 concurrent sessions on a 4-worker pool"
"$out/pmihp-mine" sched -listen "$pool_addr" -wait 4 \
    -sessions 2 -nodes 2 -corpus skewed -scale small -minsup-count 2 \
    -rules 0 -top 0 >"$out/tenants.out" 2>&1 &
mine_pid=$!
for i in 1 2 3 4; do
    "$out/pmihp-node" -pool "$pool_addr" >"$out/node$i.out" 2>&1 &
    node_pids="$node_pids $!"
done
wait "$mine_pid" || { echo "multi-tenant run failed"; cat "$out/tenants.out"; exit 1; }
grep -q 'all 2 sessions byte-identical' "$out/tenants.out" ||
    { echo "sessions were not verified identical"; cat "$out/tenants.out"; exit 1; }
grep -q 'session 2: admitted #2' "$out/tenants.out" ||
    { echo "admission was not FIFO"; cat "$out/tenants.out"; exit 1; }

echo "== elastic: one session growing 2 -> 4 nodes mid-run"
"$out/pmihp-mine" sched -listen "$pool_addr" -wait 4 \
    -sessions 1 -nodes 2 -grow 4 -corpus skewed -scale small -minsup-count 2 \
    -rules 0 -top 0 >"$out/grow.out" 2>&1 ||
    { echo "elastic grow run failed"; cat "$out/grow.out"; exit 1; }
grep -q 'byte-identical to the single-process reference' "$out/grow.out" ||
    { echo "grown session was not verified identical"; cat "$out/grow.out"; exit 1; }
grep -q '4 final nodes.*resizes 1' "$out/grow.out" ||
    { echo "session did not resize to 4 nodes"; cat "$out/grow.out"; exit 1; }

echo "== skewed preset: elastic scheduler vs static 8-node partitioning"
"$out/pmihp-bench" sched-compare -scale small -v \
    -report "$out/sched-compare.json" >"$out/sched-compare.out" 2>&1 ||
    { echo "sched-compare gate failed"; cat "$out/sched-compare.out"; exit 1; }
cat "$out/sched-compare.out"
grep -q '"identical": *true' "$out/sched-compare.json" ||
    { echo "comparison itemsets differ"; exit 1; }

echo "== ok: multi-tenant sessions identical, mid-run scale-up applied, elastic beats static on skew; artifacts in $out/"
