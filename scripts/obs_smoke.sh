#!/usr/bin/env sh
# Observability smoke test: builds the binaries, starts a loopback
# cluster with one worker exporting -metrics-addr and -trace-json,
# mines corpus B over it, scrapes the worker's Prometheus endpoint
# while the session's recorder is still live, and validates the scrape
# and both JSON traces (via pmihp-trace, which schema-checks every line):
# the worker's must replay passes, the coordinator's must hold exactly
# one cluster:session span. Artifacts land in $OUT_DIR (default
# ./obs-smoke) so CI can upload them.
#
# Usage: scripts/obs_smoke.sh [out_dir]
set -eu
cd "$(dirname "$0")/.."

out="${1:-obs-smoke}"
mkdir -p "$out"

echo "== build"
go build -o "$out/pmihp-mine" ./cmd/pmihp-mine
go build -o "$out/pmihp-node" ./cmd/pmihp-node
go build -o "$out/pmihp-trace" ./cmd/pmihp-trace

cleanup() {
    [ -n "${n0_pid:-}" ] && kill "$n0_pid" 2>/dev/null || true
    [ -n "${n1_pid:-}" ] && kill "$n1_pid" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

echo "== start workers"
"$out/pmihp-node" -listen 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    -trace-json "$out/node0-trace.jsonl" >"$out/node0.out" 2>&1 &
n0_pid=$!
"$out/pmihp-node" -listen 127.0.0.1:0 >"$out/node1.out" 2>&1 &
n1_pid=$!

# Wait for both announcements (the daemons bind ephemeral ports).
for i in $(seq 1 50); do
    grep -q 'listening on' "$out/node0.out" 2>/dev/null &&
        grep -q 'listening on' "$out/node1.out" 2>/dev/null && break
    sleep 0.1
done
a0=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$out/node0.out" | head -1)
a1=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$out/node1.out" | head -1)
m0=$(sed -n 's|.*metrics on http://\([0-9.:]*\)/metrics.*|\1|p' "$out/node0.out" | head -1)
[ -n "$a0" ] && [ -n "$a1" ] && [ -n "$m0" ] || {
    echo "workers failed to announce"; cat "$out/node0.out" "$out/node1.out"; exit 1; }

echo "== mine on cluster $a0,$a1 (worker metrics at $m0)"
"$out/pmihp-mine" cluster -addrs "$a0,$a1" -corpus b -scale small \
    -minsup-count 2 -maxk 3 -rules 0 -top 3 \
    -trace-json "$out/coord-trace.jsonl" | tee "$out/mine.out"

echo "== scrape worker metrics"
scrape_ok=0
for i in $(seq 1 50); do
    if curl -fsS "http://$m0/metrics" >"$out/metrics.prom" 2>/dev/null; then
        scrape_ok=1
        break
    fi
    sleep 0.1
done
[ "$scrape_ok" = 1 ] || { echo "metrics endpoint unreachable"; exit 1; }

echo "== validate Prometheus text"
for metric in pmihp_passes_total pmihp_candidates_total pmihp_pass_current \
    pmihp_span_seconds_total pmihp_wire_bytes_total; do
    grep -q "^$metric" "$out/metrics.prom" ||
        { echo "scrape missing $metric"; cat "$out/metrics.prom"; exit 1; }
done
curl -fsS "http://$m0/snapshot" >"$out/snapshot.json"
grep -q '"passes"' "$out/snapshot.json" ||
    { echo "/snapshot missing pass totals"; cat "$out/snapshot.json"; exit 1; }

echo "== validate traces against the event schema"
"$out/pmihp-trace" "$out/node0-trace.jsonl"
"$out/pmihp-trace" -json "$out/node0-trace.jsonl" >"$out/node0-summary.json"
passes=$("$out/pmihp-trace" "$out/node0-trace.jsonl" | sed -n 's/.*events, \([0-9]*\) passes.*/\1/p')
[ "${passes:-0}" -gt 0 ] || { echo "worker trace recorded no passes"; exit 1; }
# The coordinator records one cluster:session span per MineCluster call.
"$out/pmihp-trace" "$out/coord-trace.jsonl"
sessions=$(grep -c '"name":"cluster:session"' "$out/coord-trace.jsonl" || true)
[ "$sessions" = 1 ] || {
    echo "coordinator trace holds ${sessions:-0} cluster:session spans, want 1"; cat "$out/coord-trace.jsonl"; exit 1; }

echo "== ok: worker trace replayed $passes passes, coordinator trace one session span, artifacts in $out/"
