#!/usr/bin/env sh
# Serving smoke test: builds the binaries, mines a small rule set and
# exports it with pmihp-mine mine -rules-out, starts pmihp-serve on a
# loopback ephemeral port, drives a short Zipf load burst through both
# cache phases with pmihp-bench -serve-load (which exits nonzero on any
# request error), exercises a hot swap by POSTing the export to
# /admin/swap, and scrapes /metrics for the serving gauge families.
# Artifacts land in $OUT_DIR (default ./serve-smoke) so CI can upload
# them.
#
# Usage: scripts/serve_smoke.sh [out_dir]
set -eu
cd "$(dirname "$0")/.."

out="${1:-serve-smoke}"
mkdir -p "$out"

echo "== build"
go build -o "$out/pmihp-mine" ./cmd/pmihp-mine
go build -o "$out/pmihp-serve" ./cmd/pmihp-serve
go build -o "$out/pmihp-bench" ./cmd/pmihp-bench

echo "== mine and export rules"
"$out/pmihp-mine" mine -corpus b -scale small -minsup-count 3 -maxk 3 \
    -minconf 0.5 -rules 0 -top 0 -rules-out "$out/rules.json" | tee "$out/mine.out"
[ -s "$out/rules.json" ] || { echo "rules export is empty"; exit 1; }

cleanup() {
    [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

echo "== start pmihp-serve"
"$out/pmihp-serve" -rules "$out/rules.json" -addr 127.0.0.1:0 \
    -replicas 2 -deadline 2s >"$out/serve.out" 2>&1 &
serve_pid=$!
for i in $(seq 1 50); do
    grep -q 'serving on http://' "$out/serve.out" 2>/dev/null && break
    sleep 0.1
done
base=$(sed -n 's|.*serving on \(http://[0-9.:]*\).*|\1|p' "$out/serve.out" | head -1)
[ -n "$base" ] || { echo "daemon never announced"; cat "$out/serve.out"; exit 1; }

echo "== health and a hand query at $base"
curl -fsS "$base/healthz" >"$out/healthz.json"
grep -q '"status": *"ok"' "$out/healthz.json" ||
    { echo "healthz not ok"; cat "$out/healthz.json"; exit 1; }
head_word=$(curl -fsS "$base/admin/heads?limit=1" |
    sed -n 's/.*"word": *"\([^"]*\)".*/\1/p' | head -1)
[ -n "$head_word" ] || { echo "no heads served"; exit 1; }
curl -fsS "$base/expand?q=$head_word&limit=3" >"$out/expand.json"
grep -q '"generation"' "$out/expand.json" ||
    { echo "expand envelope malformed"; cat "$out/expand.json"; exit 1; }

echo "== load burst (cold + warm, zero errors required)"
"$out/pmihp-bench" -serve-load "$base" -serve-clients 4 -serve-requests 500 \
    -serve-report "$out/load-report.json" | tee "$out/load.out"
grep -q '"errors": *0' "$out/load-report.json" ||
    { echo "load report counted errors"; cat "$out/load-report.json"; exit 1; }

echo "== hot swap under a fresh generation"
curl -fsS --data-binary @"$out/rules.json" "$base/admin/swap" >"$out/swap.json"
grep -q '"generation": *2' "$out/swap.json" ||
    { echo "swap did not advance the generation"; cat "$out/swap.json"; exit 1; }
curl -fsS "$base/expand?q=$head_word&limit=3" | grep -q '"generation": *2' ||
    { echo "queries still on the old generation"; exit 1; }

echo "== scrape serving metrics"
curl -fsS "$base/metrics" >"$out/metrics.prom"
for metric in pmihp_serve_queries_total pmihp_serve_generation_id \
    pmihp_serve_index_bytes_held pmihp_serve_cache_hits_total \
    pmihp_serve_latency_p99_seconds pmihp_serve_qps; do
    grep -q "^$metric" "$out/metrics.prom" ||
        { echo "scrape missing $metric"; cat "$out/metrics.prom"; exit 1; }
done
grep -q '^pmihp_serve_generation_id 2$' "$out/metrics.prom" ||
    { echo "metrics show a stale generation"; exit 1; }

echo "== ok: served, swapped, and load-tested; artifacts in $out/"
