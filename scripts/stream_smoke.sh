#!/usr/bin/env sh
# Streaming smoke test: replays a preset corpus through the incremental
# windowed miner (pmihp-mine stream) with the equivalence gate on —
# every step's frequent sets must be byte-identical to a from-scratch
# mine of the same window — including a scripted crash-and-resume
# through the PMCK stream checkpoint. A second replay publishes each
# step's rules into a live pmihp-serve over /admin/swap and checks the
# daemon walked through one generation per step. Artifacts land in
# $OUT_DIR (default ./stream-smoke) so CI can upload them.
#
# Usage: scripts/stream_smoke.sh [out_dir]
set -eu
cd "$(dirname "$0")/.."

out="${1:-stream-smoke}"
mkdir -p "$out"

echo "== build"
go build -o "$out/pmihp-mine" ./cmd/pmihp-mine
go build -o "$out/pmihp-serve" ./cmd/pmihp-serve

echo "== replay with equivalence gate and crash-resume at step 4"
"$out/pmihp-mine" stream -corpus b -scale small -minsup-count 3 -maxk 3 \
    -window 3 -verify 2 \
    -checkpoint "$out/stream.ckpt" -crash-step 4 \
    -json "$out/stream-report.json" | tee "$out/stream.out"
grep -q 'verified equivalent to from-scratch' "$out/stream.out" ||
    { echo "replay did not report verification"; exit 1; }
grep -q '"allEquivalent": *true' "$out/stream-report.json" ||
    { echo "equivalence gate failed"; cat "$out/stream-report.json"; exit 1; }
grep -q '"resumedFromCheckpoint": *true' "$out/stream-report.json" ||
    { echo "crash step never resumed from checkpoint"; exit 1; }

echo "== replay with day decay, equivalence vs weighted from-scratch"
"$out/pmihp-mine" stream -corpus b -scale small -minsup-count 3 -maxk 3 \
    -window 4 -decay 0.8 -verify 2 \
    -json "$out/decay-report.json" | tee "$out/decay.out"
grep -q '"allEquivalent": *true' "$out/decay-report.json" ||
    { echo "decay equivalence gate failed"; cat "$out/decay-report.json"; exit 1; }

echo "== seed a rule export for the serve daemon"
"$out/pmihp-mine" mine -corpus b -scale small -minsup-count 3 -maxk 3 \
    -minconf 0.5 -rules 0 -top 0 -rules-out "$out/rules.json" >/dev/null
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

echo "== stream replay publishing each step into $base"
"$out/pmihp-mine" stream -corpus b -scale small -minsup-count 3 -maxk 3 \
    -window 3 -verify 0 -serve "$base" \
    -json "$out/publish-report.json" | tee "$out/publish.out"
steps=$(grep -c '"step":' "$out/publish-report.json")
[ "$steps" -gt 0 ] || { echo "publish replay ran no steps"; exit 1; }

# Initial load is generation 1; every step that mined rules swaps one
# more (quiet windows keep the previous generation live).
published=$(grep -o '"rules": *[0-9]*' "$out/publish-report.json" |
    grep -cv '"rules": *0$' || true)
[ "$published" -gt 0 ] || { echo "no step published any rules"; exit 1; }
want=$((published + 1))
curl -fsS "$base/healthz" >"$out/healthz.json"
grep -q "\"generation\": *$want" "$out/healthz.json" ||
    { echo "daemon generation is not $want after $steps published steps"
      cat "$out/healthz.json"; exit 1; }

echo "== ok: incremental mining equivalent, resumed, and published; artifacts in $out/"
