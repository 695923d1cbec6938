#!/usr/bin/env bash
# Traffic for CI's serve-smoke and replay-smoke. Per op: two passes over 40
# /predict shapes (misses, then hits) and one /batch of 18 — 16 shapes, the
# first two repeated, so a batch holds cache hits of its own; 294 decisions.
set -euo pipefail
base=${1:?usage: smoke-load.sh BASE_URL}
for op in gemm syrk syr2k; do
  for pass in 1 2; do
    for i in $(seq 1 40); do
      curl -fsS "$base/predict?op=$op&m=$((64 + 8 * i))&k=256&n=$((64 + 8 * i))" > /dev/null
    done
  done
  jq -n --arg op "$op" '{shapes: [range(16), 0, 1 | {op: $op, m: (512 + 8 * .), k: 256, n: (512 + 8 * .)}]}' |
    curl -fsS -X POST --data @- "$base/batch" > /dev/null
done
