#!/usr/bin/env bash
# Serving-performance benchmark runner: builds (if needed) and runs the
# kernel micro-suite plus the serving latency bench, collecting machine-
# readable results for the perf trajectory.
#
#   bench/run_benchmarks.sh [out_dir]
#
#   BUILD_DIR           cmake build tree       (default: build)
#   KERNELS_MIN_TIME    --benchmark_min_time   (default: 0.05; use 0.01 in CI)
#   MIXQ_SERVE_THREADS  QPS client threads     (default: 8)
#   MIXQ_PRUNED_NODES   pruned-scenario graph size (default: 100000)
#
# Outputs in out_dir (default: <BUILD_DIR>/benchout):
#   BENCH_serving.json  single-request latency + QPS (lowered fp32 and int8)
#                       + batched-vs-unbatched QPS of the Submit API
#                       + "pruned": receptive-field-pruned vs full-forward
#                         QPS on a large power-law graph
#   BENCH_kernels.json  Google-Benchmark JSON for the GEMM/SpMM/quant and
#                       frontier-expansion/induced-slicing kernels
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
OUT_DIR="${1:-$BUILD_DIR/benchout}"
KERNELS_MIN_TIME="${KERNELS_MIN_TIME:-0.05}"

if [[ ! -d "$BUILD_DIR" ]]; then
  cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_serving_latency
if ! cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_kernels_micro; then
  echo "kernels_micro unavailable (Google Benchmark not installed); skipping"
fi

mkdir -p "$OUT_DIR"

echo "=== serving_latency ==="
MIXQ_BENCH_JSON="$OUT_DIR/BENCH_serving.json" "$BUILD_DIR/bench/serving_latency"

if [[ -x "$BUILD_DIR/bench/kernels_micro" ]]; then
  echo "=== kernels_micro ==="
  "$BUILD_DIR/bench/kernels_micro" \
    --benchmark_min_time="$KERNELS_MIN_TIME" \
    --benchmark_format=console \
    --benchmark_out_format=json \
    --benchmark_out="$OUT_DIR/BENCH_kernels.json"
fi

echo
echo "results in $OUT_DIR:"
ls -l "$OUT_DIR"
