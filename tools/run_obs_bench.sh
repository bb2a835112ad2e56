#!/usr/bin/env bash
# Record the observability-plane overhead into BENCH_obs_overhead.json.
#
# Runs the BM_DispatchTracing{Off,On,Binary,Sampled} family plus
# BM_BinaryWriterDrain from bench/micro_hotpath (the identical event-dispatch
# churn with no sink, with an installed TraceSink, with the binary flight
# recorder draining that sink, and with sampled journey flows; plus the
# writer's pure encode throughput and bytes/event) and merges the report
# via tools/bench_to_json. The items/s ratio Off/On is the per-event cost
# of tracing; On/Binary adds the cost of recording. Benchmarks run as
# interleaved repetitions and the medians are what get recorded.
# micro_hotpath's built-in allocation assertions (which include the traced
# kernel probe) run first and fail the recording outright on a regression.
#
# These are micro numbers. The end-to-end cost of recording is perfbench's
# obs.overhead_s on the hacc_recorded workload (perfbench/README.md).
#
# The label's entry names the host (CPU model, CPU count, compiler) the
# numbers were taken on.
#
# Usage: tools/run_obs_bench.sh <build-dir> [label]     (label default: obs)
set -euo pipefail

BUILD=${1:?usage: run_obs_bench.sh <build-dir> [label]}
LABEL=${2:-obs}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

CPU=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
[ -n "$CPU" ] || CPU=$(sysctl -n machdep.cpu.brand_string 2>/dev/null || echo unknown)
COMPILER=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD/CMakeCache.txt" 2>/dev/null)
COMPILER_VERSION=$("${COMPILER:-c++}" -dumpfullversion 2>/dev/null || echo unknown)
HOST="$CPU, $(getconf _NPROCESSORS_ONLN) CPUs, $(basename "${COMPILER:-c++}") $COMPILER_VERSION"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== micro_hotpath (BM_DispatchTracing*)"
"$BUILD/bench/micro_hotpath" \
  --benchmark_filter='BM_DispatchTracing|BM_BinaryWriterDrain' \
  --benchmark_repetitions=9 --benchmark_enable_random_interleaving=true \
  --benchmark_min_time=0.25 \
  --benchmark_out="$TMP/obs.json" --benchmark_out_format=json

"$BUILD/tools/bench_to_json" \
  --out BENCH_obs_overhead.json --label "$LABEL" \
  --schema iobts-bench-obs-v2 --host "$HOST" \
  --bench micro_hotpath="$TMP/obs.json"

echo "recorded label '$LABEL' into BENCH_obs_overhead.json"
