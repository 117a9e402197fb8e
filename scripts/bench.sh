#!/usr/bin/env bash
# bench.sh — run the probe/tune/execute micro-benchmarks with -benchmem and
# write a machine-readable snapshot (BENCH_probe.json by default).
#
# Usage:
#   ./scripts/bench.sh [out.json]
#
# Environment:
#   BENCH_TIME     passed to -benchtime (e.g. "1x" for the CI smoke run,
#                  "2s" for a steadier laptop run). Default: go's 1s.
#   BENCH_COUNT    passed to -count (default 1).
#   BENCH_FILTER   overrides the benchmark regexp.
#
# Compare two snapshots with:
#   go run ./scripts/benchjson -diff BENCH_probe_before.json BENCH_probe.json
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_probe.json}"
filter="${BENCH_FILTER:-^(BenchmarkOptimizerPlan|BenchmarkExecutorRun|BenchmarkWhatIfCachedPlan|BenchmarkPairFeaturization|BenchmarkClassifierInference|BenchmarkCandidateGen|BenchmarkTuneQuery|BenchmarkTuneWorkloadSerial|BenchmarkTuneWorkloadGated|BenchmarkTuneWorkloadCompressed|BenchmarkTreeFit|BenchmarkForestTrain|BenchmarkForestTrainPairs|BenchmarkLearnCycle|BenchmarkTelemetrySnapshot|BenchmarkEmbedPlan|BenchmarkWorkloadEmbed)$}"

args=(test -run '^$' -bench "$filter" -benchmem -count "${BENCH_COUNT:-1}")
if [[ -n "${BENCH_TIME:-}" ]]; then
  args+=(-benchtime "$BENCH_TIME")
fi
args+=(.)

echo "bench: go ${args[*]}" >&2
go "${args[@]}" | tee /dev/stderr | go run ./scripts/benchjson -out "$out"
echo "bench: wrote $out" >&2
