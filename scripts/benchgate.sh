#!/usr/bin/env bash
# benchgate.sh — gate the hot-path micro-benchmarks against a base commit
# measured on the same machine in the same run, so the verdict compares
# commits rather than hosts.
#
# Usage:
#   ./scripts/benchgate.sh <base-ref>
#
# It checks <base-ref> out in a temporary git worktree, builds the root
# package's test binary there and in the working tree (go test -c), then
# runs the gated benchmarks from the two binaries alternately: 3 rounds at
# -benchtime 2s, the base first in odd rounds. Each side's output goes
# through scripts/benchjson, which averages the rounds, and
# `benchjson -diff -gate` exits non-zero when a gated benchmark's ns/op is
# more than 20% above the base's.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
root=$(pwd)
base=$(git rev-parse --verify "$1^{commit}")

gate=OptimizerPlan,ExecutorRun,CandidateGen,ForestTrain,ForestTrainPairs,EmbedPlan,TuneQuery,TuneWorkloadSerial,TuneWorkloadGated,TelemetrySnapshot
filter="^Benchmark(${gate//,/|})\$"

work=$(mktemp -d)
cleanup() {
  git worktree remove --force "$work/base" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

git worktree add --detach "$work/base" "$base" >/dev/null
echo "benchgate: building base $base and head" >&2
(cd "$work/base" && go test -c -o "$work/base.test" .)
go test -c -o "$work/head.test" .

for round in 1 2 3; do
  if ((round % 2 == 1)); then order="base head"; else order="head base"; fi
  for side in $order; do
    dir=$root
    if [[ $side == base ]]; then dir=$work/base; fi
    echo "benchgate: round $round, $side" >&2
    (cd "$dir" && "$work/$side.test" -test.run '^$' -test.bench "$filter" \
      -test.benchmem -test.benchtime 2s -test.timeout 30m) | tee -a "$work/$side.txt" >&2
  done
done

go run ./scripts/benchjson -out "$work/base.json" <"$work/base.txt"
go run ./scripts/benchjson -out "$work/head.json" <"$work/head.txt"
go run ./scripts/benchjson -diff -gate "$gate" "$work/base.json" "$work/head.json"
