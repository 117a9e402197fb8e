#!/usr/bin/env bash
# Builds the end-to-end daemon benchmark from source and runs it with the
# given flags. Run from the repository root:
#
#   bash bench/run.sh --workload tune --seed 1 --seconds 12 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the compiler's temporary files, the
# binary, Go's own config and telemetry directories, and the daemon's scratch
# data.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gomodcache" "$out/tmp"

export TMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/home/go"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOWORK=off

(cd "$root/bench" && go build -o "$out/aimai-bench" .)
exec "$out/aimai-bench" "$@"
