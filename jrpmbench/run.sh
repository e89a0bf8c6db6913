#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash jrpmbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary build files and the binary all stay under
# .bench_build in the checkout; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$out/jrpmbench" .)
exec "$out/jrpmbench" "$@"
