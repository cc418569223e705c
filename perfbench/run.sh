#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Everything the
# build and the run write stays under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise. Run it from
# the root of the checkout:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/perfbench"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export GOFLAGS=

go -C perfbench build -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" --work "$out/perfbench" "$@"
