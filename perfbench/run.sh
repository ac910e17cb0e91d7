#!/usr/bin/env bash
# Builds the Thetis serving benchmark from the checkout it is run in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload scan-batch --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --repeat 10 --workload scan-batch --seconds 15
#
# Everything it builds or caches goes under .bench_build/ in the checkout.
# Build output goes to stderr; the benchmark's result is the last line of
# stdout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/thetisbench" .) >&2
exec "$out/thetisbench" "$@"
