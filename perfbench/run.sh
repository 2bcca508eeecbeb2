#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one workload:
#
#   bash perfbench/run.sh --workload query_large|query_small|write_mix \
#       --seed N --seconds S --trace 0|1
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$build/ruidperf" .)
exec "$build/ruidperf" "$@"
