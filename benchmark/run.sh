#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload testbed-windserve --seed 42 --seconds 20 --trace 0
#   bash benchmark/run.sh -out set.json            # every workload
#   bash benchmark/run.sh compare a.json b.json
#
# Everything the build and the runs leave behind (Go build cache, the
# harness binary, profiles) goes under .bench_build/ in the repository
# root, so nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$out/windserve-bench" .)
cd "$root"
exec "$out/windserve-bench" "$@"
