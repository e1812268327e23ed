#!/usr/bin/env bash
# Builds the benchmark and the drivers it execs (hpca03, stworker, stserve)
# from this checkout into .bench_build, then runs it with the given flags.
# Run from the repository root:
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/bin"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/" selthrottle/cmd/hpca03 selthrottle/cmd/stworker selthrottle/cmd/stserve .) >&2
exec "$out/perfbench" -root "$root" -bin "$out" "$@"
