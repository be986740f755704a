#!/usr/bin/env bash
# Builds the benchmark and gpowerd from the checkout it is started in, then
# runs one workload. Run from the repository root:
#
#   bash _perfbench/run.sh --workload predict-batch --seed 1 --seconds 10 --trace 0
#
# Every build output, the Go build cache and the trace files stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd _perfbench && go build -o "$out/perfbench" . && go build -o "$out/gpowerd" gpupower/cmd/gpowerd) >&2
exec "$out/perfbench" -gpowerd "$out/gpowerd" -out "$out" "$@"
