#!/usr/bin/env bash
# Builds the benchmark and cmd/salam-sim from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#	bash bench/run.sh --workload engine_spm --seed 1 --seconds 12 --trace 0
#
# Everything written — binaries, the Go build cache, trace files, store
# directories — stays under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local

go build -C bench -o "$out/salam-perf" .
go build -o "$out/salam-sim" ./cmd/salam-sim
exec "$out/salam-perf" "$@"
