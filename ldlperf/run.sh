#!/usr/bin/env bash
# Builds ldlserver and the ldlperf harness from the sources of this
# checkout, then runs the harness with the given arguments. Run it from
# the repository root:
#
#	bash ldlperf/run.sh --workload read-sg --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/ldlserver" ./cmd/ldlserver
(cd ldlperf && go build -o "$out/bin/ldlperf" .)
exec "$out/bin/ldlperf" -server "$out/bin/ldlserver" -work "$out" "$@"
