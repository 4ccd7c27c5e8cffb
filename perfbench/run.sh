#!/usr/bin/env bash
# Builds labeld and the benchmark driver from the checkout in the current
# directory, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload cold_queries --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write (Go build cache, binaries, data
# directories, temporary files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
# With telemetry on, the first go command under a fresh config dir forks a
# detached upload process that outlives the script; "go telemetry off" is
# the one go command that starts none.
go telemetry off

go build -o "$out/labeld" ./cmd/labeld
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -labeld "$out/labeld" -work "$out" "$@"
