#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in
# and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload big-sweep --seed 42 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, the
# benchmark's scratch store directories and the traced run's span
# files all stay under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its env file and telemetry counters in the user
# config directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
