#!/usr/bin/env bash
# Builds the repository benchmark and the ntadocd daemon from the sources of
# the checkout it is run from, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Build outputs, the Go build cache and
# the benchmark's scratch files all stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's user config and telemetry
# counters inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/ntadocd" ./cmd/ntadocd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/ntadocd" -workdir "$out" "$@"
