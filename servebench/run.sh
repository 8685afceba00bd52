#!/usr/bin/env bash
# Builds the serving benchmark and cachemindd from this checkout into
# .bench_build/servebench, then runs the benchmark with the given
# arguments, e.g.
#
#   bash servebench/run.sh --workload hot-sessions --seed 1 --seconds 10 --trace 0
#
# Every build product and Go cache stays inside the checkout. Build
# output goes to stderr; the benchmark's result is the last line of
# stdout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/servebench"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME moves the go command's own config and telemetry
# files into the checkout as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/servebench" && go build -o "$out/servebench" .) >&2
(cd "$root" && go build -o "$out/cachemindd" ./cmd/cachemindd) >&2

cd "$root"
exec "$out/servebench" -daemon "$out/cachemindd" -out "$out" "$@"
