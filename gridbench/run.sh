#!/usr/bin/env bash
# Builds the grid benchmark from source and runs it with the given
# arguments. Run from the root of the repository:
#
#   bash gridbench/run.sh --workload control --seed 1 --seconds 10 --trace 0
#
# Every build product (compiler cache, binary, trace files) stays under
# .bench_build/ at the repository root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/gridbench" build -o "$out/gridbench" . 1>&2
exec "$out/gridbench" "$@"
