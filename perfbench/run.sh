#!/usr/bin/env bash
# Builds the host-speed benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload offload-mcf --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every file the Go toolchain and the
# benchmark write stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
