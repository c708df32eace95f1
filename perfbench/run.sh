#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.:
#
#   bash perfbench/run.sh --workload sim-population --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, span files) stays
# under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
