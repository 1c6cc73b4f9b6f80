#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, e.g.
#
#   bash benchmark/run.sh --workload paper9 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go's build cache, temporary files, the
# binary) stays under .bench_build in the working directory. The
# benchmark module imports the repository through a relative replace
# directive, so the build fails, and the command exits non-zero, when the
# repository around it is missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off

(cd "$root/benchmark" && go build -o "$out/hmpi-benchmark" .)
exec "$out/hmpi-benchmark" "$@"
