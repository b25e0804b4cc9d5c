#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash tesabench/run.sh --workload optimize-grid32 --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (binary, build cache, temporary files)
# stays under .bench_build/ at the root of the tree; nothing is fetched
# from the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/tesabench" && go build -o "$out/tesabench" .)
exec "$out/tesabench" "$@"
