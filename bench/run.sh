#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload steady-uniform --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache and settings, binary, temporary
# directories) stays under .bench_build/ at the root of the checkout.
# The build needs the repository's Go module one directory up, so
# outside a checkout it fails.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/dexbench" .)
exec "$out/dexbench" "$@"
