#!/usr/bin/env bash
# Builds the DStress benchmark from the source in this checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload en-sim --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the checkout. Every file the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build/ at
# the root; the first run builds the standard library into that cache.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
