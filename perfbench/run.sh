#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-seq --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary and scratch files.
set -euo pipefail
# Fall back to the official Go distribution's default install location
# when go is not on PATH.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
