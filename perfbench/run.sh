#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload price-local --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, and the unix sockets of
# the price-unix workload (a relative TMPDIR keeps socket paths short).
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$out/perfbench" .)
TMPDIR=.bench_build/tmp exec "$out/perfbench" "$@"
