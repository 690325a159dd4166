#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash tmbench/run.sh --workload query-exact --seed 1 --seconds 10 --trace 0
# Run from the repository root. Every build and run artifact stays under
# .bench_build/ in the checkout (Go build cache included).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/tmbench/go.mod" ] || [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "run.sh: run from the repository root (needs go.mod, internal/ and tmbench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off GOENV=off

(cd "$root/tmbench" && go build -o "$build/tmbench" .)
exec "$build/tmbench" "$@"
