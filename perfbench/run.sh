#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload paper-all --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --regen
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f perfbench/go.mod ] || [ ! -f go.mod ]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
