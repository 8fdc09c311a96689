#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build bench/ from source inside
# the checkout, then run it with the driver's arguments. Everything the
# build writes — Go's build cache included — stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: not a full checkout (no go.mod or internal/ beside bench/)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=
export GOTOOLCHAIN=local GOPROXY=off GOENV=off CGO_ENABLED=0
go build -o "$build/lwfs-bench" ./bench
exec "$build/lwfs-bench" "$@"
