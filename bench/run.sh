#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Everything the build and the runs write stays under
# .bench_build in the checkout: the Go build cache, the binary, the
# children's work directories and the results files. Arguments are
# passed through, e.g.
#
#   bash bench/run.sh --workload tiny-warm --seed 3 --seconds 15 --trace 0
#   bash bench/run.sh -compare before/ after/
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C bench -o "$build/memobench" .
exec "$build/memobench" "$@"
