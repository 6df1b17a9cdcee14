#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to bench
# unchanged (see `bench -h` and bench/README.md). Run from the repository
# root. Everything it writes, the Go build cache included, stays in the
# checkout: binaries and cache under .bench_build/, span files under
# bench/out/ (both git-ignored).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/sipproxyd ]; then
	echo "bench/run.sh: run from the root of a gosip checkout (go.mod and cmd/sipproxyd are not here)" >&2
	exit 1
fi

export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p .bench_build/bin
go build -o .bench_build/bin/bench ./bench
exec .bench_build/bin/bench "$@"
