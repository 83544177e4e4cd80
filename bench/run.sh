#!/usr/bin/env bash
# Builds the serve-path benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload read_mix --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every scratch file the benchmark
# writes stay under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/servebench" .)
exec "$out/servebench" --workdir "$out" "$@"
