#!/usr/bin/env bash
# Builds the serving-system benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload attest-volatile --seed 1 --seconds 20 --trace 0
#
# Build outputs (the Go build cache and the binary) and the benchmark's
# temporary state dirs stay under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd benchmark && go build -o "$out/komodo-benchmark" .) >&2
exec "$out/komodo-benchmark" "$@"
