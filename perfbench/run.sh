#!/usr/bin/env bash
# Builds the programs under test (circled, circlebench) and the benchmark
# itself (perfbench, ncpprobe) from source, then runs perfbench with the
# given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it writes (binaries, the Go
# build cache, per-run scratch files) lands under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
mkdir -p "$out/bin"

# go build only relinks when a binary is stale, so repeat runs are cheap.
go build -o "$out/bin/" ./cmd/circled ./cmd/circlebench >&2
(cd perfbench && go build -o "$out/bin/" . ./ncpprobe) >&2

exec "$out/bin/perfbench" "$@"
