#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from the repository root:
#
#	bash hostbench/run.sh --workload regen_cold --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache, temp files) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go -C "$root/hostbench" build -o "$out/hostbench" .
exec "$out/hostbench" "$@"
