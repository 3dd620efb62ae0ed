#!/usr/bin/env bash
# Builds servebench from this checkout and runs it with the given flags,
# e.g. bash servebench/run.sh --workload cache-typed --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build cache, binary and trace output stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go -C "$root/servebench" build -o "$out/bin/servebench" . >&2
exec "$out/bin/servebench" "$@"
