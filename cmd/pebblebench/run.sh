#!/bin/sh
# Builds and runs pebblebench from the repository root, keeping the Go
# build cache, temporary files and binaries under .bench_build/ so that a
# run writes nothing outside the checkout.
#
#   sh cmd/pebblebench/run.sh --workload universal-cold --seed 1 --seconds 20 --trace 0
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
go build -o "$out/pebblebench" ./cmd/pebblebench
exec "$out/pebblebench" "$@"
