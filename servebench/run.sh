#!/bin/sh
# Builds the serving benchmark from the checkout it is run in and runs
# it with the given arguments, e.g.
#
#   sh servebench/run.sh --workload query --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# the binary, the durable state directories and the trace files all
# stay under .bench_build/ in that root.
set -e
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false"
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
