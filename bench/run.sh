#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's source and runs it
# from the checkout root. Every argument is passed through, e.g.
#
#   bash bench/run.sh --workload dense-local --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --seed 1                 # all four workloads
#   bash bench/run.sh compare base/ change/    # judge two sets of results
#
# The build cache, temporary files and the binary stay under .bench_build/
# in the checkout. Build output goes to stderr, so the last line on stdout
# is the benchmark's JSON result. Without the repository's source next to
# bench/, the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/gotmp"
export TMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

(cd bench && go build -o "$build/bin/udwnbench" .) >&2
exec "$build/bin/udwnbench" "$@"
