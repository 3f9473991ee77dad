#!/usr/bin/env bash
# Benchmark snapshot: runs `go test -bench . -benchmem` over the given
# packages (default: the simulator hot path and the grid engine's micro
# benches in internal/metrics) and renders the results as
# BENCH_<YYYY-MM-DD>.json in the run-manifest shape of internal/metrics —
# tool/version/started plus one record per benchmark — so benchmark history
# can be diffed and machine-read like `-manifest` output.
#
# The default package set includes the indexed-vs-brute hot-path pair
# (BenchmarkStepSparse4096Indexed / BenchmarkStepSparse4096Brute in
# internal/sim): their ratio is the speedup of the grid-indexed slot loop
# over the O(n·|tx|) scan on a sparse n=4096 deployment, and should stay
# well above 3x. BenchmarkStepDense8192 times the interference field on a
# dense deployment (rotating 128-transmitter cohort at n=8192), where every
# slot sums every receiver; BenchmarkStepStrip3200 times it on the
# sparse-strip shape (n=3200 strip, about 2.5 transmitters per slot), where
# the engine sums only the receivers near a transmitter. It also includes
# the trace-format pair (BenchmarkTraceWriteJSONL / BenchmarkTraceWriteBinary
# in internal/trace, plus the Read pair): bytes/event is the on-disk cost of
# each encoding on a dense trace and the binary format should stay ~3x
# smaller and several times faster in both directions. The trace query trio
# (BenchmarkTraceQueryFullMatch / SingleNode / TickWindow) pins the index's
# selective-read claim: the prune_x metric is (scanned+skipped)/scanned
# bytes and must stay >= 10 for the selective queries.
#
# Custom go-test metrics (b.ReportMetric: bytes/event, events/s, prune_x,
# bytes_scanned, ...) are captured per benchmark under "metrics".
#
# Usage: scripts/bench.sh [out.json] [-- <go test packages...>]
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_$(date -u +%F).json"
if [[ $# -gt 0 && $1 != -- ]]; then
  out=$1
  shift
fi
if [[ $# -gt 0 && $1 == -- ]]; then
  shift
fi
pkgs=("$@")
if [[ ${#pkgs[@]} -eq 0 ]]; then
  pkgs=(./internal/sim ./internal/metrics ./internal/trace)
fi

version=$(git describe --always --dirty 2>/dev/null || echo unknown)
started=$(date -u +%FT%TZ)
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench . -benchmem -timeout 30m "${pkgs[@]}" | tee "$raw"

awk -v version="$version" -v started="$started" -v pkgs="${pkgs[*]}" '
BEGIN {
  printf "{\n  \"tool\": \"bench\",\n  \"version\": \"%s\",\n  \"started\": \"%s\",\n", version, started
  printf "  \"config\": {\n    \"packages\": \"%s\"\n  },\n  \"benchmarks\": [", pkgs
  n = 0
}
/^Benchmark/ && /ns\/op/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  iters = $2; ns = $3
  bop = "0"; aop = "0"
  extra = ""
  # Fields after "ns/op" come in (value, unit) pairs: the standard B/op and
  # allocs/op plus any custom b.ReportMetric units (bytes/event, prune_x, ...).
  for (i = 5; i < NF; i += 2) {
    val = $i; unit = $(i + 1)
    if (unit == "B/op") { bop = val; continue }
    if (unit == "allocs/op") { aop = val; continue }
    if (extra != "") extra = extra ", "
    extra = extra sprintf("\"%s\": %s", unit, val)
  }
  if (n++) printf ","
  printf "\n    {\n      \"name\": \"%s\",\n      \"iters\": %s,\n      \"ns_per_op\": %s,\n      \"b_per_op\": %s,\n      \"allocs_per_op\": %s", name, iters, ns, bop, aop
  if (extra != "") printf ",\n      \"metrics\": {%s}", extra
  printf "\n    }"
}
END { printf "\n  ]\n}\n" }
' "$raw" > "$out"

echo "wrote $out"
