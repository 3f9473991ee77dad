#!/usr/bin/env bash
# Tier-1 gate: build, vet, a gofmt check, full test suite, then the same
# suite under the race detector (the parallel experiment engine makes -race
# meaningful — see internal/experiment/grid.go and TestParallelRace), plus
# short live fuzzing of the decoders, the spatial index, the field engine
# and the SINR decode floor, a statement coverage gate over the packages
# whose tests are load-bearing, and a line ledger gate that keeps each
# package's non-test Go lines at or below its committed count.
#
# Every go test carries an explicit -timeout: a stuck grid cell or a hung
# cancellation test must fail the gate with a goroutine dump, not wedge CI
# at the default 10-minute-per-package limit times the package count.
#
# Usage: scripts/ci.sh [-update-coverage]
#
#   -update-coverage  remeasure the gated packages and rewrite
#                     scripts/coverage_baseline.txt (floor = measured - 1.0,
#                     absorbing scheduling-dependent branches) instead of
#                     failing on a drop. Commit the result with the tests
#                     that moved it.
#
# The line ledger gate has no update flag: after an intentional growth,
# rewrite its baseline with `scripts/loc.sh > scripts/loc_baseline.txt` and
# commit it with the code that moved it.
set -euo pipefail
cd "$(dirname "$0")/.."

update_coverage=0
for arg in "$@"; do
  case "$arg" in
    -update-coverage) update_coverage=1 ;;
    *) echo "usage: scripts/ci.sh [-update-coverage]" >&2; exit 2 ;;
  esac
done

go build ./...
go vet ./...

# Format gate: every tracked Go file must be gofmt-clean.
unformatted=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$unformatted" ]; then
  echo "gofmt gate: run gofmt -w on:" >&2
  echo "$unformatted" >&2
  exit 1
fi
echo "gofmt gate: ok"

# Line ledger gate: every package's non-test Go lines (scripts/loc.sh) must
# stay at or below its count in scripts/loc_baseline.txt, and a package
# missing from the file fails too. Lines a change deletes stay deleted
# unless a later change raises the baseline in its own diff. The "#"
# header lines, which loc.sh prints so that its output is the whole
# baseline file, are skipped on both sides.
loc_baseline=scripts/loc_baseline.txt
loc_fix="scripts/loc.sh > $loc_baseline"
if [ ! -f "$loc_baseline" ]; then
  echo "loc gate: $loc_baseline missing; run $loc_fix" >&2
  exit 1
fi
scripts/loc.sh | grep -v ' total$' | awk -v base="$loc_baseline" '
  BEGIN {
    while ((getline line < base) > 0) {
      if (line ~ /^#/) continue
      split(line, f, " ")
      if (f[2] != "") ceiling[f[2]] = f[1]
    }
  }
  /^#/ { next }
  !($2 in ceiling) {
    printf "loc gate: %s (%d lines) is missing from %s\n", $2, $1, base > "/dev/stderr"
    bad = 1
    next
  }
  $1 + 0 > ceiling[$2] + 0 {
    printf "loc gate: %s has %d lines, above its committed %d\n", $2, $1, ceiling[$2] > "/dev/stderr"
    bad = 1
  }
  END { exit bad }
' || { echo "loc gate: run $loc_fix to accept the new counts" >&2; exit 1; }
echo "loc gate: ok"

go vet ./internal/metrics
go test -timeout 10m ./...
# The end-to-end benchmark is its own module (bench/go.mod), so ./... skips
# its tests; run them (about 3 s) so a library change that breaks the
# benchmark's tiny-size output checks fails the gate.
(cd bench && go test -timeout 5m .)
# Benchmark smoke: one iteration of every Benchmark* function, so the
# microbenchmarks that explain the performance claims in DESIGN.md and
# ROADMAP.md keep compiling and running (about 5 s on 2 vCPUs with a warm
# build cache, mostly linking the test binaries).
go test -run '^$' -bench . -benchtime 1x -timeout 5m ./...
go test -race -timeout 20m ./...
# The fault engine feeds the sim tick loop from grid workers; exercise that
# seam under the race detector explicitly even when the suites above shard.
go test -race -timeout 5m ./internal/faults
# The metrics registry is written concurrently by every grid worker and its
# snapshot determinism contract is load-bearing for manifests; race it.
go test -race -timeout 5m ./internal/metrics
# Fast determinism smoke of the observability seams (progress stream,
# manifest rendering, cross-worker metric merges) even in short mode.
go test -short -timeout 5m -run 'Progress|Manifest|Metrics' ./internal/experiment ./internal/metrics
# The spatial-index hot path must be byte-identical to the brute-force scan
# under every topology/model/fault mix (fault-injected runs use the index
# too), including across goroutines, and after every slot each listener's
# frame must match the one-frame contract on both drivers (at most one
# decodable transmitter per listener, and the frame from it unless the
# injector dropped it). That every-pair Decodes oracle is also what catches
# a SINR decode floor that rejects a decodable pair or narrows a walk too
# far: the heavy-slot SINR scenarios must see the floor reject candidates,
# narrow walks below their decode cutoff and hand open delivery flags to
# the delivery-only walk. Run the differential property tests under the
# race detector explicitly so a shard of the suites above can never
# silently skip them.
go test -race -timeout 10m -run 'TestGridScanEquivalence|TestGridParallelRunsAgree' ./internal/sim
# The interference field carries the same exactness bar: raced short-mode
# runs of the differential suite, which checks the engine's demand contract
# against its canonical-sum oracle (demanded receivers bit-identical, every
# other alive receiver certified idle and outside every decode cutoff; the
# full scenario×hold-period matrix runs un-raced in the whole-suite pass
# above), the certified-idle and decode-floor reach boundary pins, and the
# delivery-radius oracle
# (the indexed reception walk's mass and ACK delivery flags, and the scan
# driver's neighbourhood walk, each against a brute recount at both radii,
# with the ACK radius above, at and below the measurement radius, under
# churn, mobility, power scales, two channels, dropped frames and heavy
# slots whose narrowed walks leave delivery to the delivery-only walk).
go test -race -short -timeout 10m -run 'TestIncrementalFieldEquivalence|TestFieldCertifiedIdleBoundary|TestFloorReachBoundary|TestDeliveryRadiusOracle' ./internal/sim
# The checkpoint store is written by every grid worker of a resumable sweep;
# race the crash/resume differential harness explicitly (it resumes from the
# baseline's journal cut after k commits, the state a SIGKILL leaves; short
# mode runs one cut point per experiment, still all 16 experiments × both
# worker counts), the failed-cell metrics contract (a failed cell's counts
# stay out of the run totals, with or without a store), the one-run-per-cell
# contract (a panicking cell's closure runs once, on the worker that took
# it, and is FAILED, as is one that panics sim.Cancelled while the run
# context is live), and the hard-cancel contract of every runner (every
# simulator a runner builds comes from Options.newSim, which installs the
# grid's cancel hook, so a cancelled cell stops at its next tick).
go test -race -short -timeout 10m -run 'TestResumeByteIdentical|TestCheckpointParallelWriters|TestFailedCellMetricsIndependentOfStore|TestGridCellRunsOnce|TestEveryRunnerHonoursHardCancel' ./internal/experiment
# The trace layer's locked observer serializes concurrent grid workers into
# one writer; race the whole package (includes the query/scan differential
# suite TestQueryScanEquivalence) plus the suite-level differential tests
# (all experiments, Workers 1 and 8): dual-format equivalence and indexed
# query vs full-scan-filter equivalence.
go test -race -timeout 10m ./internal/trace
go test -race -timeout 10m -run 'TestTraceDualFormatAllExperiments|TestQueryScanEquivalenceAllExperiments' ./internal/experiment
# The jobs daemon multiplexes journal writes, checkpoint access and event
# fan-out across pool workers and HTTP handlers; race the whole package
# explicitly (includes the submission-flood and SIGKILL/restart tests).
go test -race -timeout 10m ./internal/jobs
# The state-bounding machinery added by the retention PR: journal compaction
# under concurrent writers, single-flight cell dedup across concurrent jobs,
# the FIFO dequeue with its global weight accounting, replay of ledgers
# written in an older spec format, and the GC sweep — all are
# lock-ordering-sensitive or guard durable state, so race their suites
# explicitly even when the whole-package runs above shard.
go test -race -timeout 10m -run 'TestCompact|TestRewriteCrashStages|TestConcurrentPutsDuringCompact|TestSingleFlight' ./internal/checkpoint
go test -race -timeout 10m -run 'TestSingleFlightDedupAcrossConcurrentRuns' ./internal/experiment
go test -race -timeout 10m -run 'TestGC|TestFIFODequeue|TestJobJournalReplaysRetiredClientField|TestTraceSubmitUnwritable|TestCancelRemovesTrace' ./internal/jobs
# The GC crash matrix SIGKILLs a real daemon at every compaction stage and
# the retention soak bounds the state dir across a kill; both re-exec the
# test binary, so run them without -race (the victim is raced above).
go test -timeout 10m -run 'TestGCKillAtEveryStage|TestRetentionBoundsStateDir' ./internal/jobs
# End-to-end daemon smoke: build the real udwnd binary, submit a job over
# HTTP, stream its events to DONE, run two retained batches through POST /gc
# asserting the state dir stops growing, then SIGTERM and require a clean
# drain.
UDWND_SMOKE=1 go test -timeout 5m -run '^TestDaemonBinarySmoke$' ./internal/jobs

# Native fuzz targets, 10 seconds each: checkpoint recovery against
# arbitrary journal bytes, and the grid index against its brute-force oracle (the
# same members, and Iter.Dist2 bit-identical to each member's squared
# distance). The committed corpora under testdata/fuzz replay as plain tests
# in the suites above; here they seed short live fuzzing so CI keeps probing
# new inputs. Every step caps minimization at 1 s per input: Go otherwise
# allows 60 s to shrink each newly interesting input, does not count those
# executions, and in a 10 s step both workers were minimizing from about
# 3 s on (FuzzGridWithin ran 2,557 execs without the cap and 40,951 with
# it). A failing input still fails the step; only its shrinking is capped.
go test -timeout 5m -run '^$' -fuzz '^FuzzCheckpointDecode$' -fuzztime 10s -fuzzminimizetime 1s ./internal/checkpoint
go test -timeout 5m -run '^$' -fuzz '^FuzzGridWithin$' -fuzztime 10s -fuzzminimizetime 1s ./internal/geom
# The binary trace decoder fronts files from killed runs and foreign
# builds; fuzz it against arbitrary bytes (never panic, bounded allocation,
# accepted decodes must round-trip, and a match-everything Query must agree
# with Open + Next on events, truncation and typed errors).
go test -timeout 5m -run '^$' -fuzz '^FuzzTraceDecode$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trace
# The index-frame decoder and the query planner sit behind the same hostile
# inputs; fuzz arbitrary payloads spliced as CRC-valid index frames (never
# panic, bounded allocation, a forged index can suppress frames but never
# fabricate or corrupt query results).
go test -timeout 5m -run '^$' -fuzz '^FuzzIndexDecode$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trace
# The field engine against its canonical-sum oracle: random
# move/kill/revive/tx-toggle/retune/power programs must keep every demanded
# receiver's field bit-identical to a sum from scratch and every other
# receiver certified idle, every slot.
go test -timeout 5m -run '^$' -fuzz '^FuzzFieldDelta$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sim
# The SINR decode floor against the decode test it pre-filters: arbitrary
# signal, β ≥ 1, noise and interferer powers must never decode below
# DecodeFloor of the canonical sum, and the floor must never fall as the
# sum rises.
go test -timeout 5m -run '^$' -fuzz '^FuzzDecodeFloor$' -fuzztime 10s -fuzzminimizetime 1s ./internal/model

# Coverage gate: statement coverage of the gated packages must not drop
# below the committed floors. Measured in -short mode so the numbers are
# fast and scheduling-stable; regenerate with scripts/ci.sh -update-coverage.
baseline=scripts/coverage_baseline.txt
covdir=$(mktemp -d)
trap 'rm -rf "$covdir"' EXIT
declare -A measured
for pkg in internal/experiment internal/checkpoint internal/sim internal/trace internal/jobs; do
  out=$(go test -short -timeout 10m -coverprofile="$covdir/$(basename "$pkg").cov" "./$pkg")
  pct=$(echo "$out" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*' | tail -1)
  if [ -z "$pct" ]; then
    echo "coverage gate: could not parse coverage for $pkg" >&2
    echo "$out" >&2
    exit 1
  fi
  measured[$pkg]=$pct
  echo "coverage: $pkg $pct%"
done

if [ "$update_coverage" = 1 ]; then
  {
    echo "# Statement-coverage floors (percent) for scripts/ci.sh."
    echo "# Regenerate with: scripts/ci.sh -update-coverage"
    echo "# Floor = measured - 1.0 to absorb scheduling-dependent branches."
    for pkg in internal/experiment internal/checkpoint internal/sim internal/trace internal/jobs; do
      awk -v p="$pkg" -v m="${measured[$pkg]}" 'BEGIN{printf "%s %.1f\n", p, m-1.0}'
    done
  } > "$baseline"
  echo "coverage gate: wrote $baseline"
  cat "$baseline"
else
  if [ ! -f "$baseline" ]; then
    echo "coverage gate: $baseline missing; run scripts/ci.sh -update-coverage" >&2
    exit 1
  fi
  fail=0
  while read -r pkg floor; do
    case "$pkg" in \#*|"") continue ;; esac
    got=${measured[$pkg]:-}
    if [ -z "$got" ]; then
      echo "coverage gate: $pkg in baseline but not measured" >&2
      fail=1
      continue
    fi
    if ! awk -v g="$got" -v f="$floor" 'BEGIN{exit !(g+0 >= f+0)}'; then
      echo "coverage gate: $pkg coverage $got% fell below floor $floor%" >&2
      fail=1
    fi
  done < "$baseline"
  [ "$fail" = 0 ] || exit 1
  echo "coverage gate: ok"
fi
