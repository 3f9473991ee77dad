package experiment

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"udwn/internal/checkpoint"
	"udwn/internal/metrics"
)

// runCheckpointed executes experiment e once at the given worker count,
// writing through store. It returns the rendered output and the
// ZeroTimings'd manifest exactly as cmd/experiments would produce them.
func runCheckpointed(t *testing.T, e Experiment, workers int, store *checkpoint.Store) (out, manifest string) {
	t.Helper()
	o := QuickOptions()
	o.Workers = workers
	o.Metrics = metrics.NewRegistry()
	o.Report = NewRunReport()
	o.Checkpoint = store
	out = e.Run(o).String()
	b, err := BuildManifest([]string{e.ID}, o, o.Report, 0).ZeroTimings().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return out, string(b)
}

// cutJournal copies the journal of the store in dir into a fresh directory
// and keeps only its first k frames, cutting it through ResumeJournal's
// accept callback. That is the state a SIGKILL leaves after k commits: the
// store appends one frame per committed cell (cells.journal, see
// internal/checkpoint).
func cutJournal(t *testing.T, dir string, k int) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "cells.journal"))
	if err != nil {
		t.Fatal(err)
	}
	cut := t.TempDir()
	path := filepath.Join(cut, "cells.journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	frames := 0
	j, err := checkpoint.ResumeJournal(path, func([]byte) bool {
		frames++
		return frames <= k
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return cut
}

// TestResumeByteIdentical is the crash/resume differential harness: for every
// experiment, an uninterrupted checkpointed run is the baseline; then its
// journal is cut after k committed cells for several k, the run resumes
// against the cut store, and the resumed run's rendered output, manifest and
// final store hash must match the baseline byte for byte — under both
// sequential and 8-worker scheduling.
func TestResumeByteIdentical(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				baseDir := t.TempDir()
				base, err := checkpoint.Create(baseDir)
				if err != nil {
					t.Fatal(err)
				}
				wantOut, wantManifest := runCheckpointed(t, e, workers, base)
				cells := base.Len()
				wantHash := base.Hash()
				base.Close()
				if cells == 0 {
					t.Fatalf("workers=%d: baseline stored no cells", workers)
				}

				cuts := []int{1, cells / 2, cells - 1}
				if testing.Short() {
					cuts = []int{(cells + 1) / 2}
				}
				seen := map[int]bool{}
				for _, k := range cuts {
					if k < 1 || k > cells || seen[k] {
						continue
					}
					seen[k] = true

					re, err := checkpoint.Resume(cutJournal(t, baseDir, k))
					if err != nil {
						t.Fatalf("workers=%d cut=%d: resume: %v", workers, k, err)
					}
					if re.Len() != k {
						t.Fatalf("workers=%d cut=%d: cut store holds %d records", workers, k, re.Len())
					}
					gotOut, gotManifest := runCheckpointed(t, e, workers, re)
					if hits := re.Stats().Hits; hits != int64(k) {
						t.Errorf("workers=%d cut=%d: resumed run replayed %d cells", workers, k, hits)
					}
					gotHash := re.Hash()
					re.Close()

					if gotOut != wantOut {
						t.Errorf("workers=%d cut=%d: resumed output differs\n--- baseline ---\n%s\n--- resumed ---\n%s",
							workers, k, wantOut, gotOut)
					}
					if gotManifest != wantManifest {
						t.Errorf("workers=%d cut=%d: resumed manifest differs\n--- baseline ---\n%s\n--- resumed ---\n%s",
							workers, k, wantManifest, gotManifest)
					}
					if gotHash != wantHash {
						t.Errorf("workers=%d cut=%d: store hash %s, want %s",
							workers, k, gotHash, wantHash)
					}
				}
			}
		})
	}
}

// TestCheckpointParallelWriters drives an 8-worker grid through one shared
// store (under the tier-1 -race gate) and requires the merged metric
// snapshot, the rendered results and the store content hash to be identical
// to the sequential run's.
func TestCheckpointParallelWriters(t *testing.T) {
	run := func(workers int) (results string, snapshot string, hash string) {
		store, err := checkpoint.Create(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		o := Options{
			Seeds:      4,
			Workers:    workers,
			Name:       "parallel-writers",
			Metrics:    metrics.NewRegistry(),
			Report:     NewRunReport(),
			Checkpoint: store,
		}
		grid := runSeedGrid(o, 6, func(co Options, row, seed int) float64 {
			co.Metrics.Counter("test/cells").Inc()
			co.Metrics.Histogram("test/val", 8, 64).Observe(float64(row*10 + seed))
			return float64(row*100 + seed)
		})
		return fmt.Sprint(grid), o.Metrics.Snapshot().ZeroTimings().String(), store.Hash()
	}
	seqRes, seqSnap, seqHash := run(1)
	parRes, parSnap, parHash := run(8)
	if parRes != seqRes {
		t.Errorf("results differ:\nworkers=1: %s\nworkers=8: %s", seqRes, parRes)
	}
	if parSnap != seqSnap {
		t.Errorf("snapshots differ:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seqSnap, parSnap)
	}
	if parHash != seqHash {
		t.Errorf("store hash %s (workers=8), want %s (workers=1)", parHash, seqHash)
	}
}

// Property: cache hits never reorder the declaration-order merge. Random
// subsets of a grid are pre-stored with the exact content addresses a live
// run would use; the mixed hit/miss run must still return every cell in its
// declared slot, with the store serving exactly the prefilled cells. Trials
// alternate one worker and eight, so replays on a pool of one are pinned
// too.
func TestCacheHitsPreserveDeclarationOrder(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		store, err := checkpoint.Create(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		o := Options{
			Workers:    []int{1, 8}[trial%2],
			Name:       "order",
			Metrics:    metrics.NewRegistry(),
			Report:     NewRunReport(),
			Checkpoint: store,
		}
		schema := cellSchema[int](o)

		prefilled := int64(0)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				continue
			}
			v := i
			value, err := checkpoint.EncodeValue(&v)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(checkpoint.Record{
				Experiment: "order",
				Label:      fmt.Sprintf("cell=%d", i),
				Schema:     schema,
				Value:      value,
			}); err != nil {
				t.Fatal(err)
			}
			prefilled++
		}

		var g Grid[int]
		for i := 0; i < n; i++ {
			i := i
			g.AddLabeled(fmt.Sprintf("cell=%d", i), func(Options) int { return i })
		}
		out := g.Run(o)
		for i, v := range out {
			if v != i {
				t.Fatalf("trial %d: slot %d holds %d (prefilled=%d)", trial, i, v, prefilled)
			}
		}
		st := store.Stats()
		if st.Hits != prefilled || st.Misses != n-prefilled {
			t.Fatalf("trial %d: hits=%d misses=%d, want %d and %d",
				trial, st.Hits, st.Misses, prefilled, n-prefilled)
		}
		store.Close()
	}
}

// Regression: Failures must sort by (experiment, cell) with recording order
// preserved among duplicates, so retried sweeps render identically run after
// run instead of flapping with worker scheduling.
func TestRunReportFailureOrderDeterministic(t *testing.T) {
	r := NewRunReport()
	r.add(Failure{Experiment: "b", Cell: 2, Reason: "early"})
	r.add(Failure{Experiment: "a", Cell: 5, Reason: "x"})
	r.add(Failure{Experiment: "b", Cell: 2, Reason: "late"})
	r.add(Failure{Experiment: "a", Cell: 1, Reason: "y"})
	got := r.Failures()
	want := []struct {
		exp    string
		cell   int
		reason string
	}{
		{"a", 1, "y"}, {"a", 5, "x"}, {"b", 2, "early"}, {"b", 2, "late"},
	}
	if len(got) != len(want) {
		t.Fatalf("%d failures, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Experiment != w.exp || got[i].Cell != w.cell || got[i].Reason != w.reason {
			t.Fatalf("failure %d = %+v, want %+v", i, got[i], w)
		}
	}
}

// A cell that panics after recording must leave the same metrics with or
// without a checkpoint store: every cell records into its own registry,
// merged only on success, so the failed cell's counts never reach the run
// totals.
func TestFailedCellMetricsIndependentOfStore(t *testing.T) {
	run := func(store *checkpoint.Store) string {
		var g Grid[int]
		g.AddLabeled("row=0 seed=0", func(co Options) int {
			co.Metrics.Counter("sim/slots").Add(10)
			return 1
		})
		g.AddLabeled("row=0 seed=1", func(co Options) int {
			co.Metrics.Counter("sim/slots").Add(7)
			panic("permanent")
		})
		o := Options{
			Workers:    1,
			Name:       "failed",
			Metrics:    metrics.NewRegistry(),
			Report:     NewRunReport(),
			Checkpoint: store,
		}
		if got := g.Run(o); got[0] != 1 || len(o.Report.Failures()) != 1 {
			t.Fatalf("cells = %v with failures %v, want cell 0 = 1 and cell 1 FAILED", got, o.Report.Failures())
		}
		return o.Metrics.Snapshot().ZeroTimings().String()
	}
	store, err := checkpoint.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	without, with := run(nil), run(store)
	if with != without {
		t.Errorf("metrics differ:\n--- without a store ---\n%s--- with a store ---\n%s", without, with)
	}
	if !strings.Contains(without, "counter sim/slots = 10\n") {
		t.Errorf("the failed cell's counts reached the run totals:\n%s", without)
	}
}
