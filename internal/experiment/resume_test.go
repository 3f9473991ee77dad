package experiment

import (
	"fmt"
	"math/rand"
	"testing"

	"udwn/internal/checkpoint"
	"udwn/internal/metrics"
)

// runCheckpointed executes experiment e once at the given worker count,
// writing through store when non-nil. It returns the rendered output and the
// ZeroTimings'd manifest exactly as cmd/experiments would produce them. With
// abortAfter > 0 the run is cut short by the grid's crash hook after that
// many committed cells — simulating a SIGKILL mid-sweep — and aborted
// reports that the sentinel fired.
func runCheckpointed(t *testing.T, e Experiment, workers int, store *checkpoint.Store, abortAfter int) (out, manifest string, aborted bool) {
	t.Helper()
	o := QuickOptions()
	o.Workers = workers
	o.Metrics = metrics.NewRegistry()
	o.Report = NewRunReport()
	o.Checkpoint = store
	o.abortAfterCells = abortAfter

	func() {
		defer func() {
			if p := recover(); p != nil {
				if _, ok := p.(gridAbort); ok {
					aborted = true
					return
				}
				panic(p)
			}
		}()
		out = e.Run(o).String()
	}()
	if aborted {
		return "", "", true
	}
	b, err := BuildManifest([]string{e.ID}, o, o.Report, 0).ZeroTimings().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return out, string(b), false
}

// TestResumeByteIdentical is the crash/resume differential harness: for every
// experiment, an uninterrupted checkpointed run is the baseline; then the run
// is killed (via the grid's test-only crash hook) after k committed cells for
// several k, resumed against the surviving store, and the resumed run's
// rendered output, manifest and final store hash must match the baseline byte
// for byte — under both sequential and 8-worker scheduling.
func TestResumeByteIdentical(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				base, err := checkpoint.Create(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				wantOut, wantManifest, _ := runCheckpointed(t, e, workers, base, 0)
				cells := base.Len()
				wantHash := base.Hash()
				base.Close()
				if cells == 0 {
					t.Fatalf("workers=%d: baseline stored no cells", workers)
				}

				aborts := []int{1, cells / 2, cells - 1}
				if testing.Short() {
					aborts = []int{(cells + 1) / 2}
				}
				seen := map[int]bool{}
				for _, k := range aborts {
					if k < 1 || k > cells || seen[k] {
						continue
					}
					seen[k] = true

					dir := t.TempDir()
					st, err := checkpoint.Create(dir)
					if err != nil {
						t.Fatal(err)
					}
					if _, _, aborted := runCheckpointed(t, e, workers, st, k); !aborted {
						t.Fatalf("workers=%d abort=%d: crash hook never fired", workers, k)
					}
					st.Close()

					re, err := checkpoint.Resume(dir)
					if err != nil {
						t.Fatalf("workers=%d abort=%d: resume: %v", workers, k, err)
					}
					if re.Len() == 0 {
						t.Fatalf("workers=%d abort=%d: aborted run left an empty store", workers, k)
					}
					gotOut, gotManifest, aborted := runCheckpointed(t, e, workers, re, 0)
					if aborted {
						t.Fatalf("workers=%d abort=%d: resumed run aborted", workers, k)
					}
					stats := re.Stats()
					if stats.Hits == 0 {
						t.Errorf("workers=%d abort=%d: resumed run replayed nothing", workers, k)
					}
					gotHash := re.Hash()
					re.Close()

					if gotOut != wantOut {
						t.Errorf("workers=%d abort=%d: resumed output differs\n--- baseline ---\n%s\n--- resumed ---\n%s",
							workers, k, wantOut, gotOut)
					}
					if gotManifest != wantManifest {
						t.Errorf("workers=%d abort=%d: resumed manifest differs\n--- baseline ---\n%s\n--- resumed ---\n%s",
							workers, k, wantManifest, gotManifest)
					}
					if gotHash != wantHash {
						t.Errorf("workers=%d abort=%d: store hash %s, want %s",
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
		cc := newCellCache[int](o)

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
				Schema:     cc.schema,
				Attempts:   1,
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
