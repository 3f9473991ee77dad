package experiment

import (
	"sync"
	"testing"

	"udwn/internal/checkpoint"
)

// TestSingleFlightDedupAcrossConcurrentRuns models the daemon's multi-tenant
// case: several concurrent runs of the same experiment share one checkpoint
// store. The single-flight table must make them compute every cell exactly
// once store-wide (Stores == distinct cells) while each run's rendered
// output stays byte-identical to an isolated baseline. Each run reads each
// cell from the store exactly once, and only the reads that found no record
// computed a cell (Misses == Stores).
func TestSingleFlightDedupAcrossConcurrentRuns(t *testing.T) {
	e, ok := Lookup("table1")
	if !ok {
		t.Fatal("table1 not registered")
	}

	solo, err := checkpoint.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runCheckpointed(t, e, 4, solo)
	cells := solo.Len()
	wantHash := solo.Hash()
	solo.Close()
	if cells == 0 {
		t.Fatal("baseline stored no cells")
	}

	shared, err := checkpoint.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	const runs = 4
	outs := make([]string, runs)
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r], _ = runCheckpointed(t, e, 4, shared)
		}(r)
	}
	wg.Wait()

	for r, got := range outs {
		if got != want {
			t.Errorf("run %d output diverged from solo baseline", r)
		}
	}
	st := shared.Stats()
	if st.Stores != int64(cells) {
		t.Errorf("%d Puts for %d distinct cells — single-flight failed to dedup concurrent computation", st.Stores, cells)
	}
	if st.Misses != st.Stores {
		t.Errorf("misses=%d stores=%d — a read that found no record must be the read whose run computed the cell", st.Misses, st.Stores)
	}
	if got, want := st.Hits+st.Misses, int64(runs*cells); got != want {
		t.Errorf("hits+misses = %d, want %d (each of %d runs reads each of %d cells once)", got, want, runs, cells)
	}
	if shared.Hash() != wantHash {
		t.Error("shared store hash diverged from solo baseline")
	}
	t.Logf("cells=%d stores=%d dedupWaits=%d dedupHits=%d", cells, st.Stores, st.DedupWaits, st.DedupHits)
}
