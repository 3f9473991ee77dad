package metrics

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"
)

func testManifest() *Manifest {
	r := NewRegistry()
	r.Counter("sim/tx").Add(42)
	r.Histogram("sim/tx_per_slot", 1, 4, 16).Observe(3)
	r.Timer("grid/cell").Observe(5*time.Millisecond, 1024)
	m := NewManifest("test")
	m.SetConfig("seeds", 5)
	m.SetConfig("workers", 8)
	m.Metrics = r.Snapshot()
	m.Counters = map[string]int64{"crashes": 2, "restarts": 2}
	m.Cells = []CellTiming{
		{Experiment: "table1", Cell: 0, Label: "row=0 seed=0", WallNs: 123, AllocBytes: 456},
		{Experiment: "table1", Cell: 1, Label: "row=0 seed=1", Failed: true, WallNs: 99},
	}
	m.Failures = []string{"FAILED(table1 cell 1 [row=0 seed=1]): boom"}
	m.WallNs = 1e9
	return m
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	m := testManifest()
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "test" || got.Config["seeds"] != "5" || got.Counters["crashes"] != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if len(got.Cells) != 2 || got.Cells[1].Label != "row=0 seed=1" || !got.Cells[1].Failed {
		t.Fatalf("round trip lost cells: %+v", got.Cells)
	}
	if got.Metrics == nil || len(got.Metrics.Counters) != 1 || got.Metrics.Counters[0].Value != 42 {
		t.Fatalf("round trip lost metrics: %+v", got.Metrics)
	}
}

func TestManifestZeroTimingsDeterminism(t *testing.T) {
	// Two manifests recording the same events with different timings must
	// encode byte-identically after ZeroTimings — the contract the
	// cross-worker golden test in internal/experiment builds on.
	a := testManifest()
	b := testManifest()
	b.WallNs = 7
	b.Started = "2026-01-01T00:00:00Z"
	b.Cells[0].WallNs = 1
	b.Cells[0].AllocBytes = 2
	b.Metrics.Timers[0].WallNs = 5
	ab, err := a.ZeroTimings().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.ZeroTimings().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("zeroed manifests differ:\n--- a ---\n%s--- b ---\n%s", ab, bb)
	}
}

func TestVersionNonEmpty(t *testing.T) {
	if Version() == "" {
		t.Fatal("Version() must never be empty")
	}
}
