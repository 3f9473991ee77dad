package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// populate records one deterministic batch of events into r, scaled by k so
// different batches are distinguishable after a merge.
func populate(r *Registry, k int64) {
	r.Counter("c/a").Add(2 * k)
	r.Counter("c/b").Add(k)
	r.Gauge("g").SetMax(10 * k)
	h := r.Histogram("h", 1, 4, 16)
	for i := int64(0); i < k; i++ {
		h.Observe(0.5)
		h.Observe(5)
		h.Observe(100)
	}
	r.Timer("t").Observe(time.Duration(k)*time.Millisecond, 64*k)
}

// TestMergeSnapshotEquivalence is the replay contract of the checkpoint
// layer: recording events directly into one registry and merging the same
// events via per-part snapshots must produce byte-identical snapshots.
func TestMergeSnapshotEquivalence(t *testing.T) {
	direct := NewRegistry()
	populate(direct, 3)
	populate(direct, 5)

	merged := NewRegistry()
	for _, k := range []int64{3, 5} {
		part := NewRegistry()
		populate(part, k)
		merged.MergeSnapshot(part.Snapshot())
	}

	a := direct.Snapshot().String()
	b := merged.Snapshot().String()
	if a != b {
		t.Fatalf("merged snapshot differs from direct recording:\n--- direct ---\n%s\n--- merged ---\n%s", a, b)
	}
}

// A snapshot that travelled through its JSON encoding (as checkpoint
// records store it) must merge identically to the in-memory one.
func TestMergeSnapshotJSONRoundTrip(t *testing.T) {
	part := NewRegistry()
	populate(part, 7)
	b, err := json.Marshal(part.Snapshot().ZeroTimings())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}

	want := NewRegistry()
	want.MergeSnapshot(part.Snapshot().ZeroTimings())
	got := NewRegistry()
	got.MergeSnapshot(&snap)
	if got.Snapshot().String() != want.Snapshot().String() {
		t.Fatalf("JSON round-tripped snapshot merged differently:\n%s\nvs\n%s",
			got.Snapshot(), want.Snapshot())
	}
}

// Merging must be safe against concurrent direct writers — the grid merges
// cache hits on the dispatcher while workers record live cells.
func TestMergeSnapshotConcurrent(t *testing.T) {
	part := NewRegistry()
	populate(part, 2)
	snap := part.Snapshot()

	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.MergeSnapshot(snap)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				populate(r, 1)
			}
		}()
	}
	wg.Wait()
	// Merges: 4 goroutines × 50 merges × snapshot value 4; writers: 4
	// goroutines × 50 populates × 2.
	if got, want := r.CounterValue("c/a"), int64(4*50*4+4*50*2); got != want {
		t.Fatalf("c/a = %d, want %d", got, want)
	}
	if got := r.Histogram("h", 1, 4, 16).Count(); got != int64(4*50*3*2+4*50*3) {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestManifestZeroTimingsClearsCheckpointTraffic(t *testing.T) {
	m := NewManifest("test")
	m.Checkpoint = &CheckpointInfo{
		Dir: "/tmp/x", Resumed: true,
		Hits: 3, Misses: 4, Stores: 4, Errors: 1, TornBytes: 9,
		Records: 7, StoreHash: "abc",
	}
	m.ZeroTimings()
	cp := m.Checkpoint
	if cp.Dir != "" || cp.Resumed || cp.Hits != 0 || cp.Misses != 0 ||
		cp.Stores != 0 || cp.Errors != 0 || cp.TornBytes != 0 {
		t.Fatalf("traffic fields survived ZeroTimings: %+v", cp)
	}
	if cp.Records != 7 || cp.StoreHash != "abc" {
		t.Fatalf("content fields must survive ZeroTimings: %+v", cp)
	}
}
