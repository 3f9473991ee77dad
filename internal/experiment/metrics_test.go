package experiment

import (
	"os"
	"path/filepath"
	"testing"

	"udwn/internal/metrics"
)

// metricsTargets are the experiments the determinism suite instruments:
// one table (dense seed grid over several rows) and one figure (plot
// pipeline), enough to cover both merge paths.
var metricsTargets = []string{"figure1", "table1"}

func findExperiment(t *testing.T, id string) Experiment {
	t.Helper()
	for _, e := range All() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("unknown experiment %q", id)
	return Experiment{}
}

// runInstrumented executes one experiment with a fresh registry and report
// attached, returning both.
func runInstrumented(t *testing.T, id string, workers int) (*metrics.Registry, *RunReport) {
	t.Helper()
	e := findExperiment(t, id)
	o := QuickOptions()
	o.Workers = workers
	o.Metrics = metrics.NewRegistry()
	o.Report = NewRunReport()
	_ = e.Run(o).String()
	return o.Metrics, o.Report
}

// TestMetricsWorkersDeterminism is the acceptance gate of the metrics
// layer's determinism contract: the timing-zeroed snapshot of a fully
// instrumented experiment run is byte-identical across worker counts, and
// pinned to a committed golden so instrumentation drift is visible in
// review. Refresh after an intentional change with:
//
//	go test ./internal/experiment -run TestMetricsWorkersDeterminism -update
func TestMetricsWorkersDeterminism(t *testing.T) {
	for _, id := range metricsTargets {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			reg1, _ := runInstrumented(t, id, 1)
			reg8, _ := runInstrumented(t, id, 8)
			s1 := reg1.Snapshot().ZeroTimings().String()
			s8 := reg8.Snapshot().ZeroTimings().String()
			if s1 != s8 {
				t.Fatalf("metrics snapshot differs across worker counts.\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", s1, s8)
			}
			path := filepath.Join("testdata", "metrics_"+id+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(s1), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if s1 != string(want) {
				t.Fatalf("%s metrics drifted from %s.\nIf intentional, refresh with -update.\n--- got ---\n%s\n--- want ---\n%s",
					id, path, s1, want)
			}
		})
	}
}

// TestManifestWorkersDeterminism extends the contract to the run manifest:
// after ZeroTimings, the JSON rendering — metric snapshot and per-cell
// timing records — is byte-identical across worker counts.
func TestManifestWorkersDeterminism(t *testing.T) {
	for _, id := range metricsTargets {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			render := func(workers int) string {
				reg, rep := runInstrumented(t, id, workers)
				m := metrics.NewManifest("experiment-test")
				m.SetConfig("experiment", id)
				m.Metrics = reg.Snapshot()
				m.Cells = rep.Timings()
				m.ZeroTimings()
				out, err := m.MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				return string(out)
			}
			m1, m8 := render(1), render(8)
			if m1 != m8 {
				t.Fatalf("manifest differs across worker counts.\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", m1, m8)
			}
		})
	}
}

// TestProgressReporting checks the grid's Progress callback contract: it is
// serialised (no concurrent invocations), Done increases by exactly one per
// call from 1 to Total, and Total matches the declared grid size.
func TestProgressReporting(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var events []Progress
		e := findExperiment(t, "table1")
		o := QuickOptions()
		o.Workers = workers
		o.Progress = func(p Progress) { events = append(events, p) }
		_ = e.Run(o).String()

		if len(events) == 0 {
			t.Fatalf("workers=%d: no progress events", workers)
		}
		total := events[0].Total
		if total != len(events) {
			t.Fatalf("workers=%d: got %d events, Total=%d", workers, len(events), total)
		}
		for i, p := range events {
			if p.Done != i+1 {
				t.Fatalf("workers=%d: event %d has Done=%d, want %d", workers, i, p.Done, i+1)
			}
			if p.Total != total {
				t.Fatalf("workers=%d: event %d has Total=%d, want %d", workers, i, p.Total, total)
			}
			if p.Experiment != "table1" {
				t.Fatalf("workers=%d: event %d has Experiment=%q", workers, i, p.Experiment)
			}
			if p.Failed != 0 {
				t.Fatalf("workers=%d: event %d reports %d failures on a clean run", workers, i, p.Failed)
			}
		}
	}
}

// TestCellTimings checks that every grid cell of an instrumented run left a
// timing record with its identity and a positive wall-clock cost, and that
// the "grid/cells" counter agrees.
func TestCellTimings(t *testing.T) {
	reg, rep := runInstrumented(t, "table1", 2)
	timings := rep.Timings()
	if len(timings) == 0 {
		t.Fatal("no cell timings recorded")
	}
	if got := reg.Snapshot(); countOf(t, got, "grid/cells") != int64(len(timings)) {
		t.Fatalf("grid/cells counter %d != %d timing records", countOf(t, got, "grid/cells"), len(timings))
	}
	for i, ct := range timings {
		if ct.Experiment != "table1" {
			t.Fatalf("timing %d: experiment %q", i, ct.Experiment)
		}
		if ct.Label == "" {
			t.Fatalf("timing %d: empty label", i)
		}
		if ct.Failed {
			t.Fatalf("timing %d: failed on a clean run", i)
		}
		if ct.WallNs <= 0 {
			t.Fatalf("timing %d: non-positive wall time %d", i, ct.WallNs)
		}
	}
}

func countOf(t *testing.T, s *metrics.Snapshot, name string) int64 {
	t.Helper()
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q absent from snapshot", name)
	return 0
}
