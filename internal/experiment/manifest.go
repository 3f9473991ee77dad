package experiment

import (
	"strings"
	"time"

	"udwn/internal/metrics"
)

// BuildManifest assembles the machine-readable record of one suite run:
// effective configuration, the merged metric snapshot, per-cell timings,
// failure markers, and — when the run wrote through a checkpoint store —
// the store's content hash and cache traffic. It is shared by
// cmd/experiments and the crash/resume differential tests so both produce
// manifests with identical structure.
func BuildManifest(ids []string, o Options, report *RunReport, wall time.Duration) *metrics.Manifest {
	m := metrics.NewManifest("experiments")
	m.SetConfig("experiments", strings.Join(ids, " "))
	m.SetConfig("quick", o.Quick)
	m.SetConfig("seeds", o.Seeds)
	m.SetConfig("workers", o.Workers)
	m.WallNs = int64(wall)
	if o.Metrics != nil {
		m.Metrics = o.Metrics.Snapshot()
	}
	m.Cells = report.Timings()
	for _, f := range report.Failures() {
		m.Failures = append(m.Failures, f.String())
	}
	if cp := o.Checkpoint; cp != nil {
		st := cp.Stats()
		m.Checkpoint = &metrics.CheckpointInfo{
			Dir:       cp.Dir(),
			Resumed:   st.Resumed,
			Hits:      st.Hits,
			Misses:    st.Misses,
			Stores:    st.Stores,
			Errors:    st.Errors,
			TornBytes: st.TornBytes,
			Records:   st.Records,
			StoreHash: cp.Hash(),
		}
	}
	return m
}
