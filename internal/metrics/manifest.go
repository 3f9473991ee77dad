package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"
)

// CellTiming is the per-cell cost record of one experiment grid cell: which
// cell (by experiment id, declaration index and grid label), how many
// attempts it took, and what it cost. WallNs and AllocBytes are timing
// fields cleared by ZeroTimings; everything else is deterministic.
// AllocBytes is the process-wide heap allocation delta over the cell, so
// under concurrent workers it includes other cells' allocations — treat it
// as a budget indicator, not an exact attribution.
type CellTiming struct {
	Experiment string `json:"experiment"`
	Cell       int    `json:"cell"`
	Label      string `json:"label,omitempty"`
	Attempts   int    `json:"attempts"`
	Failed     bool   `json:"failed,omitempty"`
	WallNs     int64  `json:"wall_ns"`
	AllocBytes int64  `json:"alloc_bytes"`
}

// Manifest is the machine-readable record of one CLI run: what was run
// (tool, version, config, seeds), what it cost (wall clock, per-cell
// timings) and what it measured (metric snapshot, counters). The JSON
// encoding is byte-stable modulo the timing fields — struct field order is
// fixed, map keys marshal sorted, and snapshot sections are sorted — so
// manifests can be golden-tested and diffed across runs by trajectory
// tooling.
type Manifest struct {
	Tool    string `json:"tool"`
	Version string `json:"version"`
	// Started is the RFC3339 UTC start time; a timing field.
	Started string `json:"started,omitempty"`
	// WallNs is the total run duration; a timing field.
	WallNs int64 `json:"wall_ns"`
	// Config records the effective flag/option values of the run.
	Config map[string]string `json:"config,omitempty"`
	// Interrupted marks a run that was stopped by a signal before every
	// selected experiment finished: the manifest records only the completed
	// portion, and an attached checkpoint store holds the finished cells
	// for a -resume run to replay.
	Interrupted bool `json:"interrupted,omitempty"`
	// Metrics is the run's registry snapshot.
	Metrics *Snapshot `json:"metrics,omitempty"`
	// Counters holds auxiliary counter sets (fault engine, run report).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Cells lists per-cell timings of grid runs, in (experiment, cell)
	// order.
	Cells []CellTiming `json:"cells,omitempty"`
	// Failures lists the FAILED(...) markers of degraded cells.
	Failures []string `json:"failures,omitempty"`
	// Checkpoint records the run's interaction with a cell-result store,
	// when one was attached.
	Checkpoint *CheckpointInfo `json:"checkpoint,omitempty"`
}

// CheckpointInfo is the manifest's checkpoint section. StoreHash and
// Records describe the store's *content* and are deterministic for a given
// grid; the traffic fields (Hits, Misses, Stores, Errors, Resumed, Dir)
// describe this run's *history* against the store — an interrupted-then-
// resumed run necessarily reports different traffic than an uninterrupted
// one even though it computed the identical science, so ZeroTimings clears
// them alongside the wall clocks.
type CheckpointInfo struct {
	Dir       string `json:"dir,omitempty"`
	Resumed   bool   `json:"resumed,omitempty"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Stores    int64  `json:"stores"`
	Errors    int64  `json:"errors,omitempty"`
	TornBytes int64  `json:"torn_bytes,omitempty"`
	Records   int    `json:"records"`
	StoreHash string `json:"store_hash"`
}

// NewManifest starts a manifest for the named tool, stamped with the build
// version and the current UTC time.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		Tool:    tool,
		Version: Version(),
		Started: time.Now().UTC().Format(time.RFC3339),
		Config:  make(map[string]string),
	}
}

// SetConfig records one effective configuration value.
func (m *Manifest) SetConfig(key string, value any) {
	m.Config[key] = fmt.Sprint(value)
}

// ZeroTimings clears every machine- and run-history-dependent field in
// place — start time, wall clocks, allocation figures, the version stamp
// (which varies by checkout), and the checkpoint section's cache-traffic
// fields (which depend on how the run was interrupted, not on what it
// computed) — and returns the manifest, leaving only deterministic run
// content for byte-comparison in tests.
func (m *Manifest) ZeroTimings() *Manifest {
	m.Started = ""
	m.WallNs = 0
	m.Version = ""
	if m.Metrics != nil {
		m.Metrics.ZeroTimings()
	}
	for i := range m.Cells {
		m.Cells[i].WallNs = 0
		m.Cells[i].AllocBytes = 0
	}
	if m.Checkpoint != nil {
		m.Checkpoint.Dir = ""
		m.Checkpoint.Resumed = false
		m.Checkpoint.Hits = 0
		m.Checkpoint.Misses = 0
		m.Checkpoint.Stores = 0
		m.Checkpoint.Errors = 0
		m.Checkpoint.TornBytes = 0
	}
	for k := range m.Counters {
		if strings.HasPrefix(k, "checkpoint/") {
			delete(m.Counters, k)
		}
	}
	return m
}

// MarshalIndent renders the manifest as indented JSON with a trailing
// newline.
func (m *Manifest) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("metrics: marshal manifest: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteFile writes the manifest to path as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	b, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("metrics: write manifest: %w", err)
	}
	return nil
}

// ReadManifest parses a manifest back from path.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("metrics: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("metrics: parse manifest %s: %w", path, err)
	}
	return &m, nil
}

// Version returns a git-describe-style identifier of the running binary,
// derived from the build info the Go toolchain embeds: the module version
// when released, else the VCS revision (12 hex digits, "+dirty" when the
// checkout had local modifications), else "unknown" (tests and bare go run
// builds carry no VCS stamp).
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}
