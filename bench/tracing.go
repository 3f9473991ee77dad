package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own code around a call into the program. Spans of one sim
// run or one job share a group id; parent is the index of the enclosing
// span (-1 for a root).
type span struct {
	group, parent int
	name          string
	start, end    time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced rounds pay only a nil check per call site.
type tracer struct {
	epoch  time.Time
	spans  []span
	groups int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// group allocates the id shared by the spans of one sim run or one job.
func (t *tracer) group() int {
	if t == nil {
		return -1
	}
	t.groups++
	return t.groups
}

// record stores a finished span and returns its index.
func (t *tracer) record(name string, group, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{group: group, parent: parent, name: name,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// open starts a span whose end is filled in by close; used for parents,
// whose children are recorded while they are open.
func (t *tracer) open(name string, group, parent int, start time.Time) int {
	return t.record(name, group, parent, start, start)
}

func (t *tracer) close(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = end.Sub(t.epoch)
}

// durations returns the durations of every span with the given name, in
// the unit given.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/float64(unit))
		}
	}
	return out
}

// layerTime is the total and self time of one span name. Self time is the
// span's duration minus the part of it that its child spans cover.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

func (t *tracer) layers() []layerTime {
	type iv struct{ a, b time.Duration }
	children := make(map[int][]iv)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], iv{s.start, s.end})
		}
	}
	by := make(map[string]*layerTime)
	var order []string
	for i, s := range t.spans {
		lt := by[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			by[s.name] = lt
			order = append(order, s.name)
		}
		d := s.end - s.start
		covered := time.Duration(0)
		kids := children[i]
		slices.SortFunc(kids, func(x, y iv) int { return int(x.a - y.a) })
		var cur iv
		open := false
		for _, k := range kids {
			switch {
			case !open:
				cur, open = k, true
			case k.a <= cur.b:
				cur.b = max(cur.b, k.b)
			default:
				covered += cur.b - cur.a
				cur = k
			}
		}
		if open {
			covered += cur.b - cur.a
		}
		lt.count++
		lt.total += d
		lt.self += max(0, d-covered)
	}
	out := make([]layerTime, 0, len(order))
	for _, name := range order {
		out = append(out, *by[name])
	}
	return out
}

// write saves the spans and the per-layer self times under dir.
func (t *tracer) write(dir string) error {
	f, err := os.Create(filepath.Join(dir, "spans.tsv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "group\tid\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.group, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintln(&b, "layer\tcount\ttotal_ms\tself_ms")
	for _, lt := range t.layers() {
		fmt.Fprintf(&b, "%s\t%d\t%.3f\t%.3f\n", lt.name, lt.count,
			float64(lt.total)/1e6, float64(lt.self)/1e6)
	}
	return os.WriteFile(filepath.Join(dir, "layers.tsv"), []byte(b.String()), 0o644)
}

// profiler records a CPU profile per traced round, so untraced rounds run
// without the profiler's signal overhead.
type profiler struct {
	dir   string
	files []string
	f     *os.File
}

func (p *profiler) start() error {
	if p == nil {
		return nil
	}
	name := filepath.Join(p.dir, fmt.Sprintf("cpu-%02d.pprof", len(p.files)))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f = f
	p.files = append(p.files, name)
	return nil
}

func (p *profiler) stop() error {
	if p == nil || p.f == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := p.f.Close()
	p.f = nil
	return err
}

// cpuPackages are the program's packages whose CPU self share the traced
// run reports; everything else outside the Go runtime counts as "other".
var cpuPackages = []string{"sim", "pathloss", "model", "sensing", "geom", "core",
	"baseline", "faults", "dynamics", "metrics", "experiment", "checkpoint", "jobs", "trace",
	"rng", "metric"}

// cpuShares summarises the recorded profiles with `go tool pprof -top`,
// leaving out the calibration kernels, and returns each package group's
// share of flat (self) CPU time in percent, keyed "cpu.<group>". The pprof
// listing is saved beside the profiles.
func (p *profiler) cpuShares(ctx context.Context) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms",
		"-tagignore=bench=calibrate"}, p.files...)
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	if err := os.WriteFile(filepath.Join(p.dir, "pprof-top.txt"), out, 0o644); err != nil {
		return nil, err
	}
	return parsePprofTop(string(out)), nil
}

// parsePprofTop folds a `pprof -top` listing into per-package-group flat
// shares.
func parsePprofTop(listing string) map[string]float64 {
	flat := make(map[string]float64)
	total := 0.0
	inTable := false
	for _, line := range strings.Split(listing, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "flat" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		flat[cpuGroup(fn)] += d.Seconds()
		total += d.Seconds()
	}
	shares := make(map[string]float64)
	for _, g := range append(slices.Clone(cpuPackages), "runtime", "other") {
		shares["cpu."+g] = 0
		if total > 0 {
			shares["cpu."+g] = 100 * flat[g] / total
		}
	}
	return shares
}

// cpuGroup maps a fully qualified function name to its package group.
func cpuGroup(fn string) string {
	pkg := fn
	// Receiver types and type arguments may themselves contain package
	// paths; the function's own package ends before either.
	if i := strings.IndexAny(pkg, "(["); i >= 0 {
		pkg = pkg[:i]
	}
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "udwn/internal/"):
		name := strings.TrimPrefix(pkg, "udwn/internal/")
		if slices.Contains(cpuPackages, name) {
			return name
		}
	}
	return "other"
}
