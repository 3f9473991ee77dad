// Command experiments regenerates every table and figure of the evaluation
// suite (see DESIGN.md §3 and EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-quick] [-seeds N] [-workers N] [-progress] [-manifest out.json]
//	            [-trace out.trace [-trace-format jsonl|binary]]
//	            [-checkpoint DIR [-resume] [-cache-stats]] [id ...]
//
// With no ids, all experiments run in report order. Each experiment's
// (cell × seed) grid is evaluated on -workers concurrent workers (default:
// all CPUs); the output is byte-identical for every worker count.
//
// -progress renders a live "done/total cells, ETA" line on stderr.
// -manifest writes a machine-readable run record — config, version, metric
// snapshot, per-cell timings, failures — as JSON. -cpuprofile and
// -memprofile write pprof profiles of the run.
//
// -trace records every grid cell's slot events into one file; cells run
// concurrently, so events interleave in completion order (aggregate
// analytics via traceinfo are order-insensitive). -trace-format binary
// selects the compact framed encoding of internal/trace for full-scale
// regeneration runs.
//
// -checkpoint DIR attaches a content-addressed cell-result store (see
// internal/checkpoint): every completed grid cell is journalled to
// DIR/cells.journal as it finishes, so a killed run loses at most the cells
// still in flight. A fresh run truncates any existing store in DIR; pass
// -resume to reuse it instead, replaying completed cells from the journal
// and computing only the rest. Output and manifests are byte-identical with
// or without a store and across any interrupt/resume pattern. -cache-stats
// prints the hit/miss traffic on stderr after the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"udwn/internal/checkpoint"
	"udwn/internal/experiment"
	"udwn/internal/metrics"
	"udwn/internal/trace"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sizes for a fast smoke run")
	seeds := flag.Int("seeds", 0, "repetitions per cell (0 = default)")
	workers := flag.Int("workers", 0, "concurrent grid cells (0 = all CPUs)")
	progress := flag.Bool("progress", false, "render live done/total cells and ETA on stderr")
	manifest := flag.String("manifest", "", "write a JSON run manifest (config, metrics, per-cell timings) to this file")
	traceFile := flag.String("trace", "", "record every grid cell's slot events into one trace file (interleaved in completion order)")
	traceFmt := flag.String("trace-format", "jsonl", "trace encoding: jsonl | binary (compact framed, for full-scale regeneration)")
	checkpointDir := flag.String("checkpoint", "", "journal completed grid cells to a content-addressed store in this directory")
	resume := flag.Bool("resume", false, "reuse the -checkpoint store, replaying completed cells instead of recomputing them")
	cacheStats := flag.Bool("cache-stats", false, "print checkpoint hit/miss statistics on stderr after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU pprof profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap pprof profile to this file")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range experiment.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	if *resume && *checkpointDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -checkpoint DIR (there is no store to resume from)")
		os.Exit(1)
	}
	if *cacheStats && *checkpointDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -cache-stats requires -checkpoint DIR")
		os.Exit(1)
	}

	if *cpuprofile != "" {
		stop, err := metrics.StartCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer stop()
	}

	opts := experiment.DefaultOptions()
	if *quick {
		opts = experiment.QuickOptions()
	}
	if *seeds > 0 {
		opts.Seeds = *seeds
	}
	opts.Workers = *workers
	// One shared report: each experiment renders its own FAILED lines and
	// the suite summarises degraded cells at the end instead of aborting.
	report := experiment.NewRunReport()
	opts.Report = report
	// One shared registry: commutative counters merge every experiment's
	// instrumentation deterministically regardless of worker count.
	reg := metrics.NewRegistry()
	opts.Metrics = reg
	// First SIGINT/SIGTERM: stop dispatching grid cells, let the in-flight
	// ones finish (HardCancel stays false), flush what completed, and exit
	// nonzero with an interrupted manifest. A second signal aborts at once.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "\nexperiments: %s: finishing in-flight cells (signal again to abort)\n", sig)
		cancelRun()
		<-sigCh
		fmt.Fprintln(os.Stderr, "experiments: second signal, aborting")
		os.Exit(130)
	}()
	opts.Context = runCtx
	if *progress {
		ui := &progressUI{out: os.Stderr}
		opts.Progress = ui.report
	}
	var rec trace.Writer
	if *traceFile != "" {
		format, err := trace.ParseFormat(*traceFmt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		out, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: trace file:", err)
			os.Exit(1)
		}
		defer out.Close()
		if rec, err = trace.NewWriter(out, format); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		// Grid cells run on concurrent workers; serialize their events.
		opts.Observer = trace.LockedObserver(rec)
	}
	if *checkpointDir != "" {
		open := checkpoint.Create
		if *resume {
			open = checkpoint.Resume
		}
		store, err := open(*checkpointDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer store.Close()
		opts.Checkpoint = store
	}

	selected := experiment.All()
	if args := flag.Args(); len(args) > 0 {
		selected = selected[:0]
		for _, id := range args {
			e, ok := experiment.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	suiteStart := time.Now()
	interrupted := false
	for _, e := range selected {
		start := time.Now()
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		out, stopped := runExperiment(e, opts)
		fmt.Println(out)
		if stopped {
			interrupted = true
			fmt.Println()
			break
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}

	if rec != nil {
		if err := rec.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		reg.Counter("trace/events").Add(int64(rec.Events()))
		if b, ok := rec.(*trace.Binary); ok {
			reg.Counter("trace/frames").Add(b.Frames())
			reg.Counter("trace/bytes").Add(b.BytesWritten())
		}
		fmt.Fprintf(os.Stderr, "trace: %d events (%s) -> %s\n", rec.Events(), *traceFmt, *traceFile)
	}
	if *cacheStats {
		st := opts.Checkpoint.Stats()
		fmt.Fprintf(os.Stderr,
			"checkpoint: %d hits, %d misses, %d stored, %d records in %s",
			st.Hits, st.Misses, st.Stores, st.Records, *checkpointDir)
		if st.Resumed {
			fmt.Fprintf(os.Stderr, " (resumed")
			if st.TornBytes > 0 {
				fmt.Fprintf(os.Stderr, ", dropped %d torn journal byte(s)", st.TornBytes)
			}
			fmt.Fprintf(os.Stderr, ")")
		}
		if st.Errors > 0 {
			fmt.Fprintf(os.Stderr, ", %d store error(s)", st.Errors)
		}
		fmt.Fprintln(os.Stderr)
	}
	if interrupted && opts.Checkpoint != nil {
		// Make the completed cells durable before reporting the interrupt;
		// a -resume run replays them and computes only the rest.
		if err := opts.Checkpoint.Sync(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}
	if *manifest != "" {
		ids := make([]string, len(selected))
		for i, e := range selected {
			ids[i] = e.ID
		}
		m := experiment.BuildManifest(ids, opts, report, time.Since(suiteStart))
		m.Interrupted = interrupted
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *memprofile != "" {
		if err := metrics.WriteHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if interrupted {
		msg := "experiments: interrupted; completed cells were flushed"
		if *checkpointDir != "" {
			msg += " (resume with -checkpoint " + *checkpointDir + " -resume)"
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(130)
	}
	if failures := report.Failures(); len(failures) > 0 {
		fmt.Printf("=== %d degraded cell(s) ===\n%s", len(failures), report)
		os.Exit(2)
	}
}

// runExperiment executes one experiment, converting the grid's Cancelled
// unwind (raised when the signal context fires) into a printable marker and
// an interrupted flag instead of a crash. Any other panic propagates.
func runExperiment(e experiment.Experiment, o experiment.Options) (out string, interrupted bool) {
	defer func() {
		if p := recover(); p != nil {
			c, ok := p.(experiment.Cancelled)
			if !ok {
				panic(p)
			}
			out = c.String()
			interrupted = true
		}
	}()
	return e.Run(o).String(), false
}

// progressUI renders the grid's serialised Progress stream as a single
// \r-refreshed stderr line per experiment, throttled so tight grids do not
// flood the terminal. The grid serialises callbacks, so no locking here.
type progressUI struct {
	out   *os.File
	start time.Time
	last  time.Time
}

func (p *progressUI) report(pr experiment.Progress) {
	now := time.Now()
	if pr.Done == 1 {
		p.start = now // new grid: restart the rate estimate
	}
	final := pr.Done == pr.Total
	if !final && now.Sub(p.last) < 200*time.Millisecond {
		return
	}
	p.last = now
	line := fmt.Sprintf("%s %d/%d cells", pr.Experiment, pr.Done, pr.Total)
	if pr.Failed > 0 {
		line += fmt.Sprintf(" (%d failed)", pr.Failed)
	}
	if !final && pr.Done > 0 {
		perCell := now.Sub(p.start) / time.Duration(pr.Done)
		eta := perCell * time.Duration(pr.Total-pr.Done)
		line += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
	}
	// Pad to blot out a longer previous line before the carriage return.
	fmt.Fprintf(p.out, "\r%-60s", line)
	if final {
		fmt.Fprintln(p.out)
	}
}
