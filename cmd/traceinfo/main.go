// Command traceinfo is the streaming analytics tool over slot traces
// produced with `dissem -trace` or `experiments -trace`, in either format
// (JSONL or the compact framed binary of internal/trace — the format is
// sniffed from the file's first bytes). It folds the trace through
// trace.Analyzer one event at a time, so memory stays bounded by node and
// bucket counts, never by trace length: per-node first-decode latency
// percentiles, the contention distribution, a transmissions timeline,
// fault-event correlation and the busiest transmitters.
//
// With -query the analysis is restricted to the events a trace query
// selects (the internal/trace grammar, e.g. 'node=3&tick=100-200&decodes');
// over an indexed binary trace the planner seeks past non-matching frames
// and reports how much of the file it skipped. -slice additionally writes
// the selected events as a valid sub-trace (binary by default, or
// -slice-format jsonl). With -counters it renders aggregate sensing and
// decode counters instead of the analytics report. With -checkpoint DIR it
// inspects an experiment checkpoint store instead of a trace.
//
// Usage:
//
//	traceinfo [-buckets N] [-top K] [-counters] [-allow-torn]
//	          [-query EXPR] [-slice OUT [-slice-format binary|jsonl]] run.trace
//	traceinfo -checkpoint DIR
//
// A binary trace with a torn tail (a run killed mid-write) is decoded up to
// the longest valid frame prefix; traceinfo reports the truncation and
// exits non-zero unless -allow-torn accepts the recovered prefix. An empty
// or header-only file is a distinct, clearly reported error, and a binary
// trace written under a different event schema fails fast instead of
// mis-decoding.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"udwn/internal/checkpoint"
	"udwn/internal/metrics"
	"udwn/internal/sim"
	"udwn/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}
}

func run() error {
	buckets := flag.Int("buckets", 10, "number of time buckets in the transmissions timeline")
	top := flag.Int("top", 5, "how many of the busiest transmitters to list (negative = none)")
	counters := flag.Bool("counters", false, "render aggregate sensing/decode counters instead of the analytics report")
	checkpointDir := flag.String("checkpoint", "", "inspect an experiment checkpoint store directory instead of a trace")
	query := flag.String("query", "", "restrict to events matching a trace query, e.g. 'node=3&tick=100-200'")
	slicePath := flag.String("slice", "", "write the selected events as a valid sub-trace to this file")
	sliceFormat := flag.String("slice-format", "binary", "sub-trace format for -slice: binary or jsonl")
	allowTorn := flag.Bool("allow-torn", false, "accept a torn trace: analyze the recovered prefix and exit 0")
	flag.Parse()
	if *checkpointDir != "" {
		if flag.NArg() != 0 {
			return fmt.Errorf("usage: traceinfo -checkpoint DIR (no trace file)")
		}
		return reportCheckpoint(os.Stdout, *checkpointDir)
	}
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: traceinfo [-buckets N] [-top K] [-counters] [-query EXPR] [-slice OUT] <trace file>")
	}
	pred, err := trace.ParseQuery(*query)
	if err != nil {
		return err
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()

	a := trace.NewAnalyzer()
	a.Buckets = *buckets
	a.Top = *top
	tallies := metrics.NewCounters()
	observe := func(ev sim.SlotEvent) {
		if *counters {
			countEvent(tallies, ev)
		} else {
			a.Observe(ev)
		}
	}

	var torn bool
	var decoded int
	if *query != "" || *slicePath != "" {
		var slicer trace.Writer
		var sliceFile *os.File
		if *slicePath != "" {
			format, err := trace.ParseFormat(*sliceFormat)
			if err != nil {
				return err
			}
			sliceFile, err = os.Create(*slicePath)
			if err != nil {
				return err
			}
			defer sliceFile.Close()
			if slicer, err = trace.NewWriter(sliceFile, format); err != nil {
				return err
			}
		}
		st, err := trace.Query(f, pred, func(ev sim.SlotEvent) error {
			if slicer != nil {
				slicer.Record(ev)
			}
			observe(ev)
			return nil
		})
		if err != nil {
			return describeTraceErr(err)
		}
		mode := "indexed"
		if st.FullScan {
			mode = "full scan"
		}
		expr := pred.String()
		if expr == "" {
			expr = "(all)"
		}
		fmt.Printf("query: %s (%s)\n", expr, mode)
		fmt.Printf("selected %d event(s); scanned %d frame(s)/%d byte(s), skipped %d frame(s)/%d byte(s)\n",
			st.EventsMatched, st.FramesScanned, st.BytesScanned, st.FramesSkipped, st.BytesSkipped)
		if slicer != nil {
			if err := slicer.Flush(); err != nil {
				return err
			}
			if err := sliceFile.Close(); err != nil {
				return err
			}
			fmt.Printf("slice: wrote %d event(s) to %s (%s)\n", slicer.Events(), *slicePath, *sliceFormat)
		}
		torn = st.Truncated
		decoded = int(st.EventsMatched)
	} else {
		events, format, err := trace.Open(f)
		if err != nil {
			return describeTraceErr(err)
		}
		for {
			ev, err := events.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			observe(ev)
		}
		fmt.Printf("format: %s\n", format)
		if br, ok := events.(*trace.Reader); ok && br.Truncated() {
			torn = true
			decoded = br.Decoded()
		}
	}

	if torn {
		fmt.Printf("recovered: trace has a torn tail; decoded the longest valid prefix (%d events)\n", decoded)
		if !*allowTorn {
			return errors.New("trace has a torn tail (the writer was killed mid-frame); re-run with -allow-torn to accept the recovered prefix")
		}
	}
	if *counters {
		reportCounters(os.Stdout, tallies)
		return nil
	}
	a.Report(os.Stdout)
	return nil
}

// describeTraceErr turns the trace layer's typed open errors into actionable
// messages; anything else passes through.
func describeTraceErr(err error) error {
	switch {
	case errors.Is(err, trace.ErrEmptyTrace):
		return fmt.Errorf("%w — the file has no bytes; the recording run likely never started", err)
	case errors.Is(err, trace.ErrHeaderOnly):
		return fmt.Errorf("%w — only the 12-byte header was written; the run died before flushing any frame", err)
	case errors.Is(err, trace.ErrTruncatedHeader):
		return fmt.Errorf("%w — the file ends inside the file header; the write was torn at creation", err)
	}
	return err
}

// reportCheckpoint summarises a cell-result store: record counts per
// experiment, payload volume, journal health and the order-independent
// content hash. Opening runs the store's normal recovery, so a torn tail
// left by a killed run is repaired (and reported) exactly as -resume would.
func reportCheckpoint(w *os.File, dir string) error {
	store, err := checkpoint.Resume(dir)
	if err != nil {
		return err
	}
	defer store.Close()

	perExp := map[string]int{}
	var order []string
	var payload int64
	store.Each(func(rec *checkpoint.Record) {
		if _, seen := perExp[rec.Experiment]; !seen {
			order = append(order, rec.Experiment)
		}
		perExp[rec.Experiment]++
		payload += int64(len(rec.Value) + len(rec.Metrics))
	})

	st := store.Stats()
	fmt.Fprintf(w, "checkpoint store %s: %d record(s), %d payload byte(s)\n",
		dir, st.Records, payload)
	if st.TornBytes > 0 {
		fmt.Fprintf(w, "recovered: dropped %d torn journal byte(s)\n", st.TornBytes)
	}
	for _, id := range order {
		fmt.Fprintf(w, "  %-10s %5d cell(s)\n", id, perExp[id])
	}
	fmt.Fprintf(w, "store hash: %s\n", store.Hash())
	return nil
}

// countEvent streams one slot event's tallies into the same named counters
// the simulator's metrics registry records live (sim/tx, sim/decodes,
// sensing outcomes). Recorded traces hold no silent slots (LockedObserver
// drops them), so sim/slots counts *active* slots here, not total ticks.
func countEvent(c *metrics.Counters, ev sim.SlotEvent) {
	c.Add("sim/slots", 1)
	c.Add("sim/tx", int64(len(ev.Transmitters)))
	c.Add("sim/decodes", int64(ev.Decodes))
	c.Add("sim/mass_deliveries", int64(len(ev.MassDeliverers)))
	c.Add("sim/cd_busy", int64(ev.CDBusy))
	c.Add("sim/cd_idle", int64(ev.CDIdle))
	c.Add("sim/ack", int64(ev.Acks))
	c.Add("sim/ntd", int64(ev.NTDs))
	c.Add("sim/seized_tx", int64(ev.Seized))
}

// reportCounters renders the accumulated tallies in the format of a
// -manifest metric snapshot.
func reportCounters(w *os.File, c *metrics.Counters) {
	for _, name := range c.Names() {
		fmt.Fprintf(w, "counter %s = %d\n", name, c.Get(name))
	}
}
