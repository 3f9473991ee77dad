package jobs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"udwn/internal/checkpoint"
	"udwn/internal/experiment"
	"udwn/internal/metrics"
)

// killSpecs are four concurrent jobs over four distinct experiments, so
// their checkpoint keys are disjoint and "cells computed" attributes
// cleanly per run.
func killSpecs() []Spec {
	return []Spec{
		{Experiments: []string{"table1"}, Quick: true, Seeds: 1},
		{Experiments: []string{"table2"}, Quick: true, Seeds: 1},
		{Experiments: []string{"table3"}, Quick: true, Seeds: 1},
		{Experiments: []string{"figure1"}, Quick: true, Seeds: 1},
	}
}

// stallAfterFirstCell wraps the production runner for the kill/restart
// victim: each attempt forwards grid progress until its first committed
// cell, reports on committed, then blocks in the progress callback until
// the process dies. The grid reports a cell only after storing it, so the
// cell is already in the journal when the attempt reports.
func stallAfterFirstCell(committed chan<- struct{}) Runner {
	inner := ExperimentRunner(2)
	return func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		forward := rc.Progress
		rc.Progress = func(p experiment.Progress) {
			if forward != nil {
				forward(p)
			}
			if p.Done > p.Failed {
				committed <- struct{}{}
				select {} // killed here
			}
		}
		return inner(ctx, spec, rc)
	}
}

// TestKillRestartHelper is the victim process of the SIGKILL differential
// test: it opens a real daemon over the directory the parent provides,
// submits four concurrent jobs, signals readiness once every job has
// committed a cell and stalled, and waits to be killed. Only meaningful when
// re-executed by TestKillRestartResumesByteIdentical.
func TestKillRestartHelper(t *testing.T) {
	if os.Getenv("JOBS_KILL_HELPER") != "1" {
		t.Skip("helper process for TestKillRestartResumesByteIdentical")
	}
	dir := os.Getenv("JOBS_KILL_DIR")
	committed := make(chan struct{})
	srv, err := Open(Config{Dir: dir, Workers: 4, GridWorkers: 2, Runner: stallAfterFirstCell(committed)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	for _, sp := range killSpecs() {
		if _, err := srv.Submit(sp); err != nil {
			fmt.Fprintln(os.Stderr, "helper submit:", err)
			os.Exit(1)
		}
	}
	for range killSpecs() {
		<-committed
	}
	if err := os.WriteFile(filepath.Join(dir, "ready"), []byte("ok\n"), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	for {
		time.Sleep(time.Hour) // run until SIGKILLed
	}
}

// TestKillRestartResumesByteIdentical is the acceptance test for crash-safe
// resume: a real daemon process with four concurrent jobs is SIGKILLed
// mid-grid, while every job is non-terminal with at least one committed
// cell; a new daemon over the same directory must (a) re-queue every
// non-terminal job, (b) finish them with zero recompute — every grid cell
// is computed exactly once across both processes, asserted from the
// checkpoint store's counters — and (c) produce output byte-identical to an
// uninterrupted daemon running the same submissions.
func TestKillRestartResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill/restart test")
	}
	dir := t.TempDir()

	// Phase 1: run the victim and SIGKILL it once every job has committed
	// a cell and stalled.
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillRestartHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "JOBS_KILL_HELPER=1", "JOBS_KILL_DIR="+dir)
	var helperOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &helperOut, &helperOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	journal := filepath.Join(dir, "cells", "cells.journal")
	ready := filepath.Join(dir, "ready")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ready); err == nil {
			if fi, err := os.Stat(journal); err == nil && fi.Size() > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("helper never started committing cells:\n%s", helperOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	cmd.Wait()

	// What did the dead process leave behind? (Recovery may drop a torn
	// tail; that is part of the contract under test.)
	probe, err := checkpoint.Resume(filepath.Join(dir, "cells"))
	if err != nil {
		t.Fatal(err)
	}
	run1Cells := probe.Stats().Records
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	if run1Cells == 0 {
		t.Log("torn tail swallowed the only committed cell; resume still exercises the journal replay")
	}

	// Phase 2: restart over the same directory and let everything finish.
	reg := metrics.NewRegistry()
	srv, err := Open(Config{Dir: dir, Workers: 4, GridWorkers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if resumed := reg.CounterValue("jobs/resumed"); resumed == 0 {
		t.Fatalf("no job resumed; the kill landed after everything finished?\n%s", helperOut.String())
	}
	views := srv.List()
	if len(views) != len(killSpecs()) {
		t.Fatalf("journal replay found %d jobs, want %d", len(views), len(killSpecs()))
	}
	resumedOut := make([]string, len(views))
	for i, v := range views {
		final := waitTerminal(t, srv, v.ID)
		if final.State != StateDone {
			t.Fatalf("job %s finished %s (%s), want DONE", v.ID, final.State, final.Error)
		}
		out, _, err := srv.Result(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		resumedOut[i] = out
	}
	stats := srv.Store().Stats()
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// Zero recompute: cells committed before the kill plus cells computed
	// after the restart must equal the distinct cells of the whole
	// workload — a recomputed cell would append a duplicate Put and break
	// the balance.
	if stats.Stores+int64(run1Cells) != int64(stats.Records) {
		t.Fatalf("recompute detected: run1 committed %d, run2 stored %d, but the workload has %d distinct cells",
			run1Cells, stats.Stores, stats.Records)
	}
	if run1Cells > 0 && stats.Hits == 0 {
		t.Fatalf("run2 replayed nothing despite %d committed cells", run1Cells)
	}

	// Phase 3: differential reference — an uninterrupted daemon over a
	// fresh directory must produce byte-identical outputs.
	refReg := metrics.NewRegistry()
	ref, err := Open(Config{Dir: t.TempDir(), Workers: 4, GridWorkers: 2, Metrics: refReg})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refIDs := make([]string, 0, len(killSpecs()))
	for _, sp := range killSpecs() {
		v, err := ref.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		refIDs = append(refIDs, v.ID)
	}
	for i, id := range refIDs {
		final := waitTerminal(t, ref, id)
		if final.State != StateDone {
			t.Fatalf("reference job %s finished %s (%s)", id, final.State, final.Error)
		}
		out, _, err := ref.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if out != resumedOut[i] {
			t.Fatalf("job %d diverged after kill/restart:\n--- resumed ---\n%s\n--- reference ---\n%s",
				i, resumedOut[i], out)
		}
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
}
