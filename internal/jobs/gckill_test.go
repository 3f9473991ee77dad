package jobs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"udwn/internal/checkpoint"
	"udwn/internal/metrics"
)

// The GC kill matrix: every point during a retention sweep at which the
// on-disk state changes shape. The first four belong to the ledger half of
// the sweep, the last three to the checkpoint-store compaction. A SIGKILL
// landed at any of them must leave a restartable state directory that still
// holds every job retention wanted kept, byte-identical.
var gcKillStages = []string{
	"traces-removed",
	"ledger-temp-written",
	"ledger-renamed",
	"ledger-rewritten",
	"store-temp-written",
	"store-renamed",
	"store-compacted",
}

// gcKillOutput is the deterministic output the stub runner produces for a
// seed, shared by the victim and the restarted daemon so "byte-identical"
// is checkable across processes.
func gcKillOutput(seed uint64) string {
	return strings.Repeat(fmt.Sprintf("payload-%d ", seed), 256) + "\n"
}

// gcKillCompletingRunner is the restarted daemon's runner: identical output
// for any seed, and it completes gate jobs instead of blocking them.
func gcKillCompletingRunner(ctx context.Context, spec Spec, rc RunContext) (string, error) {
	return gcKillOutput(spec.Seed), nil
}

// gateSeed marks the kill tests' gate jobs: a spec with Seed ≥ gateSeed is
// one. The seed is journalled with the spec, so a restarted daemon tells
// the gate jobs apart too.
const gateSeed = 100

// gcKillRunner completes jobs with seed-keyed deterministic output, except
// gate jobs, which report on started and then block until the attempt
// context fires — a permanently non-terminal job from GC's point of view.
func gcKillRunner(started chan<- struct{}) Runner {
	return func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		if spec.Seed >= gateSeed {
			if started != nil {
				started <- struct{}{}
			}
			<-ctx.Done()
			return "", ctx.Err()
		}
		return gcKillOutput(spec.Seed), nil
	}
}

// The store records the victim plants: one the live gate job's experiment
// references (must survive compaction) and one nothing references (dropped
// once the compaction's rename commits).
func gcKillKeptRecord() checkpoint.Record {
	return checkpoint.Record{Experiment: "table1", Label: "row=0 seed=0", Schema: "v1", Value: []byte("kept")}
}
func gcKillStaleRecord() checkpoint.Record {
	return checkpoint.Record{Experiment: "stale-exp", Label: "row=0 seed=0", Schema: "v1", Value: []byte("stale")}
}

func keyOfRec(r checkpoint.Record) checkpoint.Key { return r.Key() }

// TestGCKillHelper is the victim: it builds a daemon with four terminal
// jobs (traces planted), one gated RUNNING job, and two checkpoint records,
// then starts a RetainCount=1 sweep with hooks armed so the process stalls
// — holding all its locks — exactly at the stage under test, signals the
// parent, and waits for the SIGKILL.
func TestGCKillHelper(t *testing.T) {
	if os.Getenv("JOBS_GCKILL_HELPER") != "1" {
		t.Skip("helper process for TestGCKillAtEveryStage")
	}
	dir := os.Getenv("JOBS_GCKILL_DIR")
	stage := os.Getenv("JOBS_GCKILL_STAGE")
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}

	started := make(chan struct{}, 1)
	srv, err := Open(Config{
		Dir: dir, Workers: 2, RetainCount: 1,
		Metrics: metrics.NewRegistry(),
		Runner:  gcKillRunner(started),
	})
	if err != nil {
		die(err)
	}
	for i := uint64(1); i <= 4; i++ {
		v, err := srv.Submit(Spec{Experiments: []string{"table1"}, Quick: true, Seed: i})
		if err != nil {
			die(err)
		}
		waitTerminal(t, srv, v.ID)
		// The stub runner writes no traces; plant what a real one would, so
		// the sweep's trace stage has files to unlink.
		if err := os.WriteFile(srv.tracePath(v.ID), []byte("trace "+v.ID), 0o644); err != nil {
			die(err)
		}
	}
	if _, err := srv.Submit(Spec{Experiments: []string{"table1"}, Quick: true, Seed: gateSeed}); err != nil {
		die(err)
	}
	<-started // the gate job is RUNNING: non-terminal throughout the sweep
	if err := srv.Store().Put(gcKillKeptRecord()); err != nil {
		die(err)
	}
	if err := srv.Store().Put(gcKillStaleRecord()); err != nil {
		die(err)
	}

	// Arm the hooks: reaching the target stage signals the parent and stalls
	// the sweep mid-flight (locks held) until the SIGKILL lands.
	stall := func() {
		if err := os.WriteFile(filepath.Join(dir, "stage-reached"), []byte(stage+"\n"), 0o644); err != nil {
			die(err)
		}
		select {} // killed here
	}
	gcTestHook = func(s string) {
		if s == stage {
			stall()
		}
	}
	checkpoint.RewriteTestHook = func(s checkpoint.RewriteStage, path string) {
		journal := "ledger"
		if filepath.Base(path) == "cells.journal" {
			journal = "store"
		}
		if journal+"-"+string(s) == stage {
			stall()
		}
	}
	srv.GC() // blocks in the armed hook; the parent kills us there
	fmt.Fprintln(os.Stderr, "helper: sweep finished without reaching stage", stage)
	os.Exit(1)
}

// TestGCKillAtEveryStage SIGKILLs a real daemon process at each stage of a
// retention sweep and asserts, per stage, that a restart over the same
// directory (a) opens cleanly, (b) still serves the retained job's output
// byte-identical, (c) resumes the non-terminal job, (d) kept checkpoint
// records survive compaction, (e) the id allocator never recycles a
// collected id, and (f) a follow-up sweep converges to the retained set.
func TestGCKillAtEveryStage(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill/restart matrix")
	}
	for _, stage := range gcKillStages {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestGCKillHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				"JOBS_GCKILL_HELPER=1", "JOBS_GCKILL_DIR="+dir, "JOBS_GCKILL_STAGE="+stage)
			var helperOut bytes.Buffer
			cmd.Stdout, cmd.Stderr = &helperOut, &helperOut
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer cmd.Process.Kill()
			reached := filepath.Join(dir, "stage-reached")
			deadline := time.Now().Add(60 * time.Second)
			for {
				if _, err := os.Stat(reached); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("helper never reached stage %s:\n%s", stage, helperOut.String())
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err := cmd.Process.Kill(); err != nil { // SIGKILL mid-sweep
				t.Fatal(err)
			}
			cmd.Wait()

			// Restart over the wreckage. Same runner logic, minus the gate:
			// the resumed job must now complete.
			reg := metrics.NewRegistry()
			srv, err := Open(Config{
				Dir: dir, Workers: 2, RetainCount: 1, Metrics: reg,
				Runner: gcKillCompletingRunner,
			})
			if err != nil {
				t.Fatalf("restart after kill at %s: %v\n%s", stage, err, helperOut.String())
			}
			defer func() { srv.Drain(); srv.Close() }()

			// The ledger is old-or-new, never torn: before the rename commits
			// all five jobs replay; after it, the retained one plus the
			// resumable one.
			ledgerRenamed := stage != "traces-removed" && stage != "ledger-temp-written"
			wantJobs := 5
			if ledgerRenamed {
				wantJobs = 2
			}
			views := srv.List()
			if len(views) != wantJobs {
				t.Fatalf("kill at %s: replay found %d jobs, want %d (ledger renamed: %v)\n%v",
					stage, len(views), wantJobs, ledgerRenamed, views)
			}

			// Every surviving terminal job — and above all the retained
			// newest one — serves byte-identical output.
			sawRetained, sawGate := false, ""
			for _, v := range views {
				if v.Spec.Seed >= gateSeed {
					sawGate = v.ID
					continue
				}
				out, state, err := srv.Result(v.ID)
				if err != nil || state != StateDone {
					t.Fatalf("kill at %s: job %s unservable: %v %s", stage, v.ID, err, state)
				}
				if want := gcKillOutput(v.Spec.Seed); out != want {
					t.Fatalf("kill at %s: job %s output diverged after restart", stage, v.ID)
				}
				if v.Spec.Seed == 4 {
					sawRetained = true
				}
			}
			if !sawRetained {
				t.Fatalf("kill at %s lost the retained job (seed 4)", stage)
			}
			if sawGate == "" {
				t.Fatalf("kill at %s lost the non-terminal job", stage)
			}
			if final := waitTerminal(t, srv, sawGate); final.State != StateDone {
				t.Fatalf("resumed job finished %s (%s)", final.State, final.Error)
			}

			// The record a resumable job references must survive every crash
			// point; the unreferenced one is gone once the store rename is
			// durable.
			if _, ok := srv.Store().Lookup(keyOfRec(gcKillKeptRecord())); !ok {
				t.Fatalf("kill at %s dropped a checkpoint record a live job references", stage)
			}
			if stage == "store-renamed" || stage == "store-compacted" {
				if _, ok := srv.Store().Lookup(keyOfRec(gcKillStaleRecord())); ok {
					t.Fatalf("kill at %s: unreferenced record survived a durable compaction", stage)
				}
			}

			// The allocator must never recycle an id, whichever ledger
			// generation survived (the old one replays five submits; the new
			// one opens with the seq pin).
			v, err := srv.Submit(Spec{Experiments: []string{"table1"}, Quick: true, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if v.ID != "j-000006" {
				t.Fatalf("kill at %s: allocator issued %s, want j-000006", stage, v.ID)
			}
			waitTerminal(t, srv, v.ID)

			// A follow-up sweep on the restarted daemon converges: only the
			// newest terminal job plus nothing non-terminal remains.
			if _, err := srv.GC(); err != nil {
				t.Fatalf("post-restart sweep: %v", err)
			}
			if got := len(srv.List()); got != 1 {
				t.Fatalf("kill at %s: post-restart sweep left %d jobs, want 1", stage, got)
			}
		})
	}
}

// TestRetentionBoundsStateDir is the soak acceptance test: a daemon that
// runs many jobs past retention — sweeping as it goes — must keep its state
// directory within a byte budget, and a SIGKILL + restart must still serve
// every unretained (kept) job byte-identical and resume every acknowledged
// non-terminal job.
func TestRetentionBoundsStateDir(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill/restart soak")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestGCSoakHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "JOBS_GCSOAK_HELPER=1", "JOBS_GCSOAK_DIR="+dir)
	var helperOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &helperOut, &helperOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	ready := filepath.Join(dir, "ready")
	deadline := time.Now().Add(120 * time.Second)
	for {
		if _, err := os.Stat(ready); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("soak helper never finished its batches:\n%s", helperOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// 30 jobs × ~2.8 KiB of output flowed through the daemon (~90 KiB of
	// ledger had nothing been collected); with RetainCount=3 the state dir
	// must hold only the retained tail plus framing.
	const budget = 24 * 1024
	if size := dirSize(t, dir); size > budget {
		t.Fatalf("state dir is %d bytes after the soak, budget %d\n%s", size, budget, helperOut.String())
	}

	// Restart: the retained jobs (the 3 newest terminal ones) serve
	// byte-identical output, the parked non-terminal jobs resume and finish.
	// The resumed gate jobs are held until the listing is taken, so it sees
	// them as the non-terminal jobs the kill left behind.
	reg := metrics.NewRegistry()
	release := make(chan struct{})
	held := func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		if spec.Seed >= gateSeed {
			select {
			case <-release:
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
		return gcKillCompletingRunner(ctx, spec, rc)
	}
	srv, err := Open(Config{Dir: dir, Workers: 2, RetainCount: 3, Metrics: reg, Runner: held})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Drain(); srv.Close() }()
	views := srv.List()
	close(release)
	terminal, resumed := 0, 0
	for _, v := range views {
		if v.State.Terminal() {
			out, state, err := srv.Result(v.ID)
			if err != nil || state != StateDone {
				t.Fatalf("retained job %s unservable: %v %s", v.ID, err, state)
			}
			if out != gcKillOutput(v.Spec.Seed) {
				t.Fatalf("retained job %s output diverged across the kill", v.ID)
			}
			terminal++
			continue
		}
		if final := waitTerminal(t, srv, v.ID); final.State != StateDone {
			t.Fatalf("resumed job %s finished %s (%s)", v.ID, final.State, final.Error)
		}
		resumed++
	}
	if terminal != 3 {
		t.Fatalf("%d terminal jobs survived the soak, want the 3 retained", terminal)
	}
	if resumed != 4 {
		t.Fatalf("%d acknowledged non-terminal jobs resumed, want 4", resumed)
	}
	if got := reg.CounterValue("jobs/resumed"); got != 4 {
		t.Fatalf("jobs/resumed = %d, want 4", got)
	}
}

// TestGCSoakHelper is the soak victim: 30 jobs past a RetainCount=3 policy
// with periodic sweeps, then 4 acknowledged-but-queued jobs, then SIGKILL.
func TestGCSoakHelper(t *testing.T) {
	if os.Getenv("JOBS_GCSOAK_HELPER") != "1" {
		t.Skip("helper process for TestRetentionBoundsStateDir")
	}
	dir := os.Getenv("JOBS_GCSOAK_DIR")
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	srv, err := Open(Config{
		Dir: dir, Workers: 2, RetainCount: 3,
		Metrics: metrics.NewRegistry(), Runner: gcKillRunner(nil),
	})
	if err != nil {
		die(err)
	}
	for i := uint64(1); i <= 30; i++ {
		v, err := srv.Submit(Spec{Experiments: []string{"table1"}, Quick: true, Seed: i})
		if err != nil {
			die(err)
		}
		waitTerminal(t, srv, v.ID)
		if i%5 == 0 {
			if _, err := srv.GC(); err != nil {
				die(err)
			}
		}
	}
	// Acknowledge four jobs that will still be queued or gated when the kill
	// lands; the restart must resume all of them.
	for i := uint64(gateSeed); i < gateSeed+4; i++ {
		if _, err := srv.Submit(Spec{Experiments: []string{"table1"}, Quick: true, Seed: i}); err != nil {
			die(err)
		}
	}
	if _, err := srv.GC(); err != nil {
		die(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ready"), []byte("ok\n"), 0o644); err != nil {
		die(err)
	}
	for {
		time.Sleep(time.Hour) // run until SIGKILLed
	}
}

// dirSize walks the state directory, totalling regular files.
func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}
