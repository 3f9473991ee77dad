// Command udwnd is the sim-as-a-service daemon: it serves the experiment
// registry over HTTP/JSON with a supervised job pool, load shedding,
// graceful drain on SIGTERM/SIGINT, and crash-safe resume from its state
// directory (job journal + shared checkpoint store).
//
// Usage:
//
//	udwnd -dir state/ -addr :8080 -workers 2
//
// Submit work and watch it:
//
//	curl -s localhost:8080/jobs -d '{"experiments":["table1"],"quick":true,"trace":true}'
//	curl -N localhost:8080/jobs/j-000001/events
//	curl -s localhost:8080/jobs/j-000001/result
//
// Introspect the pool and query a traced job's recorded events (the
// internal/trace query grammar; stats come back as X-Trace-* headers):
//
//	curl -s localhost:8080/statusz
//	curl -s 'localhost:8080/jobs/j-000001/trace?query=node=3&tick=100-200&format=jsonl'
//
// Durable state is bounded: -retain-age/-retain-count/-retain-bytes set the
// retention policy a background sweeper (period -gc-interval, or POST /gc on
// demand) enforces by collecting terminal jobs, unlinking their traces and
// atomically compacting both journals:
//
//	udwnd -dir state/ -retain-age 24h -retain-count 1000
//	curl -s -XPOST localhost:8080/gc
//
// On SIGTERM the daemon stops accepting (readyz flips to 503), lets running
// jobs finish for -drain-grace, cancels the stragglers' grids (finished
// cells stay checkpointed; the jobs re-queue under a fresh deadline), and
// flushes the journals and exits 0. kill -9 loses nothing accepted: restart
// over the same -dir resumes. A job runs once: one that fails or overruns
// -deadline is FAILED, and resubmitting its spec computes only the rest.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"udwn/internal/jobs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		dir         = flag.String("dir", "udwnd-state", "state directory (job journal + checkpoint store)")
		workers     = flag.Int("workers", 2, "concurrent jobs")
		gridWorkers = flag.Int("grid-workers", 1, "concurrent cells per job grid")
		queueDepth  = flag.Int("queue-depth", 64, "max queued jobs before shedding")
		maxWeight   = flag.Int("max-weight", 512, "max in-flight cell weight before shedding")
		deadline    = flag.Duration("deadline", 2*time.Minute, "default deadline of a job's run")
		drainGrace  = flag.Duration("drain-grace", 5*time.Second, "time running jobs get to finish during drain")

		retainAge   = flag.Duration("retain-age", 0, "collect terminal jobs older than this (0 = keep forever)")
		retainCount = flag.Int("retain-count", 0, "keep at most this many terminal jobs (0 = unlimited)")
		retainBytes = flag.Int64("retain-bytes", 0, "state-dir byte budget enforced by collecting oldest terminal jobs (0 = unlimited)")
		gcInterval  = flag.Duration("gc-interval", 0, "background GC period (0 = on demand; defaults to 1m when retention is set)")
	)
	flag.Parse()

	srv, err := jobs.Open(jobs.Config{
		Dir:             *dir,
		Workers:         *workers,
		GridWorkers:     *gridWorkers,
		QueueDepth:      *queueDepth,
		MaxWeight:       *maxWeight,
		DefaultDeadline: *deadline,
		DrainGrace:      *drainGrace,
		RetainAge:       *retainAge,
		RetainCount:     *retainCount,
		RetainBytes:     *retainBytes,
		GCInterval:      *gcInterval,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "udwnd:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "udwnd:", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "udwnd: listening on %s, state in %s\n", ln.Addr(), *dir)

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "udwnd: %s: draining (grace %s)\n", sig, *drainGrace)
	case err := <-httpDone:
		fmt.Fprintln(os.Stderr, "udwnd:", err)
		srv.Drain()
		srv.Close()
		return 1
	}

	// Graceful drain: finish or park every in-flight job, flush journals,
	// then stop the listener and exit 0. A second signal aborts immediately.
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "udwnd: second signal, aborting")
		os.Exit(1)
	}()
	code := 0
	if err := srv.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "udwnd: drain:", err)
		code = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "udwnd: close:", err)
		code = 1
	}
	fmt.Fprintln(os.Stderr, "udwnd: drained, exiting")
	return code
}
