// Command tesa-server runs the TESA design-space-exploration engines as
// a long-lived HTTP service. Clients POST versioned jobspec documents
// (see internal/jobspec) to /v1/jobs and get a job id back; results,
// status, and Server-Sent-Events progress streams hang off the id:
//
//	POST   /v1/jobs            submit a spec → 202 + {"id": ...}
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}        status, result once done
//	GET    /v1/jobs/{id}/events SSE progress stream
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz             liveness, drain state, pool tallies
//	GET    /readyz              readiness: 503 once draining
//
// Usage:
//
//	tesa-server [-addr :8080] [-workers 2] [-queue 64]
//	            [-job-deadline 0] [-base-dir .] [-drain-timeout 30s]
//	            [-memo-dir .tesa-memo]
//	            [-metrics] [-trace out.jsonl]
//	            [-metrics-addr addr] [-manifest run.jsonl]
//
// Every job in the process shares one content-addressed memo store, so
// overlapping requests reuse each other's systolic profiles, schedules,
// and whole evaluations: the service gets faster as it serves. Results
// stay bit-identical to single-shot CLI runs of the same spec — memo
// sharing changes wall-clock time, never numbers. -memo-dir persists
// the store across restarts. Each optimize job and weights front
// anneals its chains on max(1, GOMAXPROCS/-workers) goroutines, so
// concurrent jobs share the cores; the pool width never changes a
// result.
//
// -metrics-addr serves the shared observability surface (/metrics
// Prometheus text, /debug/vars, /progress, /debug/pprof) for the whole
// process, including tesa_serve_* job counters and latency histograms.
//
// The listening line on stdout names the bound address, so -addr
// 127.0.0.1:0 picks a free port. On SIGINT/SIGTERM the server drains:
// submissions are refused with 503, queued and running jobs are
// canceled, the memo cache and run manifest flush, and the process
// exits 0. A drain that exceeds -drain-timeout exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tesa/internal/cli"
	"tesa/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run serves the job API until ctx is canceled, then drains, and
// returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("tesa-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", ":8080", "job API listen address")
		workers = fs.Int("workers", 2, "concurrent job executors")
		queue   = fs.Int("queue", 64, "accepted-but-unstarted job capacity (full = 429)")
		jobDL   = fs.Duration("job-deadline", 0, "default per-job deadline for specs without deadline_sec (0 = none)")
		baseDir = fs.String("base-dir", "", "directory anchoring relative workload_file paths in specs (default: cwd)")
		drainTO = fs.Duration("drain-timeout", 30*time.Second, "maximum time to wait for jobs to wind down on shutdown")
		obs     = cli.ObservabilityFlags(fs)
		mf      = cli.MemoFlagsRegister(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has reported the error
	}

	sess, err := obs.Setup("tesa-server", args, stdout)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// fail ends a run that could not start serving.
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		sess.Finish("error")
		return 1
	}
	// The whole point of the service is cross-request warmth: every job
	// shares the run's memo store, -memo-dir adds persistence across
	// restarts.
	store, memoDone, err := mf.Store()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := memoDone(); err != nil {
			fmt.Fprintln(stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	srv := server.New(server.Config{
		Workers:         *workers,
		Queue:           *queue,
		Store:           store,
		Tel:             sess.Tel,
		DefaultDeadline: *jobDL,
		BaseDir:         *baseDir,
	})
	hs := &http.Server{Handler: srv.Handler()}

	sess.Manifest.Set("addr", ln.Addr().String())
	sess.Manifest.Set("workers", *workers)
	sess.Manifest.Set("queue", *queue)

	fmt.Fprintf(stdout, "tesa-server: listening on %s (%d workers, queue %d)\n", ln.Addr(), *workers, *queue)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	status := "ok"
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, err)
			status, code = "error", 1
		}
	case <-ctx.Done():
		fmt.Fprintln(stdout, "tesa-server: interrupted, draining")
		dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		if err := srv.Drain(dctx); err != nil {
			fmt.Fprintln(stderr, err)
			status, code = "drain-timeout", 1
		}
		if err := hs.Shutdown(dctx); err != nil {
			fmt.Fprintln(stderr, err)
			if code == 0 {
				status, code = "shutdown-timeout", 1
			}
		}
		cancel()
		if code == 0 {
			status = "drained"
		}
	}

	if obs.Metrics {
		fmt.Fprintf(stdout, "memo: %+v\n", store.Stats().KindStats)
	}
	sess.Finish(status)
	return code
}
