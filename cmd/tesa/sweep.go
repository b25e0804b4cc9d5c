package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tesa"
	"tesa/internal/cli"
	"tesa/internal/distrib"
	"tesa/internal/faults"
	"tesa/internal/jobspec"
)

// sweepCmd is `tesa sweep`: the exhaustive sweep of a design space,
// checked against the multi-start annealer (Sec. IV-A), locally or as a
// distributed coordinator or worker.
func sweepCmd(c *command) func(ctx context.Context) error {
	f := c.jobFlags(15, 85, 32, true)
	full := c.fs.Bool("full", false, "sweep the full Table II space instead of the validation space")
	shard := c.fs.Int("shard", 0, "points per sweep shard (0 = automatic)")
	c.operational(true)
	ckptPath := c.fs.String("checkpoint", "", "append sweep checkpoint records to this JSONL file")
	resumePath := c.fs.String("resume", "", "resume the sweep from this checkpoint file")
	coordinate := c.fs.String("coordinate", "", "serve a distributed sweep coordinator on this address (requires -job)")
	workerURL := c.fs.String("worker", "", "join the distributed sweep coordinator at this base URL as a worker")
	workerName := c.fs.String("worker-name", "", "worker identity reported to the coordinator (default: generated)")
	leaseTTL := c.fs.Duration("lease-ttl", 10*time.Second, "coordinator: heartbeat deadline before a worker's leases are stolen")
	leaseShards := c.fs.Int("lease-shards", 4, "coordinator: maximum contiguous shards granted per lease request")
	verifyFrac := c.fs.Float64("verify-frac", 0.1, "coordinator: fraction of reported shards spot re-executed (negative = off)")

	return func(ctx context.Context) error {
		if *workerURL != "" {
			if *c.jobPath != "" || *coordinate != "" {
				return usageError{errors.New("-worker conflicts with -job and -coordinate: workers fetch the spec from the coordinator")}
			}
			if err := c.start(nil); err != nil {
				return err
			}
			return c.runWorker(ctx, *workerURL, *workerName, *f.faults)
		}
		if *coordinate != "" && *c.jobPath == "" {
			return usageError{errors.New("-coordinate requires -job: the spec is what workers execute")}
		}
		r, err := c.resolve(func() (*jobspec.Spec, error) {
			s := f.spec(jobspec.KindSweep)
			if *full {
				s.Space = &jobspec.Space{Preset: "default"}
			}
			s.Sweep = &jobspec.Sweep{ShardSize: *shard}
			return s, nil
		})
		if err != nil {
			return err
		}
		// The deadline bounds both the sweep and the annealer run.
		if r.Deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, r.Deadline)
			defer cancel()
		}
		if err := c.start(r); err != nil {
			return err
		}
		if *coordinate != "" {
			return c.runCoordinator(ctx, coordinateConfig{
				addr:        *coordinate,
				ckptPath:    *ckptPath,
				resumePath:  *resumePath,
				leaseTTL:    *leaseTTL,
				leaseShards: *leaseShards,
				verifyFrac:  *verifyFrac,
			})
		}
		return c.sweepLocal(ctx, r, *ckptPath, *resumePath)
	}
}

// sweepLocal runs the single-process sweep, then the annealer over the
// memo store the sweep filled, and reports whether they agree.
func (c *command) sweepLocal(ctx context.Context, r *jobspec.Resolved, ckptPath, resumePath string) error {
	rt := c.runtime()
	// The manifest's run id in the checkpoint header joins the checkpoint
	// to the manifest and trace records of the run that wrote it.
	rt.RunID = c.sess.Manifest.RunID()
	var err error
	if rt.Resume, err = c.loadCheckpoint(resumePath); err != nil {
		return err
	}
	var sink *tesa.FileSink
	if ckptPath != "" {
		// FileSink creates the checkpoint via temp-file + rename and
		// fsyncs every record, so a SIGKILL tears at most the final line,
		// which LoadCheckpoint tolerates.
		if sink, err = tesa.NewFileSink(ckptPath); err != nil {
			return err
		}
		rt.Checkpoint = sink
	}
	p := func(format string, args ...any) { fmt.Fprintf(c.stdout, format, args...) }
	p("exhaustive sweep: %d design vectors (%s, %.0f MHz, %.0f fps, %.0f C)\n",
		r.Space.Size(), r.Opts.Tech, r.Opts.FreqHz/1e6, r.Cons.FPS, r.Cons.TempBudgetC)
	start := time.Now()
	out, err := c.execute(ctx, r, rt)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && ckptPath != "" {
			fmt.Fprintf(c.stderr, "resume with: tesa sweep -resume %s -checkpoint %s [same flags]\n", ckptPath, ckptPath)
		}
		return err
	}
	ex := out.Sweep
	p("  %d feasible of %d (%.1f%%), %.1fs", ex.Feasible, ex.Total,
		100*float64(ex.Feasible)/float64(ex.Total), time.Since(start).Seconds())
	if ex.Resumed > 0 {
		p(" (%d points evaluated, %d resumed)", ex.Evaluated, ex.Resumed)
	}
	p("\n")
	cli.FailureSummary(c.stdout, ex.Poisoned)
	if ex.Best != nil {
		p("  global optimum: %v, %v grid, objective %.4f\n", ex.Best.Point, ex.Best.Mesh, ex.Best.Objective)
	} else {
		p("  no feasible configuration in this space\n")
	}

	// The annealer runs the same job as an optimize job on the same
	// store: its evaluations are served from the sweep's results.
	anneal := *r
	anneal.Kind = jobspec.KindOptimize
	start = time.Now()
	if out, err = c.execute(ctx, &anneal, c.runtime()); err != nil {
		return err
	}
	op := out.Optimize
	p("\nmulti-start annealer: explored %d points (%.1f%% of the space, %.1f%% cache hits), %.1fs\n",
		op.Explored, 100*float64(op.Explored)/float64(r.Space.Size()), 100*op.CacheHitRate, time.Since(start).Seconds())
	var verdict error
	switch {
	case !op.Found && ex.Best == nil:
		p("  agreement: both report no feasible configuration\n")
	case op.Found && ex.Best != nil:
		p("  MSA optimum:    %v, objective %.4f\n", op.Best.Point, op.Best.Objective)
		if op.Best.Objective <= ex.Best.Objective*(1+1e-9) {
			p("  agreement: 100%% — the annealer matched the global optimum\n")
		} else {
			p("  DISAGREEMENT: annealer %.4f vs global %.4f\n", op.Best.Objective, ex.Best.Objective)
			verdict = &exitError{3, "disagreement"}
		}
	default:
		p("  DISAGREEMENT: one side found a solution, the other did not\n")
		verdict = &exitError{3, "disagreement"}
	}
	cli.FailureSummary(c.stdout, op.Poisoned)
	if verdict != nil {
		return verdict
	}
	return quarantined(ex.Quarantined + op.Quarantined)
}

// loadCheckpoint reads the checkpoint to resume from (nil without one)
// and announces it.
func (c *command) loadCheckpoint(path string) (*tesa.CheckpointState, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	state, err := tesa.LoadCheckpoint(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(c.stdout, "resuming: %d of %d shards (%d of %d points) from %s\n",
		state.Completed(), state.Shards, state.CompletedPoints(), state.Total, path)
	return state, nil
}

// logf adapts distrib's Logf hook to stderr lines.
func (c *command) logf(format string, args ...any) {
	fmt.Fprintf(c.stderr, format+"\n", args...)
}

// runWorker joins a coordinator as a sweep worker and executes leased
// shards until the sweep completes.
func (c *command) runWorker(ctx context.Context, coordURL, name, faultSpec string) error {
	plan, err := faults.Parse(faultSpec)
	if err != nil {
		return usageError{err}
	}
	c.sess.Manifest.Set("coordinator", coordURL)
	stats, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
		Coord:  coordURL,
		Name:   name,
		Store:  c.store,
		Tel:    c.sess.Tel,
		Faults: plan,
		Logf:   c.logf,
	})
	fmt.Fprintf(c.stdout, "worker %s: %d shards (%d points) reported, %d stale\n",
		stats.Name, stats.Shards, stats.Points, stats.Stale)
	if n := stats.Crashes + stats.Stalls + stats.Lies; n > 0 {
		fmt.Fprintf(c.stdout, "  injected faults fired: %d crash, %d stall, %d lie\n",
			stats.Crashes, stats.Stalls, stats.Lies)
	}
	if errors.Is(err, distrib.ErrWorkerQuarantined) {
		fmt.Fprintln(c.stderr, err)
		return &exitError{cli.ExitQuarantined, "quarantined"}
	}
	return err
}

// coordinateConfig carries the -coordinate mode's flags.
type coordinateConfig struct {
	addr                 string
	ckptPath, resumePath string
	leaseTTL             time.Duration
	leaseShards          int
	verifyFrac           float64
}

// runCoordinator serves the distributed sweep protocol until every
// shard has merged, then prints the result.
func (c *command) runCoordinator(ctx context.Context, cc coordinateConfig) error {
	jobPath := *c.jobPath
	raw, err := os.ReadFile(jobPath)
	if err != nil {
		return err
	}
	cfg := distrib.Config{
		Spec:        raw,
		BaseDir:     filepath.Dir(jobPath),
		LeaseTTL:    cc.leaseTTL,
		LeaseShards: cc.leaseShards,
		VerifyFrac:  cc.verifyFrac,
		RunID:       c.sess.Manifest.RunID(),
		Store:       c.store,
		Tel:         c.sess.Tel,
		Logf:        c.logf,
	}
	if cfg.Resume, err = c.loadCheckpoint(cc.resumePath); err != nil {
		return err
	}
	if cc.ckptPath != "" {
		sink, err := tesa.NewFileSink(cc.ckptPath)
		if err != nil {
			return err
		}
		defer sink.Close()
		cfg.Ledger = sink
	}
	if *c.progress {
		cfg.Progress = progressPrinter(c.stderr)
	}
	cfg.Progress = c.sess.Progress(cfg.Progress)

	coord, err := distrib.NewCoordinator(cfg)
	if err != nil {
		return err
	}
	defer coord.Close()
	c.sess.Manifest.Set("space", coord.Fingerprint())
	c.sess.Manifest.Set("lease_ttl", cc.leaseTTL.String())

	ln, err := net.Listen("tcp", cc.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: coord.Handler()}
	listenErr := make(chan error, 1)
	go func() { listenErr <- hs.Serve(ln) }()
	fmt.Fprintf(c.stdout, "coordinator: serving %d shards on %s (space %s, lease ttl %s, verify %.0f%%)\n",
		coord.Shards(), ln.Addr(), coord.Fingerprint(), cc.leaseTTL, 100*cfg.VerifyFrac)

	waitCh := make(chan struct{})
	var res *distrib.Result
	var waitErr error
	go func() {
		res, waitErr = coord.Wait(ctx)
		close(waitCh)
	}()
	select {
	case err := <-listenErr:
		// Serve only returns before shutdown on failure.
		return err
	case <-waitCh:
	}
	if waitErr == nil {
		// Grace period: only the worker whose report completed the sweep
		// learns Done from that response; the others discover it on their
		// next lease poll, which must still find a listener.
		time.Sleep(1 * time.Second)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	hs.Shutdown(shutCtx) //nolint:errcheck // workers may still be disconnecting
	cancel()

	if waitErr != nil {
		if errors.Is(waitErr, context.Canceled) && cc.ckptPath != "" {
			fmt.Fprintf(c.stderr, "resume with: tesa sweep -coordinate %s -job %s -resume %s -checkpoint %s\n",
				cc.addr, jobPath, cc.ckptPath, cc.ckptPath)
		}
		return waitErr
	}

	fmt.Fprintf(c.stdout, "  %d feasible of %d (%d shards)  steals %d  verifies %d  mismatches %d\n",
		res.Feasible, res.Total, res.Shards, res.Steals, res.Verified, res.Mismatches)
	if len(res.QuarantinedWorkers) > 0 {
		fmt.Fprintf(c.stdout, "  quarantined workers: %s\n", strings.Join(res.QuarantinedWorkers, ", "))
	}
	cli.FailureSummary(c.stdout, res.Poisoned)
	if res.Best != nil {
		fmt.Fprintf(c.stdout, "  global optimum: %v, %v grid, objective %.4f\n",
			res.Best.Point, res.Best.Mesh, res.Best.Objective)
	} else {
		fmt.Fprintln(c.stdout, "  no feasible configuration in this space")
	}
	return quarantined(res.Quarantined)
}
