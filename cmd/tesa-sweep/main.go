// Command tesa-sweep exhaustively evaluates a design space and compares
// the global optimum against the multi-start annealer — the paper's
// Sec. IV-A optimizer-correctness study, plus a way to quantify how much
// of the full Table II space is feasible per corner.
//
// Usage:
//
//	tesa-sweep [-job spec.json]
//	           [-tech 2d|3d] [-freq 400] [-fps 30] [-temp 75]
//	           [-full] [-grid 32] [-seed 1] [-shard 0]
//	           [-checkpoint sweep.ckpt] [-resume sweep.ckpt] [-progress]
//	           [-faults spec] [-max-failures 0] [-fail-fast]
//	           [-stage-timeout 0] [-metrics] [-trace out.jsonl]
//	           [-pprof addr] [-metrics-addr addr] [-manifest run.jsonl]
//	           [-thermal-fast]
//	           [-surrogate] [-surrogate-k 8]
//	           [-memo-dir .tesa-memo] [-starts-parallel]
//	tesa-sweep -coordinate :9090 -job spec.json
//	           [-lease-ttl 10s] [-lease-shards 4] [-verify-frac 0.1]
//	           [-checkpoint ledger.ckpt] [-resume ledger.ckpt]
//	tesa-sweep -worker http://host:9090 [-worker-name w1] [-faults spec]
//
// -job runs a versioned jobspec document (tesa.jobspec/v1, kind
// "sweep") instead of per-setting flags: the same file drives this
// command, the library, and tesa-server to bit-identical feasibility
// counts and optima. Config flags conflict with -job; operational
// flags (-progress, -checkpoint, -resume, -memo-dir, -starts-parallel,
// telemetry) compose.
//
// -thermal-fast runs both the exhaustive sweep and the annealer on the
// fast thermal path (workspace CG, warm starts, closed-form pre-screen
// outside a 3 C guard band); feasibility decisions and the
// winning points are unchanged, only wall-clock time drops.
//
// -surrogate enables the learned ranking surrogate on both evaluators:
// sweep shard interiors are evaluated best-predicted-first (the winner
// is identical by construction — every point is still evaluated) and
// the annealer ranks its candidate moves. With -memo-dir, the model
// warm-starts from the persisted evaluation corpus.
//
// The exhaustive sweep and the annealer share one content-addressed
// memo store, so the annealer's evaluations are served from the sweep's
// results; -memo-dir persists the store across invocations and
// -starts-parallel runs the annealing chains through a worker pool.
// Both change wall-clock time only — the feasibility counts, both
// optima, and the agreement verdict are identical.
//
// By default the small validation space (64x64..128x128 arrays, coarse
// ICS) is swept; -full sweeps the whole Table II space — the
// "multiple days" regime the checkpointing exists for. The sweep is
// sharded; -checkpoint appends one JSONL record per completed shard
// (crash-safe: temp-file + rename creation, fsync per record), so a run
// killed by SIGINT/SIGTERM (or a crash) restarts where it left off with
// -resume pointing at the same file. Both flags may name the same path:
// resume reads it, then new records append to it. -progress streams
// live status lines to stderr.
//
// Failure handling: a design point whose evaluation fails (panic, NaN,
// diverged thermal solve, timeout) is quarantined — recorded in the
// checkpoint so a resume skips it — and the sweep continues.
// -max-failures bounds the quarantine count, -fail-fast restores the
// abort-on-first-failure behavior, and -faults (or TESA_FAULTS) injects
// deterministic faults for chaos runs. A run that completes with a
// non-empty quarantine ledger prints a failure summary and exits 4.
//
// Distributed mode (internal/distrib): -coordinate serves the
// lease-based sweep protocol on the given address, executing nothing
// itself except trust-but-verify re-evaluations; -worker joins a
// coordinator, fetches the spec, and executes leased shards. The
// coordinator's -checkpoint ledger is byte-compatible with a
// single-process sweep checkpoint — resume it with either mode, or
// with a plain local run. A worker's -faults spec may additionally
// carry worker-level rules (crash@shard, stall@shard, lie@shard) for
// chaos drills; a worker caught lying exits 4 (quarantined).
//
// The telemetry flags instrument both the exhaustive and the annealer
// evaluator, so the -metrics summary contrasts the sweep's pure
// pipeline throughput with the annealer's cache-amplified one.
// -metrics-addr additionally serves live /metrics (Prometheus text),
// /debug/vars, /progress and /debug/pprof for the whole run, and
// -manifest writes the run manifest as JSONL start/end records whose
// run id is also stamped into the checkpoint header, joining the
// checkpoint, trace, and manifest streams of one run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tesa"
	"tesa/internal/cli"
	"tesa/internal/distrib"
	"tesa/internal/faults"
)

func main() {
	var (
		tech        = flag.String("tech", "2d", "integration technology: 2d or 3d")
		freqMHz     = flag.Float64("freq", 400, "operating frequency in MHz")
		fps         = flag.Float64("fps", 15, "latency constraint in frames per second")
		tempC       = flag.Float64("temp", 85, "thermal budget in Celsius")
		full        = flag.Bool("full", false, "sweep the full Table II space instead of the validation space")
		grid        = flag.Int("grid", 32, "thermal grid cells per side")
		seed        = flag.Int64("seed", 1, "optimizer seed")
		shard       = flag.Int("shard", 0, "points per sweep shard (0 = automatic)")
		ckptPath    = flag.String("checkpoint", "", "append sweep checkpoint records to this JSONL file")
		resumePath  = flag.String("resume", "", "resume the sweep from this checkpoint file")
		progress    = flag.Bool("progress", false, "stream live progress to stderr")
		faultSpec   = flag.String("faults", os.Getenv("TESA_FAULTS"), "fault-injection spec, e.g. panic@thermal:rate=0.05 (default $TESA_FAULTS)")
		maxFailures = flag.Int("max-failures", 0, "abort once more than this many points are quarantined (0 = unlimited)")
		failFast    = flag.Bool("fail-fast", false, "abort on the first failed evaluation instead of quarantining it")
		stageTO     = flag.Duration("stage-timeout", 0, "quarantine a point when one pipeline stage exceeds this duration (0 = off)")
		fast        = flag.Bool("thermal-fast", false, "fast thermal path: workspace CG, warm starts, closed-form pre-screen")
		surrogate   = flag.Bool("surrogate", false, "learned ranking surrogate: order sweep shards and annealer moves best-predicted-first (results unchanged)")
		surK        = flag.Int("surrogate-k", 0, "surrogate neighborhood size (0 = default; with -surrogate)")
		coordinate  = flag.String("coordinate", "", "serve a distributed sweep coordinator on this address (requires -job)")
		workerURL   = flag.String("worker", "", "join the distributed sweep coordinator at this base URL as a worker")
		workerName  = flag.String("worker-name", "", "worker identity reported to the coordinator (default: generated)")
		leaseTTL    = flag.Duration("lease-ttl", 10*time.Second, "coordinator: heartbeat deadline before a worker's leases are stolen")
		leaseShards = flag.Int("lease-shards", 4, "coordinator: maximum contiguous shards granted per lease request")
		verifyFrac  = flag.Float64("verify-frac", 0.1, "coordinator: fraction of reported shards spot re-executed (negative = off)")
		obs         = cli.ObservabilityFlags()
		mf          = cli.MemoFlagsRegister()
		jobPath     = cli.JobFlag()
	)
	flag.Parse()

	if *workerURL != "" && (*jobPath != "" || *coordinate != "") {
		fmt.Fprintln(os.Stderr, "-worker conflicts with -job and -coordinate: workers fetch the spec from the coordinator")
		os.Exit(2)
	}
	if *coordinate != "" && *jobPath == "" {
		fmt.Fprintln(os.Stderr, "-coordinate requires -job: the spec is what workers execute")
		os.Exit(2)
	}

	job, err := cli.ResolveJob(*jobPath, "sweep",
		"tech", "freq", "fps", "temp", "full", "grid", "seed", "shard",
		"faults", "max-failures", "fail-fast", "stage-timeout",
		"thermal-fast", "surrogate", "surrogate-k")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the context; the engines observe it between
	// evaluations, checkpoint state stays consistent, and we exit with
	// the conventional 130. A -job spec's deadline_sec bounds the run
	// the same way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if job != nil && job.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Deadline)
		defer cancel()
	}

	sess, err := obs.Setup("tesa-sweep", os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tel := sess.Tel
	store, memoDone, err := mf.Store()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	finish := func(status string) {
		if obs.Metrics {
			fmt.Printf("memo: %s\n", store.Stats())
		}
		sess.Finish(status)
		if err := memoDone(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	// Distributed modes exit from inside their helpers; the rest of main
	// is the single-process sweep-vs-annealer study.
	if *workerURL != "" {
		runWorkerMode(ctx, *workerURL, *workerName, *faultSpec, store, sess, finish)
	}
	if *coordinate != "" {
		runCoordinateMode(ctx, coordinateConfig{
			addr:        *coordinate,
			jobPath:     *jobPath,
			ckptPath:    *ckptPath,
			resumePath:  *resumePath,
			leaseTTL:    *leaseTTL,
			leaseShards: *leaseShards,
			verifyFrac:  *verifyFrac,
			progress:    *progress,
		}, store, sess, finish)
	}

	opts := tesa.DefaultOptions()
	if strings.EqualFold(*tech, "3d") {
		opts.Tech = tesa.Tech3D
	}
	opts.FreqHz = *freqMHz * 1e6
	opts.Grid = *grid
	opts.ThermalFast = *fast
	opts.Surrogate = *surrogate
	opts.SurrogateK = *surK
	cons := tesa.DefaultConstraints()
	cons.FPS = *fps
	cons.TempBudgetC = *tempC

	space := tesa.ValidationSpace()
	if *full {
		space = tesa.DefaultSpace()
	}
	w := tesa.ARVRWorkload()
	if job != nil {
		// The spec is the configuration: everything the config flags
		// would have assembled comes from the resolved job instead.
		opts, cons, w, space = job.Opts, job.Cons, job.Workload, job.Space
		*seed = job.Seed
		*shard = job.ShardSize
		*maxFailures, *failFast, *stageTO = job.MaxFailures, job.FailFast, job.StageTimeout
		*faultSpec = job.Faults
	}

	sess.Manifest.Set("space", space.Fingerprint())
	sess.Manifest.Set("seed", *seed)
	sess.Manifest.Set("workload", w.Name)
	if *faultSpec != "" {
		sess.Manifest.Set("faults", *faultSpec)
	}

	// RunID stamps the manifest's run id into the checkpoint header, so
	// a cold checkpoint names the manifest and trace records of the run
	// that wrote it.
	sweepOpt := &tesa.SweepOptions{ShardSize: *shard, MaxFailures: *maxFailures, FailFast: *failFast,
		RunID: sess.Manifest.RunID()}
	if *resumePath != "" {
		f, err := os.Open(*resumePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		state, err := tesa.LoadCheckpoint(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sweepOpt.ResumeFrom = state
		fmt.Printf("resuming: %d of %d shards (%d of %d points) from %s\n",
			state.Completed(), state.Shards, state.CompletedPoints(), state.Total, *resumePath)
	}
	if *ckptPath != "" {
		// FileSink creates a fresh checkpoint via temp-file + rename and
		// fsyncs every flushed record, so a SIGKILL (or power loss) can
		// tear at most the final line — which LoadCheckpoint tolerates.
		sink, err := tesa.NewFileSink(*ckptPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer sink.Close()
		sweepOpt.Checkpoint = sink
	}
	if *progress {
		sweepOpt.Progress = progressPrinter("sweep")
	}
	sweepOpt.Progress = sess.Progress(sweepOpt.Progress)

	ex, err := tesa.NewEvaluator(w, opts, cons, tesa.Models{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ex.Instrument(tel)
	ex.UseMemo(store)
	if err := cli.ApplyFaults(ex, *faultSpec, *stageTO); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("exhaustive sweep: %d design vectors (%s, %.0f MHz, %.0f fps, %.0f C)\n",
		space.Size(), opts.Tech, opts.FreqHz/1e6, cons.FPS, cons.TempBudgetC)
	start := time.Now()
	exRes, err := ex.ExhaustiveContext(ctx, space, sweepOpt)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "\ninterrupted")
			if *ckptPath != "" {
				fmt.Fprintf(os.Stderr, "resume with: tesa-sweep -resume %s -checkpoint %s [same flags]\n",
					*ckptPath, *ckptPath)
			}
			finish("interrupted")
			os.Exit(130)
		}
		if errors.Is(err, tesa.ErrTooManyFailures) {
			cli.FailureSummary(os.Stderr, ex.QuarantineLedger())
		}
		fmt.Fprintln(os.Stderr, err)
		finish("error")
		os.Exit(1)
	}
	exElapsed := time.Since(start)
	fmt.Printf("  %d feasible of %d (%.1f%%), %.1fs", exRes.Feasible, exRes.Total,
		100*float64(exRes.Feasible)/float64(exRes.Total), exElapsed.Seconds())
	if exRes.Resumed > 0 {
		fmt.Printf(" (%d points evaluated, %d resumed)", exRes.Evaluated, exRes.Resumed)
	}
	fmt.Println()
	cli.FailureSummary(os.Stdout, exRes.Poisoned)
	if exRes.Best != nil {
		fmt.Printf("  global optimum: %v, %v grid, objective %.4f\n",
			exRes.Best.Point, exRes.Best.Mesh, exRes.Best.Objective)
	} else {
		fmt.Println("  no feasible configuration in this space")
	}

	op, err := tesa.NewEvaluator(w, opts, cons, tesa.Models{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	op.Instrument(tel)
	// The same store the sweep filled: the annealer's evaluations are
	// served from the exhaustive results.
	op.UseMemo(store)
	if err := cli.ApplyFaults(op, *faultSpec, *stageTO); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	optOpt := &tesa.OptimizeOptions{MaxFailures: *maxFailures, FailFast: *failFast, Parallel: mf.StartWorkers()}
	if *progress {
		optOpt.Progress = progressPrinter("anneal")
	}
	optOpt.Progress = sess.Progress(optOpt.Progress)
	start = time.Now()
	opRes, err := op.OptimizeContext(ctx, space, *seed, optOpt)
	switch {
	case errors.Is(err, tesa.ErrNoFeasibleStart):
		// Valid outcome: the annealer agrees or disagrees with the
		// sweep below, via opRes.Found == false.
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "\ninterrupted during annealer run")
		finish("interrupted")
		os.Exit(130)
	case err != nil:
		if errors.Is(err, tesa.ErrTooManyFailures) {
			cli.FailureSummary(os.Stderr, op.QuarantineLedger())
		}
		fmt.Fprintln(os.Stderr, err)
		finish("error")
		os.Exit(1)
	}
	fmt.Printf("\nmulti-start annealer: explored %d points (%.1f%% of the space, %.1f%% cache hits), %.1fs\n",
		opRes.Explored, 100*float64(opRes.Explored)/float64(space.Size()),
		100*opRes.CacheHitRate, time.Since(start).Seconds())
	exit := 0
	switch {
	case !opRes.Found && exRes.Best == nil:
		fmt.Println("  agreement: both report no feasible configuration")
	case opRes.Found && exRes.Best != nil:
		fmt.Printf("  MSA optimum:    %v, objective %.4f\n", opRes.Best.Point, opRes.Best.Objective)
		if opRes.Best.Objective <= exRes.Best.Objective*(1+1e-9) {
			fmt.Println("  agreement: 100% — the annealer matched the global optimum")
		} else {
			fmt.Printf("  DISAGREEMENT: annealer %.4f vs global %.4f\n", opRes.Best.Objective, exRes.Best.Objective)
			exit = 3
		}
	default:
		fmt.Println("  DISAGREEMENT: one side found a solution, the other did not")
		exit = 3
	}
	cli.FailureSummary(os.Stdout, opRes.Poisoned)
	if exit == 0 && exRes.Quarantined+opRes.Quarantined > 0 {
		// Completed, but with quarantined points: the distinct exit code
		// lets chaos harnesses tell "survived with losses" from success.
		exit = cli.ExitQuarantined
	}
	switch exit {
	case 0:
		finish("ok")
	case cli.ExitQuarantined:
		finish("ok-quarantined")
	default:
		finish("disagreement")
	}
	if exit != 0 {
		os.Exit(exit)
	}
}

// stderrLogf adapts distrib's Logf hook to stderr lines.
func stderrLogf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// runWorkerMode joins a coordinator as a sweep worker, executes leased
// shards until the sweep completes, and exits the process.
func runWorkerMode(ctx context.Context, coordURL, name, faultSpec string, store *tesa.MemoStore, sess *cli.Session, finish func(string)) {
	plan, err := faults.Parse(faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sess.Manifest.Set("coordinator", coordURL)
	stats, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
		Coord:  coordURL,
		Name:   name,
		Store:  store,
		Tel:    sess.Tel,
		Faults: plan,
		Logf:   stderrLogf,
	})
	fmt.Printf("worker %s: %d shards (%d points) reported, %d stale\n",
		stats.Name, stats.Shards, stats.Points, stats.Stale)
	if n := stats.Crashes + stats.Stalls + stats.Lies; n > 0 {
		fmt.Printf("  injected faults fired: %d crash, %d stall, %d lie\n",
			stats.Crashes, stats.Stalls, stats.Lies)
	}
	switch {
	case err == nil:
		finish("ok")
		os.Exit(0)
	case errors.Is(err, distrib.ErrWorkerQuarantined):
		fmt.Fprintln(os.Stderr, err)
		finish("quarantined")
		os.Exit(cli.ExitQuarantined)
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "\ninterrupted")
		finish("interrupted")
		os.Exit(130)
	default:
		fmt.Fprintln(os.Stderr, err)
		finish("error")
		os.Exit(1)
	}
}

// coordinateConfig carries the -coordinate mode's flags.
type coordinateConfig struct {
	addr, jobPath        string
	ckptPath, resumePath string
	leaseTTL             time.Duration
	leaseShards          int
	verifyFrac           float64
	progress             bool
}

// runCoordinateMode serves the distributed sweep protocol until every
// shard has merged, prints the result, and exits the process.
func runCoordinateMode(ctx context.Context, cc coordinateConfig, store *tesa.MemoStore, sess *cli.Session, finish func(string)) {
	raw, err := os.ReadFile(cc.jobPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := distrib.Config{
		Spec:        raw,
		BaseDir:     filepath.Dir(cc.jobPath),
		LeaseTTL:    cc.leaseTTL,
		LeaseShards: cc.leaseShards,
		VerifyFrac:  cc.verifyFrac,
		RunID:       sess.Manifest.RunID(),
		Store:       store,
		Tel:         sess.Tel,
		Logf:        stderrLogf,
	}
	if cc.resumePath != "" {
		f, err := os.Open(cc.resumePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		state, err := tesa.LoadCheckpoint(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Resume = state
		fmt.Printf("resuming: %d of %d shards (%d of %d points) from %s\n",
			state.Completed(), state.Shards, state.CompletedPoints(), state.Total, cc.resumePath)
	}
	if cc.ckptPath != "" {
		sink, err := tesa.NewFileSink(cc.ckptPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer sink.Close()
		cfg.Ledger = sink
	}
	if cc.progress {
		cfg.Progress = progressPrinter("distrib")
	}
	cfg.Progress = sess.Progress(cfg.Progress)

	coord, err := distrib.NewCoordinator(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		finish("error")
		os.Exit(1)
	}
	defer coord.Close()
	sess.Manifest.Set("space", coord.Fingerprint())
	sess.Manifest.Set("lease_ttl", cc.leaseTTL.String())

	hs := &http.Server{Addr: cc.addr, Handler: coord.Handler()}
	listenErr := make(chan error, 1)
	go func() { listenErr <- hs.ListenAndServe() }()
	fmt.Printf("coordinator: serving %d shards on %s (space %s, lease ttl %s, verify %.0f%%)\n",
		coord.Shards(), cc.addr, coord.Fingerprint(), cc.leaseTTL, 100*cfg.VerifyFrac)

	waitCh := make(chan struct{})
	var res *distrib.Result
	var waitErr error
	go func() {
		res, waitErr = coord.Wait(ctx)
		close(waitCh)
	}()
	select {
	case err := <-listenErr:
		// ListenAndServe only returns before shutdown on failure.
		fmt.Fprintln(os.Stderr, err)
		finish("error")
		os.Exit(1)
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
		if errors.Is(waitErr, context.Canceled) {
			fmt.Fprintln(os.Stderr, "\ninterrupted")
			if cc.ckptPath != "" {
				fmt.Fprintf(os.Stderr, "resume with: tesa-sweep -coordinate %s -job %s -resume %s -checkpoint %s\n",
					cc.addr, cc.jobPath, cc.ckptPath, cc.ckptPath)
			}
			finish("interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, waitErr)
		finish("error")
		os.Exit(1)
	}

	fmt.Printf("  %d feasible of %d (%d shards)  steals %d  verifies %d  mismatches %d\n",
		res.Feasible, res.Total, res.Shards, res.Steals, res.Verified, res.Mismatches)
	if len(res.QuarantinedWorkers) > 0 {
		fmt.Printf("  quarantined workers: %s\n", strings.Join(res.QuarantinedWorkers, ", "))
	}
	cli.FailureSummary(os.Stdout, res.Poisoned)
	if res.Best != nil {
		fmt.Printf("  global optimum: %v, %v grid, objective %.4f\n",
			res.Best.Point, res.Best.Mesh, res.Best.Objective)
	} else {
		fmt.Println("  no feasible configuration in this space")
	}
	if res.Quarantined > 0 {
		finish("ok-quarantined")
		os.Exit(cli.ExitQuarantined)
	}
	finish("ok")
	os.Exit(0)
}

// progressPrinter renders Progress updates as stderr status lines:
// every new incumbent, plus completion ticks at ~5% steps for sweeps.
func progressPrinter(label string) tesa.ProgressFunc {
	lastTick := -1
	return func(p tesa.Progress) {
		tick := -1
		pct := ""
		if p.Total > 0 {
			tick = 20 * p.Done / p.Total // 5% buckets
			pct = fmt.Sprintf(" (%.0f%%)", 100*float64(p.Done)/float64(p.Total))
		}
		if !p.Improved && tick == lastTick {
			return
		}
		lastTick = tick
		line := fmt.Sprintf("%s: %d", label, p.Done)
		if p.Total > 0 {
			line += fmt.Sprintf("/%d", p.Total)
		}
		line += pct
		if p.Incumbent != nil {
			line += fmt.Sprintf("  best %v obj %.4f", p.Incumbent.Point, p.Incumbent.Objective)
		}
		fmt.Fprintf(os.Stderr, "%s  [%.1fs]\n", line, p.Elapsed.Seconds())
	}
}
