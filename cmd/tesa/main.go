// Command tesa runs the TESA optimizer for one constraint corner and
// prints the chosen MCM.
//
// Usage:
//
//	tesa [-job spec.json]
//	     [-tech 2d|3d] [-freq 400] [-fps 30] [-temp 75] [-power 15]
//	     [-interposer 8] [-grid 32] [-seed 1] [-alpha 1] [-beta 1]
//	     [-faults spec] [-max-failures 0] [-fail-fast] [-stage-timeout 0]
//	     [-metrics] [-trace out.jsonl] [-pprof addr]
//	     [-metrics-addr addr] [-manifest run.jsonl]
//	     [-thermal-fast]
//	     [-surrogate] [-surrogate-k 8]
//	     [-memo-dir .tesa-memo] [-starts-parallel]
//
// -job runs a versioned jobspec document (tesa.jobspec/v1, kind
// "optimize") instead of per-setting flags: the same file drives this
// command, the library, and tesa-server to bit-identical results.
// Config flags (-tech, -grid, ...) conflict with -job; operational
// flags (-progress, -deadline, -memo-dir, -starts-parallel, the
// telemetry flags) compose
// with it, and an explicit -deadline overrides the spec's deadline_sec.
//
// -thermal-fast switches the search to the fast thermal path
// (allocation-free workspace CG, warm-started solves, closed-form
// pre-screening outside a 3 C guard band); reported tables
// always come from full-fidelity evaluations, so the flag changes
// wall-clock time, not results.
//
// -surrogate enables the learned ranking surrogate: an online k-NN/RBF
// model over completed evaluations (trained in-process and replayed
// from -memo-dir segments at startup) that scores candidate annealing
// moves and seed pools, so the search evaluates predicted-good points
// first. Every proposal still runs the real pipeline and the winner is
// always a full-fidelity evaluation — the flag reduces how many full
// evaluations reaching the optimum takes, not what is reported.
// -surrogate-k tunes the model neighborhood and the per-step ranked
// candidate count (0 = default).
//
// Pipeline sub-results (systolic profiles, SRAM estimates, schedules,
// coverage maps, whole evaluations) are memoized in one
// content-addressed store shared by all annealing chains; -memo-dir
// persists the store so repeated invocations with the same models
// warm-start from disk. -starts-parallel runs the annealing chains
// through a worker pool. Both change wall-clock time only: the winning
// design point and every reported number are identical with or without
// them.
//
// The output reports the winning design point, its derived mesh and SRAM
// capacity, and the full evaluation (peak temperature, power, cost, DRAM
// power, per-chiplet schedule).
//
// Observability: -metrics prints an end-of-run summary (per-stage
// latency percentiles, evals/sec, cache hit rate), -trace streams
// annealer-level JSONL events, -pprof serves net/http/pprof,
// -metrics-addr serves live /metrics (Prometheus text), /debug/vars,
// /progress and /debug/pprof while the search runs, and -manifest
// writes the run manifest (command, flags, space fingerprint, seeds,
// quarantine tallies, wall/CPU time) as JSONL start/end records.
//
// Failure handling: a design point whose evaluation fails (panic, NaN,
// diverged thermal solve, timeout) is quarantined and the search
// continues around it; a run that still finds a solution but quarantined
// points prints a failure summary and exits 4. -max-failures bounds the
// quarantine count, -fail-fast aborts on the first failure, and -faults
// (or TESA_FAULTS) injects deterministic faults for chaos testing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tesa"
	"tesa/internal/cli"
)

func main() {
	var (
		tech       = flag.String("tech", "2d", "integration technology: 2d or 3d")
		freqMHz    = flag.Float64("freq", 400, "operating frequency in MHz")
		fps        = flag.Float64("fps", 30, "latency constraint in frames per second")
		tempC      = flag.Float64("temp", 75, "thermal budget in Celsius")
		powerW     = flag.Float64("power", 15, "power budget in watts")
		interposer = flag.Float64("interposer", 8, "interposer side in mm")
		grid       = flag.Int("grid", 32, "thermal grid cells per side during search")
		seed       = flag.Int64("seed", 1, "optimizer seed")
		alpha      = flag.Float64("alpha", 1, "Eq. 6 weight on MCM cost")
		beta       = flag.Float64("beta", 1, "Eq. 6 weight on DRAM power")
		dataflow   = flag.String("dataflow", "os", "systolic dataflow: os or ws")
		workload   = flag.String("workload", "", "JSON workload file (default: the built-in AR/VR workload)")
		progress   = flag.Bool("progress", false, "stream incumbent improvements to stderr")
		deadline   = flag.Duration("deadline", 0, "abort the search after this duration (0 = none)")
		faultSpec  = flag.String("faults", os.Getenv("TESA_FAULTS"), "fault-injection spec, e.g. panic@thermal:rate=0.05 (default $TESA_FAULTS)")
		maxFail    = flag.Int("max-failures", 0, "abort once more than this many points are quarantined (0 = unlimited)")
		failFast   = flag.Bool("fail-fast", false, "abort on the first failed evaluation instead of quarantining it")
		stageTO    = flag.Duration("stage-timeout", 0, "quarantine a point when one pipeline stage exceeds this duration (0 = off)")
		fast       = flag.Bool("thermal-fast", false, "fast thermal path: workspace CG, warm starts, closed-form pre-screen")
		surrogate  = flag.Bool("surrogate", false, "learned ranking surrogate: order candidate moves and seeds best-predicted-first (results unchanged)")
		surK       = flag.Int("surrogate-k", 0, "surrogate neighborhood size and ranked-move candidate count (0 = default; with -surrogate)")
		obs        = cli.ObservabilityFlags()
		mf         = cli.MemoFlagsRegister()
		jobPath    = cli.JobFlag()
	)
	flag.Parse()

	job, err := cli.ResolveJob(*jobPath, "optimize",
		"tech", "freq", "fps", "temp", "power", "interposer", "grid", "seed",
		"alpha", "beta", "dataflow", "workload", "faults", "max-failures",
		"fail-fast", "stage-timeout", "thermal-fast", "surrogate",
		"surrogate-k")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM (and -deadline, or the spec's deadline_sec) cancel
	// the context; the annealers observe it between evaluations and wind
	// down promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if dl := cli.JobDeadline(job, *deadline); dl > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dl)
		defer cancel()
	}

	sess, err := obs.Setup("tesa", os.Stdout)
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
	// finish finalizes the run manifest and flushes telemetry and the
	// on-disk memo cache before any exit path (os.Exit skips defers).
	finish := func(status string) {
		if obs.Metrics {
			fmt.Printf("memo: %s\n", store.Stats())
		}
		sess.Finish(status)
		if err := memoDone(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	opts := tesa.DefaultOptions()
	switch strings.ToLower(*tech) {
	case "2d":
		opts.Tech = tesa.Tech2D
	case "3d":
		opts.Tech = tesa.Tech3D
	default:
		fmt.Fprintf(os.Stderr, "unknown tech %q\n", *tech)
		os.Exit(2)
	}
	switch strings.ToLower(*dataflow) {
	case "os":
		opts.Dataflow = tesa.OutputStationary
	case "ws":
		opts.Dataflow = tesa.WeightStationary
	default:
		fmt.Fprintf(os.Stderr, "unknown dataflow %q\n", *dataflow)
		os.Exit(2)
	}
	opts.FreqHz = *freqMHz * 1e6
	opts.Grid = *grid
	opts.Alpha, opts.Beta = *alpha, *beta
	opts.ThermalFast = *fast
	opts.Surrogate = *surrogate
	opts.SurrogateK = *surK
	cons := tesa.Constraints{FPS: *fps, PowerBudgetW: *powerW, TempBudgetC: *tempC, InterposerMM: *interposer}

	w := tesa.ARVRWorkload()
	if *workload != "" {
		data, err := os.ReadFile(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if w, err = tesa.UnmarshalWorkload(data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	space := tesa.DefaultSpace()
	if job != nil {
		// The spec is the configuration: everything the config flags
		// would have assembled comes from the resolved job instead.
		opts, cons, w, space = job.Opts, job.Cons, job.Workload, job.Space
		*seed = job.Seed
		*maxFail, *failFast, *stageTO = job.MaxFailures, job.FailFast, job.StageTimeout
		*faultSpec = job.Faults
	}
	ev, err := tesa.NewEvaluator(w, opts, cons, tesa.Models{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ev.Instrument(tel)
	ev.UseMemo(store)
	if err := cli.ApplyFaults(ev, *faultSpec, *stageTO); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sess.Manifest.Set("space", space.Fingerprint())
	sess.Manifest.Set("seed", *seed)
	sess.Manifest.Set("workload", w.Name)
	if *faultSpec != "" {
		sess.Manifest.Set("faults", *faultSpec)
	}

	fmt.Printf("TESA: %s MCM at %.0f MHz for the %d-DNN %s workload\n", opts.Tech, opts.FreqHz/1e6, len(w.Networks), w.Name)
	fmt.Printf("constraints: %.0f fps, %.0f W, %.0f C, %.0fx%.0f mm interposer\n\n",
		cons.FPS, cons.PowerBudgetW, cons.TempBudgetC, cons.InterposerMM, cons.InterposerMM)

	optOpt := &tesa.OptimizeOptions{MaxFailures: *maxFail, FailFast: *failFast, Parallel: mf.StartWorkers()}
	if *progress {
		optOpt.Progress = func(p tesa.Progress) {
			if p.Improved && p.Incumbent != nil {
				fmt.Fprintf(os.Stderr, "incumbent after %d evaluations: %v, objective %.4f  [%.1fs]\n",
					p.Done, p.Incumbent.Point, p.Incumbent.Objective, p.Elapsed.Seconds())
			}
		}
	}
	optOpt.Progress = sess.Progress(optOpt.Progress)

	start := time.Now()
	res, err := ev.OptimizeContext(ctx, space, *seed, optOpt)
	switch {
	case errors.Is(err, tesa.ErrNoFeasibleStart):
		// res carries the exploration counters; reported below.
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "search aborted: %v\n", err)
		finish("interrupted")
		os.Exit(130)
	case err != nil:
		if errors.Is(err, tesa.ErrTooManyFailures) {
			cli.FailureSummary(os.Stderr, ev.QuarantineLedger())
		}
		fmt.Fprintln(os.Stderr, err)
		finish("error")
		os.Exit(1)
	}
	elapsed := time.Since(start)

	if !res.Found {
		fmt.Printf("SOLUTION DOES NOT EXIST under these constraints\n")
		fmt.Printf("(explored %d of %d design vectors in %.1fs)\n", res.Explored, space.Size(), elapsed.Seconds())
		fmt.Println("remedial options: relax the thermal budget, reduce frequency, or enlarge the interposer")
		cli.FailureSummary(os.Stderr, res.Poisoned)
		finish("no-solution")
		os.Exit(3)
	}

	best := res.Best
	fmt.Printf("winning MCM:  %v\n", best.Point)
	fmt.Printf("mesh:         %v (%d chiplets)\n", best.Mesh, best.Mesh.Count())
	fmt.Printf("chiplet:      %.2f x %.2f mm (array %.2f mm2, SRAM %.2f mm2)\n",
		best.Chiplet.WidthMM, best.Chiplet.HeightMM, best.Chiplet.ArrayMM2, best.Chiplet.SRAMMM2)
	fmt.Printf("peak temp:    %.2f C (budget %.0f C)\n", best.PeakTempC, cons.TempBudgetC)
	fmt.Printf("power:        %.2f W total (%.2f dynamic + %.2f leakage; budget %.0f W)\n",
		best.TotalPowerW, best.DynamicPowerW, best.LeakageW, cons.PowerBudgetW)
	fmt.Printf("latency:      %.1f ms makespan (%.2fx of the %.0f fps budget)\n",
		best.MakespanSec*1e3, best.LatencyFactor, cons.FPS)
	fmt.Printf("MCM cost:     $%.2f (dies $%.2f, interposer $%.2f, bonding $%.2f, stacking $%.2f)\n",
		best.MCMCost.Total, best.MCMCost.ChipletDies, best.MCMCost.Interposer, best.MCMCost.Bonding, best.MCMCost.Stacking)
	fmt.Printf("DRAM power:   %.2f W over %d channels\n", best.DRAMPowerW, best.DRAMChannels)
	fmt.Printf("throughput:   %.2f TOPS effective, %.2f TOPS peak\n", best.OPS/1e12, best.PeakOPS/1e12)
	fmt.Printf("objective:    %.4f (Eq. 6, alpha=%.2g beta=%.2g)\n\n", best.Objective, opts.Alpha, opts.Beta)

	fmt.Println("schedule (non-preemptive, corner-first):")
	for c, dnns := range best.Schedule.ChipletDNNs {
		fmt.Printf("  chiplet %d:", c)
		for _, d := range dnns {
			fmt.Printf(" %s", w.Networks[d].Name)
		}
		fmt.Println()
	}
	fmt.Printf("\nsearch: %d evaluations, %d distinct points (%.1f%% of the space, %.1f%% cache hits), %.1fs\n",
		res.Evaluations, res.Explored, 100*float64(res.Explored)/float64(space.Size()),
		100*res.CacheHitRate, elapsed.Seconds())
	if res.Screened > 0 {
		fmt.Printf("fast path: %d candidates rejected by the surrogate pre-screen without a grid solve\n", res.Screened)
	}
	if hits, misses, ranked := ev.SurrogateStats(); hits+misses > 0 {
		fmt.Printf("surrogate: %d ranked decisions (%d candidates scored), %d cold fallbacks\n",
			hits, ranked, misses)
	}
	fmt.Println()
	fmt.Print(tesa.FloorplanASCII(best))
	cli.FailureSummary(os.Stderr, res.Poisoned)
	if res.Quarantined > 0 {
		finish("ok-quarantined")
		os.Exit(cli.ExitQuarantined)
	}
	finish("ok")
}
