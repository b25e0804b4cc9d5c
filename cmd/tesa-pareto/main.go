// Command tesa-pareto traces the Pareto front for one constraint
// corner, printing a CSV of the winning configurations. Two engines:
// the default -front weights sweeps the Eq. (6) objective weights
// (cost vs DRAM power); -front nsga2 evolves a true multi-objective
// population front over MCM cost, DRAM power, AND peak temperature —
// non-dominated sorting with crowding-distance diversity, every
// reported member re-evaluated at full fidelity.
//
// Usage:
//
//	tesa-pareto [-job spec.json]
//	            [-tech 2d|3d] [-freq 400] [-fps 30] [-temp 75]
//	            [-front weights|nsga2] [-points 9] [-pop 24] [-gens 8]
//	            [-grid 32] [-seed 1]
//	            [-faults spec] [-max-failures 0] [-fail-fast]
//	            [-stage-timeout 0] [-metrics] [-trace out.jsonl]
//	            [-pprof addr] [-metrics-addr addr] [-manifest run.jsonl]
//	            [-thermal-fast]
//	            [-surrogate] [-surrogate-k 8]
//	            [-memo-dir .tesa-memo] [-starts-parallel]
//
// -job runs a versioned jobspec document (tesa.jobspec/v1, kind
// "pareto") instead of per-setting flags: the same file drives this
// command, the library, and tesa-server to an identical front. Config
// flags conflict with -job; operational flags (-progress, -memo-dir,
// -starts-parallel, telemetry) compose with it.
//
// -surrogate enables the learned ranking surrogate: an online model
// trained from completed evaluations (and replayed from -memo-dir
// segments) that orders candidate moves and offspring
// best-predicted-first. Every proposal still runs the real pipeline,
// so the traced front is unchanged — the model only reduces how many
// full evaluations the search needs. -surrogate-k tunes its
// neighborhood (0 = default).
//
// -thermal-fast runs every weight setting's search on the fast thermal
// path (workspace CG, warm starts, closed-form pre-screen outside a
// 3 C guard band); the traced front is unchanged, only wall-clock time
// drops.
//
// All weight settings share one content-addressed memo store: the
// Eq. 6 weights enter the objective, not the pipeline
// stages, so the frequency-independent sub-results (systolic profiles,
// SRAM estimates, schedules, thermal coverage) computed for the first
// weight are reused by every later one. -memo-dir persists the store
// across invocations; -starts-parallel pools the annealing chains.
// The traced front is identical with or without either flag.
//
// With the telemetry flags, all weight settings share one hub, so the
// -metrics summary aggregates stage timings across the whole front and
// the -trace events interleave the per-weight optimizer runs.
//
// Failure handling: design points whose evaluation fails are quarantined
// per weight setting and the sweep continues; the deduplicated union of
// all quarantined points is summarized on stderr at the end, and a run
// that completed with a non-empty ledger exits 4. -faults (or
// TESA_FAULTS) injects deterministic faults for chaos testing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"tesa"
	"tesa/internal/cli"
)

func main() {
	var (
		tech      = flag.String("tech", "2d", "integration technology: 2d or 3d")
		freqMHz   = flag.Float64("freq", 400, "operating frequency in MHz")
		fps       = flag.Float64("fps", 30, "latency constraint in frames per second")
		tempC     = flag.Float64("temp", 75, "thermal budget in Celsius")
		front     = flag.String("front", "weights", "front engine: weights (Eq. 6 sweep) or nsga2 (multi-objective population)")
		points    = flag.Int("points", 9, "number of weight settings to sweep (weights front)")
		pop       = flag.Int("pop", 0, "NSGA-II population size (0 = default; nsga2 front)")
		gens      = flag.Int("gens", 0, "NSGA-II generations (0 = default; nsga2 front)")
		surrogate = flag.Bool("surrogate", false, "learned ranking surrogate: order proposals best-predicted-first (results unchanged)")
		surK      = flag.Int("surrogate-k", 0, "surrogate neighborhood size (0 = default; with -surrogate)")
		grid      = flag.Int("grid", 32, "thermal grid cells per side")
		seed      = flag.Int64("seed", 1, "optimizer seed")
		progress  = flag.Bool("progress", false, "stream per-weight incumbents to stderr")
		faultSpec = flag.String("faults", os.Getenv("TESA_FAULTS"), "fault-injection spec, e.g. panic@thermal:rate=0.05 (default $TESA_FAULTS)")
		maxFail   = flag.Int("max-failures", 0, "abort a weight setting once more than this many points are quarantined (0 = unlimited)")
		failFast  = flag.Bool("fail-fast", false, "abort on the first failed evaluation instead of quarantining it")
		stageTO   = flag.Duration("stage-timeout", 0, "quarantine a point when one pipeline stage exceeds this duration (0 = off)")
		fast      = flag.Bool("thermal-fast", false, "fast thermal path: workspace CG, warm starts, closed-form pre-screen")
		obs       = cli.ObservabilityFlags()
		mf        = cli.MemoFlagsRegister()
		jobPath   = cli.JobFlag()
	)
	flag.Parse()

	job, err := cli.ResolveJob(*jobPath, "pareto",
		"tech", "freq", "fps", "temp", "front", "points", "pop", "gens",
		"grid", "seed", "faults", "max-failures", "fail-fast",
		"stage-timeout", "thermal-fast", "surrogate", "surrogate-k")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if job != nil {
		*front = job.ParetoFront
		*points = job.ParetoPoints
		*pop, *gens = job.ParetoPop, job.ParetoGens
	}
	switch *front {
	case "weights":
		if *points < 2 {
			fmt.Fprintln(os.Stderr, "need at least 2 sweep points")
			os.Exit(2)
		}
	case "nsga2":
	default:
		fmt.Fprintf(os.Stderr, "unknown -front %q (want weights or nsga2)\n", *front)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the front trace; the CSV printed so far
	// remains valid, so a killed run loses only the unswept weights.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if job != nil && job.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Deadline)
		defer cancel()
	}

	// The summaries go to stderr so the CSV on stdout stays clean.
	sess, err := obs.Setup("tesa-pareto", os.Stderr)
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
			fmt.Fprintf(os.Stderr, "memo: %s\n", store.Stats())
		}
		sess.Finish(status)
		if err := memoDone(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	base := tesa.DefaultOptions()
	if strings.EqualFold(*tech, "3d") {
		base.Tech = tesa.Tech3D
	}
	base.FreqHz = *freqMHz * 1e6
	base.Grid = *grid
	base.ThermalFast = *fast
	base.Surrogate = *surrogate
	base.SurrogateK = *surK
	cons := tesa.DefaultConstraints()
	cons.FPS = *fps
	cons.TempBudgetC = *tempC
	w := tesa.ARVRWorkload()
	space := tesa.DefaultSpace()
	if job != nil {
		// The spec is the configuration: everything the config flags
		// would have assembled comes from the resolved job instead.
		base, cons, w, space = job.Opts, job.Cons, job.Workload, job.Space
		*seed = job.Seed
		*maxFail, *failFast, *stageTO = job.MaxFailures, job.FailFast, job.StageTimeout
		*faultSpec = job.Faults
	}
	sess.Manifest.Set("space", space.Fingerprint())
	sess.Manifest.Set("seed", *seed)
	sess.Manifest.Set("workload", w.Name)
	if *faultSpec != "" {
		sess.Manifest.Set("faults", *faultSpec)
	}
	sess.Manifest.Set("front", *front)

	if *front == "nsga2" {
		runNSGA2(ctx, w, base, cons, space, *seed, *pop, *gens,
			*faultSpec, *stageTO, *progress, store, tel, sess, finish)
		return
	}

	fmt.Println("alpha,beta,arrayDim,sramKBper,icsUM,meshRows,meshCols,peakC,powerW,costUSD,dramW")
	seen := map[tesa.DesignPoint]bool{}
	// Quarantines are per weight setting (each has its own evaluator);
	// the summary reports the deduplicated union across the front.
	poisoned := map[tesa.DesignPoint]tesa.QuarantinedPoint{}
	collect := func(qs []tesa.QuarantinedPoint) {
		for _, q := range qs {
			if _, ok := poisoned[q.Point]; !ok {
				poisoned[q.Point] = q
			}
		}
	}
	for i := 0; i < *points; i++ {
		// Sweep the weight angle from cost-only to DRAM-only.
		frac := float64(i) / float64(*points-1)
		opts := base
		opts.Alpha = 1 - frac
		opts.Beta = frac
		if opts.Alpha == 0 {
			opts.Alpha = 1e-9 // keep the objective well-defined
		}
		if opts.Beta == 0 {
			opts.Beta = 1e-9
		}
		ev, err := tesa.NewEvaluator(w, opts, cons, tesa.Models{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ev.Instrument(tel)
		// One store across the whole front: the weight settings share
		// every weight-independent sub-result.
		ev.UseMemo(store)
		if err := cli.ApplyFaults(ev, *faultSpec, *stageTO); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		optOpt := &tesa.OptimizeOptions{MaxFailures: *maxFail, FailFast: *failFast, Parallel: mf.StartWorkers()}
		if *progress {
			alpha, beta := opts.Alpha, opts.Beta
			optOpt.Progress = func(p tesa.Progress) {
				if p.Improved && p.Incumbent != nil {
					fmt.Fprintf(os.Stderr, "alpha=%.3f beta=%.3f: incumbent %v obj %.4f after %d evaluations\n",
						alpha, beta, p.Incumbent.Point, p.Incumbent.Objective, p.Done)
				}
			}
		}
		optOpt.Progress = sess.Progress(optOpt.Progress)
		res, err := ev.OptimizeContext(ctx, space, *seed, optOpt)
		if res != nil {
			// res is nil when the run is canceled mid-weight; reading
			// its ledger unconditionally would crash on SIGINT.
			collect(res.Poisoned)
		}
		switch {
		case errors.Is(err, tesa.ErrNoFeasibleStart):
			fmt.Fprintf(os.Stderr, "alpha=%.2f beta=%.2f: no solution\n", opts.Alpha, opts.Beta)
			continue
		case errors.Is(err, context.Canceled):
			fmt.Fprintf(os.Stderr, "interrupted at weight %d of %d; CSV above is complete for the swept weights\n",
				i, *points)
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
		b := res.Best
		marker := ""
		if seen[b.Point] {
			marker = " (dup)"
		}
		seen[b.Point] = true
		fmt.Printf("%.3f,%.3f,%d,%d,%d,%d,%d,%.2f,%.2f,%.2f,%.2f%s\n",
			opts.Alpha, opts.Beta, b.Point.ArrayDim, b.Point.SRAMKB(), b.Point.ICSUM,
			b.Mesh.Rows, b.Mesh.Cols, b.PeakTempC, b.TotalPowerW, b.MCMCost.Total, b.DRAMPowerW, marker)
	}
	ledger := make([]tesa.QuarantinedPoint, 0, len(poisoned))
	for _, q := range poisoned {
		ledger = append(ledger, q)
	}
	sort.Slice(ledger, func(i, j int) bool { return ledger[i].Point.Less(ledger[j].Point) })
	cli.FailureSummary(os.Stderr, ledger)
	if len(ledger) > 0 {
		finish("ok-quarantined")
		os.Exit(cli.ExitQuarantined)
	}
	finish("ok")
}

// runNSGA2 executes the -front nsga2 engine: one evaluator, one
// evolved population, and a CSV of the full-fidelity non-dominated
// front over cost, DRAM power, and peak temperature. An infinite
// crowding distance (an objective-extreme member) prints as "inf".
func runNSGA2(ctx context.Context, w tesa.Workload, opts tesa.Options, cons tesa.Constraints,
	space tesa.Space, seed int64, pop, gens int, faultSpec string, stageTO time.Duration,
	progress bool, store *tesa.MemoStore, tel *tesa.Telemetry, sess *cli.Session, finish func(string)) {
	ev, err := tesa.NewEvaluator(w, opts, cons, tesa.Models{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ev.Instrument(tel)
	ev.UseMemo(store)
	if err := cli.ApplyFaults(ev, faultSpec, stageTO); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fo := &tesa.FrontOptions{Pop: pop, Gens: gens}
	if progress {
		fo.Progress = func(p tesa.Progress) {
			if p.Incumbent != nil {
				fmt.Fprintf(os.Stderr, "generation %d of %d: cost extreme %v after %d evaluations\n",
					p.Done, p.Total, p.Incumbent.Point, ev.Evaluations())
			}
		}
	}
	fo.Progress = sess.Progress(fo.Progress)
	frontMembers, err := ev.NSGA2FrontContext(ctx, space, seed, fo)
	switch {
	case errors.Is(err, tesa.ErrNoFeasibleStart):
		fmt.Fprintln(os.Stderr, "no feasible configuration: the front is empty")
		cli.FailureSummary(os.Stderr, ev.QuarantineLedger())
		finish("ok")
		return
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "interrupted; no front printed")
		finish("interrupted")
		os.Exit(130)
	case err != nil:
		fmt.Fprintln(os.Stderr, err)
		finish("error")
		os.Exit(1)
	}
	fmt.Println("arrayDim,sramKBper,icsUM,meshRows,meshCols,peakC,powerW,costUSD,dramW,crowding")
	for _, m := range frontMembers {
		b := m.Eval
		crowding := fmt.Sprintf("%.4f", m.Crowding)
		if math.IsInf(m.Crowding, 1) {
			crowding = "inf"
		}
		fmt.Printf("%d,%d,%d,%d,%d,%.2f,%.2f,%.2f,%.2f,%s\n",
			b.Point.ArrayDim, b.Point.SRAMKB(), b.Point.ICSUM,
			b.Mesh.Rows, b.Mesh.Cols, b.PeakTempC, b.TotalPowerW, b.MCMCost.Total, b.DRAMPowerW, crowding)
	}
	if hits, misses, ranked := ev.SurrogateStats(); hits+misses > 0 {
		fmt.Fprintf(os.Stderr, "surrogate: %d ranked decisions, %d cold fallbacks, %d candidates scored\n",
			hits, misses, ranked)
	}
	ledger := ev.QuarantineLedger()
	cli.FailureSummary(os.Stderr, ledger)
	if len(ledger) > 0 {
		finish("ok-quarantined")
		os.Exit(cli.ExitQuarantined)
	}
	finish("ok")
}
