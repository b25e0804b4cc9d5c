package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tesa/internal/anneal"
)

// OptimizeResult is the outcome of a TESA optimization run.
type OptimizeResult struct {
	// Best is the winning MCM, nil when no feasible configuration exists
	// (the paper's "solution does not exist" outcome, e.g. 3-D at
	// 500 MHz under a 75 C budget).
	Best *Evaluation
	// Found is false when the whole run saw no feasible point.
	Found bool
	// Evaluations counts annealer evaluations (including cache hits);
	// Explored counts distinct design points actually evaluated (a
	// start-sampling draw that was only screened does not count).
	Evaluations int
	Explored    int
	// CacheHitRate is the evaluator's memo-cache hit rate over the run.
	CacheHitRate float64
	// Duration is the wall-clock time of the multi-start ensemble.
	Duration time.Duration
	// PerStart reports each annealer's own best; each entry carries its
	// own Duration and Levels, so per-start summaries are self-contained.
	PerStart []anneal.Result[DesignPoint]
	// Quarantined counts distinct design points whose evaluation failed
	// during the run; the annealers treated them as infeasible and moved
	// on. Poisoned lists them with stage and reason, sorted by point.
	Quarantined int
	Poisoned    []QuarantinedPoint
}

// OptimizeOptions tunes the context-first optimizer entrypoint beyond
// the paper's fixed annealing schedule. The zero value (or a nil
// pointer) streams no progress, tolerates any number of failed points
// and sizes the worker pool to GOMAXPROCS.
type OptimizeOptions struct {
	// Progress, when non-nil, streams incremental incumbents: one update
	// per new best feasible evaluation, with Phase "anneal". See
	// ProgressFunc for the synchronization contract.
	Progress ProgressFunc
	// MaxFailures bounds the quarantine ledger: once more than
	// MaxFailures distinct points have failed, the run aborts with
	// ErrTooManyFailures. 0 (the default) tolerates any number — failed
	// points are rejected like infeasible ones and the search continues.
	MaxFailures int
	// FailFast aborts the run on the first failed evaluation, returning
	// the *EvalError itself instead of quarantining the point.
	FailFast bool
	// Parallel bounds the multi-start worker pool: at most Parallel
	// annealing chains run concurrently, and each chain's
	// initialization samples are evaluated by Parallel workers too. 0
	// (the default) uses runtime.GOMAXPROCS(0). Results are identical
	// for any value: chains keep their per-start PRNG streams,
	// initialization pre-draws its samples from the chain stream before
	// fanning out, and cross-start objective ties resolve by
	// DesignPoint.Less, the BetterPoint order the progress stream and
	// the sweep use.
	Parallel int
}

// initAttempts bounds the random search for a feasible starting MCM on
// the full design space; smaller spaces get a proportionally smaller
// budget so the initialization does not trivially exhaust them.
const initAttempts = 400

// initBudget scales the initialization sampling to the space.
func initBudget(space Space) int {
	b := space.Size() / 6
	if b > initAttempts {
		b = initAttempts
	}
	if b < 10 {
		b = 10
	}
	return b
}

// screenFn is the cheap first look start sampling takes at a draw: the
// draw's objective and whether it may still be feasible. A draw whose
// screen says no must be infeasible; a survivor's objective must be the
// one it has if feasible.
type screenFn func(DesignPoint) (obj float64, survives bool, err error)

// sampleFeasibleStart draws budget uniform samples from the space and
// returns the best feasible one, ties going to the earliest draw — the
// Fig. 4 "initialize with a feasible MCM" step, shared by the TESA
// optimizer and the baseline adoptions. The feasible set can be
// fragmented (infeasible candidates are always rejected, so an annealer
// cannot cross an infeasible band), which makes the starting basin
// decisive.
//
// The draws are taken from rng up front and screened by up to workers
// goroutines. The survivors, in draw order with repeats dropped, are
// stably sorted by objective and evaluated one at a time until the
// first feasible one, which is that argmin: every feasible draw
// survives with its final objective. A draw whose screen fails goes to
// eval too, so it fails (and is quarantined) like any evaluation. The
// start is identical for every pool width. On cancellation it reports
// ok=false and the caller surfaces ctx.Err().
func (e *Evaluator) sampleFeasibleStart(ctx context.Context, space Space, rng *rand.Rand, budget, workers int,
	screen screenFn, eval func(DesignPoint) (*Evaluation, error), feas feasibleFn) (DesignPoint, bool) {
	draws := make([]DesignPoint, budget)
	for i := range draws {
		draws[i] = space.Random(rng)
	}
	if workers > budget {
		workers = budget
	}
	objs := make([]float64, budget)
	survives := make([]bool, budget)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= budget || ctx.Err() != nil {
					return
				}
				o, ok, err := screen(draws[i])
				if err != nil {
					_, _ = eval(draws[i])
				}
				objs[i], survives[i] = o, ok && err == nil
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return DesignPoint{}, false
	}
	e.tel.Registry().Counter("start.screened").Add(int64(budget))
	order := make([]int, 0, budget)
	seen := make(map[DesignPoint]bool, budget)
	for i, p := range draws {
		if survives[i] && !seen[p] {
			seen[p] = true
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return objs[order[a]] < objs[order[b]] })
	for _, i := range order {
		if ctx.Err() != nil {
			return DesignPoint{}, false
		}
		e.tel.Registry().Counter("start.thermal").Inc()
		if ev, err := eval(draws[i]); err == nil && feas(ev) {
			return draws[i], true
		}
	}
	return DesignPoint{}, false
}

// OptimizeContext runs the paper's multi-start simulated annealing over
// the design space (Fig. 4): three parallel annealers with decays 0.89,
// 0.87 and 0.85, T_a from 19 down to 0.5, and 10 perturbations per
// level. Infeasible candidates are rejected outright; feasible ones
// compete on the Eq. (6) objective.
//
// Cancellation: every annealer observes ctx between evaluations, so
// cancelling (or a deadline) stops the run within one evaluation's
// latency, joins all worker goroutines, and returns ctx.Err().
//
// When no annealer finds a feasible starting configuration — the
// paper's "solution does not exist" outcome — the error wraps
// ErrNoFeasibleStart and the returned result still carries the
// exploration counters (match with errors.Is).
func (e *Evaluator) OptimizeContext(ctx context.Context, space Space, seed int64, opt *OptimizeOptions) (*OptimizeResult, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	var o OptimizeOptions
	if opt != nil {
		o = *opt
	}
	var progress *progressReporter
	if o.Progress != nil {
		progress = newProgressReporter(o.Progress, "anneal", 0)
	}
	// runCtx lets the failure policy stop all annealers without
	// affecting the caller's context.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	budget := initBudget(space)
	workers := o.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	feasible := func(ev *Evaluation) bool { return ev.Feasible }
	// The eval closures track the run-wide incumbent and the quarantine
	// ledger under mu so the three parallel annealers stream a single,
	// monotone sequence of improvements and share one failure budget.
	var (
		mu        sync.Mutex
		evalErr   error
		evals     int
		incumbent *Evaluation
		ledger    = make(map[DesignPoint]QuarantinedPoint)
	)
	fail := func(err error) {
		mu.Lock()
		if evalErr == nil {
			evalErr = err
			cancelRun() // stop every annealer within one evaluation
		}
		mu.Unlock()
	}
	// evalQ is the quarantining evaluation shared by the initialization
	// sampling and the annealers: a point-local failure lands in the
	// ledger (deduplicated — the evaluator memoizes failures, so
	// revisits return the same error) and the search continues unless
	// the MaxFailures/FailFast policy says otherwise; any other error
	// aborts the run.
	evalQ := func(p DesignPoint) (*Evaluation, error) {
		ev, err := e.EvaluateContext(runCtx, p)
		if err == nil {
			return ev, nil
		}
		ee, pointLocal := asEvalError(err)
		if !pointLocal {
			fail(err)
			return nil, err
		}
		mu.Lock()
		if _, dup := ledger[p]; !dup {
			ledger[p] = QuarantinedPoint{Point: p, Stage: ee.Stage, Reason: ee.Reason()}
		}
		n := len(ledger)
		mu.Unlock()
		if o.FailFast {
			fail(ee)
		} else if o.MaxFailures > 0 && n > o.MaxFailures {
			fail(fmt.Errorf("%w: %d points quarantined (limit %d), last: %v",
				ErrTooManyFailures, n, o.MaxFailures, ee))
		}
		return nil, err
	}
	init := func(rng *rand.Rand) (DesignPoint, bool) {
		return e.sampleFeasibleStart(runCtx, space, rng, budget, workers, e.screen, evalQ, feasible)
	}
	eval := func(p DesignPoint) (float64, bool) {
		ev, err := evalQ(p)
		if err != nil {
			// Failed points are rejected exactly like infeasible ones;
			// the annealer backs away and keeps searching.
			return 0, false
		}
		mu.Lock()
		evals++
		if ev.Feasible && (incumbent == nil || betterEval(ev, incumbent)) {
			incumbent = ev
			progress.emit(evals, incumbent, true, len(ledger))
		}
		mu.Unlock()
		return ev.Objective, ev.Feasible
	}
	cfgs := anneal.DefaultStarts(seed)
	if e.tel.Enabled() {
		// Bridge annealer progress (per-level events, move counters)
		// into the hub; the observer is shared across the parallel
		// starts and each event carries its Start index.
		obs := &annealObserver{tel: e.tel}
		for i := range cfgs {
			cfgs[i].Observer = obs
		}
	}
	span := e.tel.StartSpan("optimize.total")
	best, per, err := anneal.MultiStart(runCtx, cfgs, workers, DesignPoint.Less, init, space.Neighbor, eval)
	span.End()
	// The failure policy cancels runCtx, so the annealers report a bare
	// context.Canceled; the recorded evalErr is the real cause and must
	// win.
	mu.Lock()
	ferr := evalErr
	poisoned := make([]QuarantinedPoint, 0, len(ledger))
	for _, q := range ledger {
		poisoned = append(poisoned, q)
	}
	mu.Unlock()
	sort.Slice(poisoned, func(i, j int) bool { return poisoned[i].Point.Less(poisoned[j].Point) })
	if ferr != nil {
		return nil, ferr
	}
	if err != nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		// The annealers may all have wound down between the last
		// evaluation and the cancellation edge; report it regardless.
		return nil, cerr
	}
	res := &OptimizeResult{
		Found:        best.Found,
		Evaluations:  best.Evaluations,
		Explored:     e.Explored(),
		CacheHitRate: e.CacheHitRate(),
		Duration:     best.Duration,
		PerStart:     per,
		Quarantined:  len(poisoned),
		Poisoned:     poisoned,
	}
	if best.Found {
		ev, err := e.evaluate(best.Best, false)
		if err != nil {
			return nil, err
		}
		if ev.Compact() {
			// The winner's memoized DSE evaluation was served compact from
			// a persistent memo record (no schedule/placement); the
			// reported incumbent must carry the full structures, so
			// re-evaluate in reporting mode.
			if ev, err = e.evaluate(best.Best, true); err != nil {
				return nil, err
			}
		}
		res.Best = ev
	}
	if e.tel.Tracing() {
		// Aggregate per-start progress into one run-level trace record.
		fields := map[string]any{
			"found":       res.Found,
			"evaluations": res.Evaluations,
			"explored":    res.Explored,
			"hit_rate":    res.CacheHitRate,
			"duration_ms": float64(best.Duration.Microseconds()) / 1e3,
			"starts":      len(per),
			"quarantined": res.Quarantined,
		}
		if res.Found {
			fields["best_obj"] = res.Best.Objective
		}
		e.tel.Emit("optimize.done", fields)
	}
	if !res.Found {
		return res, ErrNoFeasibleStart
	}
	return res, nil
}

// betterEval orders feasible evaluations for incumbent selection; see
// BetterPoint for the deterministic tie-break.
func betterEval(a, b *Evaluation) bool {
	return BetterPoint(a.Objective, a.Point, b.Objective, b.Point)
}
