package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"tesa/internal/anneal"
)

// BaselineResult pairs a baseline's own pick (made under its reduced
// models) with the ground-truth evaluation of that pick under TESA's full
// models — the paper's Tables III and IV report exactly this "what the
// method chose" vs "what it actually does thermally".
type BaselineResult struct {
	Name string
	// Chosen is the evaluation under the baseline's own models (thermal
	// disabled, leakage ignored or linearized, constraints dropped...).
	Chosen *Evaluation
	// Actual is the same design point re-evaluated with the full TESA
	// models (exponential leakage, thermal analysis, all constraints).
	Actual *Evaluation
	// Found is false when the baseline itself found nothing feasible.
	Found bool
}

// objectiveFn scores an evaluation for the generalized optimizer;
// feasibleFn gates acceptance.
type objectiveFn func(*Evaluation) float64

type feasibleFn func(*Evaluation) bool

// optimizeObjective runs the multi-start annealer over an arbitrary
// objective/feasibility pair, on the pool width and tie order
// OptimizeContext uses by default (GOMAXPROCS, DesignPoint.Less). Every
// point is evaluated in reporting mode (EvaluateFullContext), because
// the W1/W2 objectives read temperatures of constraint-violating points.
// It observes ctx between evaluations and returns ctx.Err() when
// cancelled.
func (e *Evaluator) optimizeObjective(ctx context.Context, space Space, seed int64, obj objectiveFn, feas feasibleFn) (*Evaluation, bool, error) {
	eval := func(p DesignPoint) (*Evaluation, error) { return e.EvaluateFullContext(ctx, p) }
	// Start from the best feasible sample (see sampleFeasibleStart: the
	// feasible set can be fragmented, making the starting basin
	// decisive). The objective may read temperature, so the screen is a
	// whole evaluation.
	screen := func(p DesignPoint) (float64, bool, error) {
		ev, err := eval(p)
		if err != nil {
			return 0, false, err
		}
		return obj(ev), feas(ev), nil
	}
	budget, workers := initBudget(space), runtime.GOMAXPROCS(0)
	init := func(rng *rand.Rand) (DesignPoint, bool) {
		return e.sampleFeasibleStart(ctx, space, rng, budget, workers, screen, eval, feas)
	}
	var evalErr error
	var once sync.Once
	score := func(p DesignPoint) (float64, bool) {
		ev, err := eval(p)
		if err != nil {
			once.Do(func() { evalErr = err })
			return 0, false
		}
		return obj(ev), feas(ev)
	}
	best, _, err := anneal.MultiStart(ctx, anneal.DefaultStarts(seed), workers, DesignPoint.Less,
		init, space.Neighbor, score)
	if err != nil {
		return nil, false, err
	}
	if evalErr != nil {
		return nil, false, evalErr
	}
	if !best.Found {
		return nil, false, nil
	}
	ev, err := eval(best.Best)
	return ev, true, err
}

// groundTruth re-evaluates a baseline's pick at corner c under the full
// TESA models, at the search grid.
func (cfg *ExperimentConfig) groundTruth(ctx context.Context, c Corner, p DesignPoint) (*Evaluation, error) {
	e, err := cfg.newEvaluator(cfg.optionsFor(c))
	if err != nil {
		return nil, err
	}
	return e.EvaluateFullContext(ctx, p)
}

// RunSC1 builds the paper's first temperature-unaware baseline at
// corner c: maximum parallelism — each of the six DNNs runs
// simultaneously on a dedicated chiplet, at the maximum ICS of cfg.Space
// (1 mm) to be as charitable as possible about lateral coupling. The
// chiplet is the largest array whose derived six-chiplet mesh still fits
// at that spacing and that meets the latency and dynamic-power
// constraints (SC1 has no thermal or leakage model). Fig. 5 reports this
// baseline's real thermal behaviour. It returns ctx.Err() when ctx is
// cancelled.
func (cfg *ExperimentConfig) RunSC1(ctx context.Context, c Corner) (*BaselineResult, error) {
	opts, cons := cfg.optionsFor(c)
	opts.DisableThermal = true
	e, err := cfg.newEvaluator(opts, cons)
	if err != nil {
		return nil, err
	}
	maxICS := 0
	for _, ics := range cfg.Space.ICSUMs {
		if ics > maxICS {
			maxICS = ics
		}
	}
	res := &BaselineResult{Name: "SC1"}
	nDNN := len(cfg.Workload.Networks)
	for i := len(cfg.Space.ArrayDims) - 1; i >= 0; i-- {
		p := DesignPoint{ArrayDim: cfg.Space.ArrayDims[i], ICSUM: maxICS}
		ev, err := e.EvaluateContext(ctx, p)
		if err != nil {
			return nil, err
		}
		if !ev.Fits || ev.Mesh.Count() != nDNN || !ev.Feasible {
			continue
		}
		res.Chosen = ev
		res.Found = true
		res.Actual, err = cfg.groundTruth(ctx, c, p)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	return res, nil
}

// RunSC2 builds the paper's second baseline at corner c: chiplet sizing
// WITHOUT temperature — the full TESA optimizer over cfg.Space with the
// thermal and leakage models disabled and the power constraint applied
// to dynamic power only. Table IV reports what its picks actually do
// thermally, including the 3-D thermal-runaway rows. The search observes
// ctx.
func (cfg *ExperimentConfig) RunSC2(ctx context.Context, c Corner) (*BaselineResult, error) {
	opts, cons := cfg.optionsFor(c)
	opts.DisableThermal = true
	e, err := cfg.newEvaluator(opts, cons)
	if err != nil {
		return nil, err
	}
	res := &BaselineResult{Name: "SC2"}
	opt, err := e.OptimizeContext(ctx, cfg.Space, cfg.Seed, nil)
	if errors.Is(err, ErrNoFeasibleStart) {
		return res, nil
	}
	if err != nil {
		return nil, err
	}
	if !opt.Found {
		return res, nil
	}
	res.Chosen = opt.Best
	res.Found = true
	res.Actual, err = cfg.groundTruth(ctx, c, opt.Best.Point)
	return res, err
}

// RunW1 reproduces the paper's adoption of W1 (TAP-2.5D, Ma et al. DATE
// 2021) at corner c: objective "minimize peak temperature", no leakage
// model, and — in the original form — no performance or power
// constraints at all. With constraints=false this reproduces the Table
// III top row (the method happily picks the smallest, coolest chiplets
// and misses the latency target by a factor of ~40); with
// constraints=true it adds the latency and dynamic-power constraints and
// still lands on a thermally infeasible MCM at 75 C because leakage is
// ignored. The search observes ctx.
func (cfg *ExperimentConfig) RunW1(ctx context.Context, c Corner, constraints bool) (*BaselineResult, error) {
	opts, cons := cfg.optionsFor(c)
	opts.NoLeakage = true
	e, err := cfg.newEvaluator(opts, cons)
	if err != nil {
		return nil, err
	}
	res := &BaselineResult{Name: "W1"}
	if constraints {
		res.Name = "W1+constraints"
	}
	obj := func(ev *Evaluation) float64 { return ev.PeakTempC }
	feas := func(ev *Evaluation) bool {
		if !ev.Fits || math.IsNaN(ev.PeakTempC) {
			return false
		}
		if !constraints {
			return true
		}
		return ev.LatencyFactor <= 1 && ev.DynamicPowerW <= cons.PowerBudgetW
	}
	ev, found, err := e.optimizeObjective(ctx, cfg.Space, cfg.Seed, obj, feas)
	if err != nil || !found {
		return res, err
	}
	res.Chosen = ev
	res.Found = true
	res.Actual, err = cfg.groundTruth(ctx, c, ev.Point)
	return res, err
}

// RunW2 reproduces the paper's adoption of W2 (Coskun et al. TCAD 2020)
// at corner c: objective "minimize temperature + MCM cost + latency"
// (equally weighted normalized terms), no constraints in the original
// form, and a LINEAR leakage model that under-estimates leakage at high
// temperature. With constraints=true the latency and power constraints
// are added; the pick still violates the thermal budget once evaluated
// with the exponential model, the paper's point about linearized
// leakage. The search observes ctx.
func (cfg *ExperimentConfig) RunW2(ctx context.Context, c Corner, constraints bool) (*BaselineResult, error) {
	opts, cons := cfg.optionsFor(c)
	opts.LinearLeakage = true
	e, err := cfg.newEvaluator(opts, cons)
	if err != nil {
		return nil, err
	}
	res := &BaselineResult{Name: "W2"}
	if constraints {
		res.Name = "W2+constraints"
	}
	obj := func(ev *Evaluation) float64 {
		return ev.PeakTempC/cons.TempBudgetC +
			ev.MCMCost.Total/opts.RefCostUSD +
			ev.MakespanSec*cons.FPS/10
	}
	feas := func(ev *Evaluation) bool {
		if !ev.Fits || math.IsNaN(ev.PeakTempC) {
			return false
		}
		if !constraints {
			return true
		}
		return ev.LatencyFactor <= 1 && ev.TotalPowerW <= cons.PowerBudgetW
	}
	ev, found, err := e.optimizeObjective(ctx, cfg.Space, cfg.Seed, obj, feas)
	if err != nil || !found {
		return res, err
	}
	res.Chosen = ev
	res.Found = true
	res.Actual, err = cfg.groundTruth(ctx, c, ev.Point)
	return res, err
}

// Describe formats a baseline outcome the way the paper's tables do.
func (r *BaselineResult) Describe(cons Constraints) string {
	if !r.Found {
		return fmt.Sprintf("%s: no configuration found", r.Name)
	}
	a := r.Actual
	s := fmt.Sprintf("%s: %v, %v grid", r.Name, a.Point, a.Mesh)
	switch {
	case a.Runaway:
		s += " -> INFEASIBLE: thermal runaway"
	case a.LatencyFactor > 1:
		s += fmt.Sprintf(" -> INFEASIBLE: latency %.1fx the %.0f fps budget", a.LatencyFactor, cons.FPS)
	case a.PeakTempC > cons.TempBudgetC:
		s += fmt.Sprintf(" -> INFEASIBLE: peak %.1f C over the %.0f C budget", a.PeakTempC, cons.TempBudgetC)
	case a.TotalPowerW > cons.PowerBudgetW:
		s += fmt.Sprintf(" -> INFEASIBLE: power %.1f W over the %.0f W budget", a.TotalPowerW, cons.PowerBudgetW)
	default:
		s += fmt.Sprintf(" -> feasible (peak %.1f C)", a.PeakTempC)
	}
	return s
}
