package jobspec

import (
	"context"
	"errors"
	"math"

	"tesa/internal/core"
	"tesa/internal/memo"
	"tesa/internal/telemetry"
)

// Runtime is the process-level state a job executes against. All fields
// are optional: the zero Runtime runs the job isolated and unobserved.
type Runtime struct {
	// Store is the shared memoization store (nil = a private store per
	// job). tesa-server passes its process-wide store here so concurrent
	// jobs hit each other's warm entries.
	Store *memo.Store
	// Tel is the shared observability hub (nil = disabled).
	Tel *telemetry.Telemetry
	// Progress receives the job's incremental updates (nil = none).
	Progress core.ProgressFunc
	// Parallel bounds the annealer's multi-start worker pool
	// (OptimizeOptions.Parallel); 0 keeps the legacy schedule.
	Parallel int
}

// Run executes a resolved job to completion and returns its wire-form
// result. The mapping from spec to engine is exactly the CLIs': an
// optimize job is Evaluator.OptimizeContext, a sweep job is
// Evaluator.ExhaustiveContext, a pareto job is the tesa-pareto weight
// loop, and a sim job is the tesa-sim coupling (static evaluation, then
// Evaluator.Simulate and SimulateDistribution) — so a spec produces
// bit-identical numbers whether it runs here, in a CLI, or behind
// tesa-server.
//
// "No feasible configuration" is a result (Found=false), not an error;
// cancellation and deadline expiry surface ctx's error. The spec's own
// DeadlineSec, when set, bounds the run in addition to ctx.
func Run(ctx context.Context, r *Resolved, rt Runtime) (*Result, error) {
	if r.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Deadline)
		defer cancel()
	}
	if rt.Store == nil {
		rt.Store = memo.NewStore()
	}
	switch r.Kind {
	case KindSweep:
		return runSweep(ctx, r, rt)
	case KindPareto:
		return runPareto(ctx, r, rt)
	case KindSim:
		return runSim(ctx, r, rt)
	default:
		return runOptimize(ctx, r, rt)
	}
}

// NewEvaluator builds the job's evaluator wired into the runtime — the
// exact construction the executors use, exported so distributed-sweep
// coordinators and workers evaluate a spec identically to a local run
// (same options, constraints, fault plan, and stage timeout).
func NewEvaluator(r *Resolved, rt Runtime) (*core.Evaluator, error) {
	return newEvaluator(r, r.Opts, rt)
}

// newEvaluator builds one job evaluator wired into the runtime.
func newEvaluator(r *Resolved, opts core.Options, rt Runtime) (*core.Evaluator, error) {
	ev, err := core.NewEvaluator(r.Workload, opts, r.Cons, core.Models{})
	if err != nil {
		return nil, err
	}
	ev.Instrument(rt.Tel)
	if rt.Store != nil {
		ev.UseMemo(rt.Store)
	}
	ev.InjectFaults(r.FaultPlan)
	if r.StageTimeout > 0 {
		ev.SetStageTimeout(r.StageTimeout)
	}
	return ev, nil
}

func runOptimize(ctx context.Context, r *Resolved, rt Runtime) (*Result, error) {
	ev, err := newEvaluator(r, r.Opts, rt)
	if err != nil {
		return nil, err
	}
	opt := &core.OptimizeOptions{
		Progress:    rt.Progress,
		MaxFailures: r.MaxFailures,
		FailFast:    r.FailFast,
		Parallel:    rt.Parallel,
	}
	res, err := ev.OptimizeContext(ctx, r.Space, r.Seed, opt)
	if err != nil && !errors.Is(err, core.ErrNoFeasibleStart) {
		return nil, err
	}
	return FromOptimize(res), nil
}

func runSweep(ctx context.Context, r *Resolved, rt Runtime) (*Result, error) {
	ev, err := newEvaluator(r, r.Opts, rt)
	if err != nil {
		return nil, err
	}
	opt := &core.SweepOptions{
		ShardSize:   r.ShardSize,
		Progress:    rt.Progress,
		MaxFailures: r.MaxFailures,
		FailFast:    r.FailFast,
	}
	res, err := ev.ExhaustiveContext(ctx, r.Space, opt)
	if err != nil {
		return nil, err
	}
	return FromSweep(res), nil
}

// runSim evaluates the sim job's design point statically, then couples
// it to the DES scenario engine: one base-seed run for per-tenant
// detail plus the resolved N-draw scenario distribution. A point that
// does not fit the interposer is a result (Found=false), not an error;
// a scenario whose trace poisons the thermal solver surfaces as the
// evaluator's structured error.
func runSim(ctx context.Context, r *Resolved, rt Runtime) (*Result, error) {
	ev, err := newEvaluator(r, r.Opts, rt)
	if err != nil {
		return nil, err
	}
	full, err := ev.EvaluateFullContext(ctx, r.SimPoint)
	if err != nil {
		return nil, err
	}
	if !full.Fits {
		return &Result{Kind: KindSim}, nil
	}
	base, err := ev.Simulate(ctx, full, r.Scenario, nil)
	if err != nil {
		return nil, err
	}
	score, err := ev.SimulateDistribution(ctx, full, r.Scenario, r.SimDraws)
	if err != nil {
		return nil, err
	}
	return FromSim(full, base, score), nil
}

// runPareto is the tesa-pareto weight loop: ParetoPoints settings from
// cost-only to DRAM-only, each optimized by a fresh evaluator that
// shares the runtime's store and hub (the weights enter the objective,
// not the pipeline, so every weight-independent sub-result is reused).
func runPareto(ctx context.Context, r *Resolved, rt Runtime) (*Result, error) {
	if r.ParetoFront == "nsga2" {
		return runParetoNSGA2(ctx, r, rt)
	}
	out := &Result{Kind: KindPareto, FrontEngine: "weights"}
	seen := map[core.DesignPoint]bool{}
	poisoned := map[core.DesignPoint]bool{}
	for i := 0; i < r.ParetoPoints; i++ {
		// Sweep the weight angle from cost-only to DRAM-only, exactly as
		// cmd/tesa-pareto does (the spec's own alpha/beta are ignored —
		// a pareto job traces the whole front).
		frac := float64(i) / float64(r.ParetoPoints-1)
		opts := r.Opts
		opts.Alpha = 1 - frac
		opts.Beta = frac
		if opts.Alpha == 0 {
			opts.Alpha = 1e-9 // keep the objective well-defined
		}
		if opts.Beta == 0 {
			opts.Beta = 1e-9
		}
		ev, err := newEvaluator(r, opts, rt)
		if err != nil {
			return nil, err
		}
		opt := &core.OptimizeOptions{
			Progress:    rt.Progress,
			MaxFailures: r.MaxFailures,
			FailFast:    r.FailFast,
			Parallel:    rt.Parallel,
		}
		res, err := ev.OptimizeContext(ctx, r.Space, r.Seed, opt)
		if res != nil {
			out.Evaluations += res.Evaluations
			out.Explored += res.Explored
			out.Screened += res.Screened
			for _, q := range res.Poisoned {
				poisoned[q.Point] = true
			}
		}
		fp := FrontPoint{Alpha: fin(opts.Alpha), Beta: fin(opts.Beta)}
		switch {
		case errors.Is(err, core.ErrNoFeasibleStart):
			// A weight with no solution stays on the front as a gap.
		case err != nil:
			return nil, err
		default:
			fp.Found = true
			fp.Best = bestOf(res.Best)
			fp.Duplicate = seen[res.Best.Point]
			seen[res.Best.Point] = true
			out.Found = true
		}
		out.Front = append(out.Front, fp)
	}
	out.Quarantined = len(poisoned)
	// Front stays in weight order; objectives are not comparable across
	// weight settings, so there is no overall Best for a pareto job.
	return out, nil
}

// runParetoNSGA2 is the true multi-objective front: one NSGA-II
// population evolved over (cost, DRAM power, peak temperature), every
// reported member re-evaluated at full fidelity by the engine. Unlike
// the weight sweep there is no alpha/beta per point — the front IS the
// trade-off surface, so Alpha/Beta stay zero and Crowding carries the
// diversity metric instead.
func runParetoNSGA2(ctx context.Context, r *Resolved, rt Runtime) (*Result, error) {
	ev, err := newEvaluator(r, r.Opts, rt)
	if err != nil {
		return nil, err
	}
	front, err := ev.NSGA2FrontContext(ctx, r.Space, r.Seed, &core.FrontOptions{
		Pop:      r.ParetoPop,
		Gens:     r.ParetoGens,
		Progress: rt.Progress,
	})
	if err != nil && !errors.Is(err, core.ErrNoFeasibleStart) {
		return nil, err
	}
	out := &Result{
		Kind:        KindPareto,
		FrontEngine: "nsga2",
		Found:       len(front) > 0,
		Evaluations: ev.Evaluations(),
		Explored:    ev.Explored(),
		Quarantined: ev.QuarantinedCount(),
	}
	for _, m := range front {
		crowding := m.Crowding
		if math.IsInf(crowding, 1) {
			crowding = -1 // objective-extreme member; keep the JSON finite
		}
		out.Front = append(out.Front, FrontPoint{
			Found:    true,
			Best:     bestOf(m.Eval),
			Crowding: fin(crowding),
		})
	}
	return out, nil
}
