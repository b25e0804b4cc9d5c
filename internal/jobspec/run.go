package jobspec

import (
	"context"
	"errors"
	"io"
	"math"
	"sort"

	"tesa/internal/core"
	"tesa/internal/des"
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
	// Parallel is the width of the annealer's multi-start worker pool
	// (OptimizeOptions.Parallel) and bounds the workers of a sim job's
	// scenario draws (0 = GOMAXPROCS). It changes scheduling only,
	// never the job's answer.
	Parallel int
	// Events receives a sim job's base-seed event log, its draw 0, as
	// JSONL (nil = none).
	Events io.Writer
}

// Outcome is the engine-level result of one executed job: what Run
// projects into the wire-form Result and what the tesa command renders
// as text. Only the fields of the job's kind are set.
type Outcome struct {
	// Kind is the executed job kind; FrontEngine the front engine of a
	// pareto job ("weights" or "nsga2").
	Kind        string
	FrontEngine string
	// Evaluator is the job's evaluator — for a weights front, the last
	// weight setting's — with its counters and quarantine ledger. It is
	// set even when execution fails after building it.
	Evaluator *core.Evaluator
	// Optimize is an optimize job's annealer result (Found is false when
	// no feasible configuration exists).
	Optimize *core.OptimizeResult
	// Sweep is a sweep job's exhaustive result.
	Sweep *core.ExhaustiveResult
	// Weights are a weights front's completed settings, in weight order;
	// on cancellation they hold the settings swept before it.
	Weights []WeightRun
	// Front is an nsga2 front's members (empty when nothing is feasible).
	Front []core.FrontMember
	// Point is a sim job's static evaluation; when it fits the
	// interposer, Base is the base-seed scenario run (draw 0) and Score
	// the N-draw distribution score.
	Point *core.Evaluation
	Base  *des.Result
	Score *core.SimScore
}

// WeightRun is one Eq. (6) weight setting of a weights front.
type WeightRun struct {
	// Alpha and Beta are the setting's objective weights.
	Alpha, Beta float64
	// Res is the setting's annealer result (Found is false when the
	// setting has no feasible configuration).
	Res *core.OptimizeResult
}

// Run executes a resolved job to completion and returns its wire-form
// result: Execute followed by Outcome.Result. The tesa command and
// tesa-server both go through Execute, so the spec-to-engine mapping is
// shared by construction and a spec produces bit-identical numbers
// wherever it runs.
//
// "No feasible configuration" is a result (Found=false), not an error;
// cancellation and deadline expiry surface ctx's error. The spec's own
// DeadlineSec, when set, bounds the run in addition to ctx.
func Run(ctx context.Context, r *Resolved, rt Runtime) (*Result, error) {
	out, err := Execute(ctx, r, rt)
	if err != nil {
		return nil, err
	}
	return out.Result(), nil
}

// Execute runs a resolved job on its engine and returns the engine-level
// outcome: an optimize job is Evaluator.OptimizeContext, a sweep job
// Evaluator.ExhaustiveContext, a pareto job the Eq. (6) weight loop or
// Evaluator.NSGA2FrontContext, and a sim job the point's static
// evaluation followed by Evaluator.SimulateDistribution.
// On error the outcome still carries what ran before it (the evaluator,
// completed weight settings).
func Execute(ctx context.Context, r *Resolved, rt Runtime) (*Outcome, error) {
	if r.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Deadline)
		defer cancel()
	}
	if rt.Store == nil {
		rt.Store = memo.NewStore()
	}
	out := &Outcome{Kind: r.Kind}
	var err error
	switch r.Kind {
	case KindSweep:
		err = out.sweep(ctx, r, rt)
	case KindPareto:
		out.FrontEngine = r.ParetoFront
		if r.ParetoFront == "nsga2" {
			err = out.nsga2(ctx, r, rt)
		} else {
			err = out.weights(ctx, r, rt)
		}
	case KindSim:
		err = out.sim(ctx, r, rt)
	default:
		out.Optimize, err = out.optimize(ctx, r, r.Opts, rt)
	}
	return out, err
}

// NewEvaluator builds the job's evaluator wired into the runtime — the
// exact construction the executors use, exported so a caller that
// drives the evaluator directly evaluates a spec identically to an
// executed job (same options, constraints, fault plan, and stage
// timeout).
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

// optimize runs the multi-start annealer under opts. No feasible start
// is a result, not an error.
func (o *Outcome) optimize(ctx context.Context, r *Resolved, opts core.Options, rt Runtime) (*core.OptimizeResult, error) {
	ev, err := newEvaluator(r, opts, rt)
	if err != nil {
		return nil, err
	}
	o.Evaluator = ev
	res, err := ev.OptimizeContext(ctx, r.Space, r.Seed, &core.OptimizeOptions{
		Progress:    rt.Progress,
		MaxFailures: r.MaxFailures,
		FailFast:    r.FailFast,
		Parallel:    rt.Parallel,
	})
	if errors.Is(err, core.ErrNoFeasibleStart) {
		err = nil
	}
	return res, err
}

func (o *Outcome) sweep(ctx context.Context, r *Resolved, rt Runtime) error {
	ev, err := newEvaluator(r, r.Opts, rt)
	if err != nil {
		return err
	}
	o.Evaluator = ev
	o.Sweep, err = ev.ExhaustiveContext(ctx, r.Space, &core.SweepOptions{
		Progress:    rt.Progress,
		MaxFailures: r.MaxFailures,
		FailFast:    r.FailFast,
	})
	return err
}

// sim evaluates the sim job's design point statically, then couples it
// to the DES scenario engine: the resolved N-draw scenario distribution,
// whose draw 0 is the base-seed run that gives the per-tenant detail and
// the event log. A point that does not
// fit the interposer stops after the static evaluation; a scenario whose
// trace poisons the thermal solver surfaces as the evaluator's
// structured error.
func (o *Outcome) sim(ctx context.Context, r *Resolved, rt Runtime) error {
	ev, err := newEvaluator(r, r.Opts, rt)
	if err != nil {
		return err
	}
	o.Evaluator = ev
	if o.Point, err = ev.EvaluateFullContext(ctx, r.SimPoint); err != nil || !o.Point.Fits {
		return err
	}
	o.Base, o.Score, err = ev.SimulateDistribution(ctx, o.Point, r.Scenario, r.SimDraws, rt.Parallel, rt.Events)
	return err
}

// weights is the Eq. (6) weight loop: ParetoPoints settings from
// cost-only to DRAM-only (the spec's own alpha/beta are ignored — a
// pareto job traces the whole front), each optimized by a fresh
// evaluator that shares the runtime's store and hub (the weights enter
// the objective, not the pipeline, so every weight-independent
// sub-result is reused).
func (o *Outcome) weights(ctx context.Context, r *Resolved, rt Runtime) error {
	for i := 0; i < r.ParetoPoints; i++ {
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
		res, err := o.optimize(ctx, r, opts, rt)
		if err != nil {
			return err
		}
		o.Weights = append(o.Weights, WeightRun{Alpha: opts.Alpha, Beta: opts.Beta, Res: res})
	}
	return nil
}

// nsga2 evolves one NSGA-II population over (cost, DRAM power, peak
// temperature); the engine re-evaluates every reported member at full
// fidelity. An empty front is a result, not an error.
func (o *Outcome) nsga2(ctx context.Context, r *Resolved, rt Runtime) error {
	ev, err := newEvaluator(r, r.Opts, rt)
	if err != nil {
		return err
	}
	o.Evaluator = ev
	o.Front, err = ev.NSGA2FrontContext(ctx, r.Space, r.Seed, &core.FrontOptions{
		Pop:      r.ParetoPop,
		Gens:     r.ParetoGens,
		Progress: rt.Progress,
	})
	if errors.Is(err, core.ErrNoFeasibleStart) {
		err = nil
	}
	return err
}

// Poisoned is the job's quarantine ledger sorted by design point; a
// weights front reports the deduplicated union over its settings.
func (o *Outcome) Poisoned() []core.QuarantinedPoint {
	switch {
	case o.Optimize != nil:
		return o.Optimize.Poisoned
	case o.Sweep != nil:
		return o.Sweep.Poisoned
	case o.FrontEngine == "weights":
		seen := map[core.DesignPoint]bool{}
		var ledger []core.QuarantinedPoint
		for _, w := range o.Weights {
			for _, q := range w.Res.Poisoned {
				if !seen[q.Point] {
					seen[q.Point] = true
					ledger = append(ledger, q)
				}
			}
		}
		sort.Slice(ledger, func(i, j int) bool { return ledger[i].Point.Less(ledger[j].Point) })
		return ledger
	case o.Evaluator != nil:
		return o.Evaluator.QuarantineLedger()
	}
	return nil
}

// Result projects the outcome of a successfully executed job into the
// wire form.
func (o *Outcome) Result() *Result {
	switch {
	case o.Kind == KindSweep:
		return FromSweep(o.Sweep)
	case o.Kind == KindSim && !o.Point.Fits:
		return &Result{Kind: KindSim}
	case o.Kind == KindSim:
		return FromSim(o.Point, o.Base, o.Score)
	case o.FrontEngine == "nsga2":
		return o.nsga2Result()
	case o.Kind == KindPareto:
		return o.weightsResult()
	}
	return FromOptimize(o.Optimize)
}

// weightsResult projects a weights front: one FrontPoint per setting in
// weight order (a setting with no solution stays as a gap), with the
// annealer tallies summed. Objectives are not comparable across weight
// settings, so there is no overall Best.
func (o *Outcome) weightsResult() *Result {
	out := &Result{Kind: KindPareto, FrontEngine: "weights", Quarantined: len(o.Poisoned())}
	seen := map[core.DesignPoint]bool{}
	for _, w := range o.Weights {
		out.Evaluations += w.Res.Evaluations
		out.Explored += w.Res.Explored
		fp := FrontPoint{Alpha: fin(w.Alpha), Beta: fin(w.Beta)}
		if w.Res.Found {
			fp.Found = true
			fp.Best = bestOf(w.Res.Best)
			fp.Duplicate = seen[w.Res.Best.Point]
			seen[w.Res.Best.Point] = true
			out.Found = true
		}
		out.Front = append(out.Front, fp)
	}
	return out
}

// nsga2Result projects an NSGA-II front. Unlike the weight sweep there
// is no alpha/beta per point — the front IS the trade-off surface, so
// Alpha/Beta stay zero and Crowding carries the diversity metric.
func (o *Outcome) nsga2Result() *Result {
	ev := o.Evaluator
	out := &Result{
		Kind:        KindPareto,
		FrontEngine: "nsga2",
		Found:       len(o.Front) > 0,
		Evaluations: ev.Evaluations(),
		Explored:    ev.Explored(),
		Quarantined: ev.QuarantinedCount(),
	}
	for _, m := range o.Front {
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
	return out
}
