package core

import (
	"context"
	"math/rand"
)

// Alternative search strategies, used to ablate the paper's choice of
// multi-start simulated annealing: a pure random search and a greedy hill
// climber at comparable evaluation budgets. The benchmark suite compares
// all three against the exhaustive optimum.

// RandomSearchContext evaluates `budget` uniform samples and returns
// the best feasible one. It observes ctx between evaluations; on
// cancellation it returns ctx.Err().
func (e *Evaluator) RandomSearchContext(ctx context.Context, space Space, seed int64, budget int) (*OptimizeResult, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	res := &OptimizeResult{}
	var best *Evaluation
	for i := 0; i < budget; i++ {
		ev, err := e.EvaluateContext(ctx, space.Random(rng))
		if err != nil {
			return nil, err
		}
		res.Evaluations++
		if ev.Feasible && (best == nil || betterEval(ev, best)) {
			best = ev
		}
	}
	res.Explored = e.Explored()
	if best != nil {
		res.Best, res.Found = best, true
	}
	return res, nil
}

// GreedySearchContext hill-climbs from the best of a handful of random
// feasible starts: at each step it evaluates a batch of neighbors and
// moves to the best feasible improvement, stopping when no neighbor
// improves. The total evaluation budget is shared with the restarts. It
// observes ctx between evaluations; on cancellation it returns
// ctx.Err().
func (e *Evaluator) GreedySearchContext(ctx context.Context, space Space, seed int64, budget int) (*OptimizeResult, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	res := &OptimizeResult{}
	var best *Evaluation
	spent := 0
	evaluate := func(p DesignPoint) (*Evaluation, error) {
		spent++
		return e.EvaluateContext(ctx, p)
	}

	for spent < budget {
		// Random feasible start.
		var cur *Evaluation
		for spent < budget {
			ev, err := evaluate(space.Random(rng))
			if err != nil {
				return nil, err
			}
			if ev.Feasible {
				cur = ev
				break
			}
		}
		if cur == nil {
			break
		}
		// Climb.
		for spent < budget {
			var bestNb *Evaluation
			const batch = 8
			for i := 0; i < batch && spent < budget; i++ {
				ev, err := evaluate(space.Neighbor(cur.Point, rng))
				if err != nil {
					return nil, err
				}
				if ev.Feasible && ev.Objective < cur.Objective &&
					(bestNb == nil || ev.Objective < bestNb.Objective) {
					bestNb = ev
				}
			}
			if bestNb == nil {
				break // local optimum
			}
			cur = bestNb
		}
		if best == nil || betterEval(cur, best) {
			best = cur
		}
	}
	res.Evaluations = spent
	res.Explored = e.Explored()
	if best != nil {
		res.Best, res.Found = best, true
	}
	return res, nil
}
