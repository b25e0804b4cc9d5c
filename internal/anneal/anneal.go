// Package anneal implements the multi-start simulated-annealing (MSA)
// optimizer of TESA's Fig. 4: each annealer starts from a feasible
// configuration, performs N perturbations per temperature level, accepts
// better feasible configurations unconditionally and worse ones with a
// Metropolis probability, decays the annealing temperature by a per-start
// factor delta, and converges when the temperature falls below the final
// threshold. Multiple starts run in parallel and the best result wins,
// increasing the probability of reaching the global optimum.
//
// The package is generic over the state type so TESA's design points,
// the baselines' restricted spaces, and test problems all share one
// engine.
package anneal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// ErrPanic marks a panic recovered from a caller-supplied callback
// (init, neighbor, eval, or an Observer). The annealers run inside
// MultiStart's worker goroutines, where an unrecovered panic would kill
// the whole process; MinimizeContext converts it into an error wrapping
// this sentinel instead.
var ErrPanic = errors.New("anneal: callback panic")

// Config parameterizes one annealer. The paper's validated settings are
// TInit=19, TFinal=0.5, N=10, with per-start decays 0.89, 0.87, 0.85
// (see DefaultStarts).
type Config struct {
	TInit                 float64 // initial annealing temperature (T_a)
	TFinal                float64 // convergence threshold
	Decay                 float64 // temperature multiplier per level (delta)
	PerturbationsPerLevel int     // N
	Seed                  int64   // deterministic PRNG seed

	// Start labels this annealer within a multi-start ensemble; it is
	// echoed in every Observer event (DefaultStarts numbers 0, 1, 2).
	Start int
	// Observer, when non-nil, receives lifecycle and per-temperature-
	// level events. Observers never influence the search: they see the
	// PRNG stream's results, not the PRNG. A shared Observer must be
	// safe for concurrent use — MultiStart runs annealers in parallel.
	Observer Observer
}

// Observer receives annealer progress. All callbacks run synchronously
// on the annealer's goroutine, so they must be cheap; expensive sinks
// should buffer.
type Observer interface {
	// AnnealStart fires once before the first temperature level.
	AnnealStart(StartEvent)
	// AnnealLevel fires after each completed temperature level.
	AnnealLevel(LevelEvent)
	// AnnealDone fires once per annealer, after convergence or when no
	// feasible start was found.
	AnnealDone(DoneEvent)
}

// StartEvent announces one annealer's configuration.
type StartEvent struct {
	Start  int
	TInit  float64
	TFinal float64
	Decay  float64
	Seed   int64
}

// LevelEvent reports one completed temperature level. The move counts
// are per-level (Accepted+Rejected == perturbations at this level);
// Evaluations is cumulative across the run.
type LevelEvent struct {
	Start       int
	Level       int     // 0-based temperature-level index
	Temperature float64 // T_a at this level
	CurObj      float64 // objective of the current state after the level
	BestObj     float64 // best objective so far
	Accepted    int     // moves accepted at this level
	Uphill      int     // accepted worsening moves at this level
	Rejected    int     // rejected moves at this level (incl. infeasible)
	Infeasible  int     // rejections due to constraint violations
	Evaluations int     // cumulative evaluations so far
	// Duration is the wall time this level took — the per-level latency
	// observability tooling plots to show where annealing time goes.
	Duration time.Duration
}

// DoneEvent summarizes one annealer's run.
type DoneEvent struct {
	Start       int
	Found       bool
	BestObj     float64 // meaningless when !Found
	Levels      int
	Evaluations int
	Accepted    int
	Uphill      int
	Duration    time.Duration
}

// Validate reports an error for unusable annealer settings.
func (c Config) Validate() error {
	if c.TInit <= 0 || c.TFinal <= 0 || c.TFinal >= c.TInit {
		return fmt.Errorf("anneal: need 0 < TFinal < TInit, got %g and %g", c.TFinal, c.TInit)
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		return fmt.Errorf("anneal: decay must be in (0,1), got %g", c.Decay)
	}
	if c.PerturbationsPerLevel <= 0 {
		return fmt.Errorf("anneal: non-positive perturbations per level %d", c.PerturbationsPerLevel)
	}
	return nil
}

// DefaultStarts returns the paper's three-start configuration.
func DefaultStarts(seed int64) []Config {
	mk := func(i int, delta float64, s int64) Config {
		return Config{TInit: 19, TFinal: 0.5, Decay: delta, PerturbationsPerLevel: 10, Seed: s, Start: i}
	}
	return []Config{
		mk(0, 0.89, seed),
		mk(1, 0.87, seed+1),
		mk(2, 0.85, seed+2),
	}
}

// Eval evaluates a state: its objective value and whether it satisfies
// every user-defined constraint. Infeasible states are always rejected
// (Fig. 4), so their objective value is ignored.
type Eval[S any] func(S) (obj float64, feasible bool)

// Neighbor produces a random perturbation of a state.
type Neighbor[S any] func(S, *rand.Rand) S

// Init produces a starting state; ok=false means no feasible start was
// found and the annealer reports failure.
type Init[S any] func(*rand.Rand) (state S, ok bool)

// Result reports one annealer's (or the multi-start ensemble's) outcome.
type Result[S any] struct {
	Best        S
	BestObj     float64
	Found       bool // false when no feasible configuration was ever seen
	Evaluations int  // perturbations evaluated
	Accepted    int  // accepted moves (better or Metropolis)
	Uphill      int  // accepted worsening moves
	// Levels is the number of temperature levels completed; for a
	// MultiStart ensemble it is the maximum over its starts.
	Levels int
	// Duration is the annealer's wall-clock time; for a MultiStart
	// ensemble it is the wall-clock time of the whole parallel run (not
	// the sum of its starts).
	Duration time.Duration
}

// MinimizeContext runs a single annealer per Fig. 4, observing ctx
// between evaluations: when ctx is cancelled or its deadline passes, the
// annealer stops within one evaluation's latency and returns ctx.Err()
// alongside the partial result gathered so far. The init function should
// itself observe ctx (it runs its own sampling loop); a ctx failure
// during init is still reported as ctx.Err() here.
func MinimizeContext[S any](ctx context.Context, cfg Config, init Init[S], neighbor Neighbor[S], eval Eval[S]) (res Result[S], err error) {
	if err := cfg.Validate(); err != nil {
		return Result[S]{}, err
	}
	// Registered first so it runs last: the observer and duration defers
	// below still fire while the panic unwinds, then the recover turns
	// it into an error carrying the partial result.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: start %d: %v", ErrPanic, cfg.Start, r)
		}
	}()
	rng := rand.New(rand.NewSource(cfg.Seed))
	began := time.Now()
	if obs := cfg.Observer; obs != nil {
		obs.AnnealStart(StartEvent{
			Start: cfg.Start, TInit: cfg.TInit, TFinal: cfg.TFinal,
			Decay: cfg.Decay, Seed: cfg.Seed,
		})
		defer func() {
			obs.AnnealDone(DoneEvent{
				Start: cfg.Start, Found: res.Found, BestObj: res.BestObj,
				Levels: res.Levels, Evaluations: res.Evaluations,
				Accepted: res.Accepted, Uphill: res.Uphill, Duration: res.Duration,
			})
		}()
	}
	defer func() { res.Duration = time.Since(began) }()

	if cerr := ctx.Err(); cerr != nil {
		return res, cerr
	}
	cur, ok := init(rng)
	if cerr := ctx.Err(); cerr != nil {
		return res, cerr
	}
	if !ok {
		return res, nil
	}
	curObj, feasible := eval(cur)
	res.Evaluations++
	if !feasible {
		// The contract is that init returns a feasible state; treat a
		// violation as "nothing found" rather than panicking, so callers
		// can surface the paper's "solution does not exist" outcome.
		return res, nil
	}
	res.Best, res.BestObj, res.Found = cur, curObj, true

	for ta := cfg.TInit; ta > cfg.TFinal; ta *= cfg.Decay {
		prevAcc, prevUp, infeasible := res.Accepted, res.Uphill, 0
		levelStart := time.Now()
		for i := 0; i < cfg.PerturbationsPerLevel; i++ {
			if cerr := ctx.Err(); cerr != nil {
				return res, cerr
			}
			cand := neighbor(cur, rng)
			obj, feas := eval(cand)
			res.Evaluations++
			if !feas {
				infeasible++
				continue // constraint violation: reject, next iteration
			}
			accept := false
			if obj < curObj {
				accept = true
			} else {
				// Metropolis: accept a worse configuration with
				// probability exp(-(obj-cur)/T_a) to escape local minima.
				p := math.Exp(-(obj - curObj) / ta)
				if rng.Float64() < p {
					accept = true
					res.Uphill++
				}
			}
			if accept {
				cur, curObj = cand, obj
				res.Accepted++
				if obj < res.BestObj {
					res.Best, res.BestObj = cand, obj
				}
			}
		}
		res.Levels++
		if obs := cfg.Observer; obs != nil {
			acc := res.Accepted - prevAcc
			obs.AnnealLevel(LevelEvent{
				Start:       cfg.Start,
				Level:       res.Levels - 1,
				Temperature: ta,
				CurObj:      curObj,
				BestObj:     res.BestObj,
				Accepted:    acc,
				Uphill:      res.Uphill - prevUp,
				Rejected:    cfg.PerturbationsPerLevel - acc,
				Infeasible:  infeasible,
				Evaluations: res.Evaluations,
				Duration:    time.Since(levelStart),
			})
		}
	}
	return res, nil
}

// MultiStart runs one annealer per config on a pool of at most workers
// goroutines (0, negative, or a value >= len(cfgs) runs every chain
// concurrently), drawing configs in index order, and returns the best
// result plus the per-start results. Each chain owns its config-seeded
// PRNG stream, so the pool width changes scheduling only: every
// per-start Result, and the ensemble winner, is identical for any width.
//
// Every chain observes ctx between evaluations (see MinimizeContext).
// On cancellation every start winds down within one evaluation's
// latency, the goroutines are joined (no leaks), and the first error —
// ctx.Err() in the cancellation case — is returned.
//
// less is required: among starts tied on BestObj, the state that orders
// first under less wins regardless of start index, so the ensemble
// winner does not depend on which chains happen to share the optimum.
func MultiStart[S any](ctx context.Context, cfgs []Config, workers int, less func(a, b S) bool, init Init[S], neighbor Neighbor[S], eval Eval[S]) (Result[S], []Result[S], error) {
	if len(cfgs) == 0 {
		return Result[S]{}, nil, fmt.Errorf("anneal: no starts configured")
	}
	if workers <= 0 || workers > len(cfgs) {
		workers = len(cfgs)
	}
	began := time.Now()
	results := make([]Result[S], len(cfgs))
	errs := make([]error, len(cfgs))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				results[i], errs[i] = MinimizeContext(ctx, cfgs[i], init, neighbor, eval)
			}
		}()
	}
	for i := range cfgs {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result[S]{}, nil, err
		}
	}
	var best Result[S]
	best.Duration = time.Since(began)
	for _, r := range results {
		best.Evaluations += r.Evaluations
		best.Accepted += r.Accepted
		best.Uphill += r.Uphill
		if r.Levels > best.Levels {
			best.Levels = r.Levels
		}
		better := r.Found && (!best.Found || r.BestObj < best.BestObj ||
			(r.BestObj == best.BestObj && less(r.Best, best.Best)))
		if better {
			best.Best, best.BestObj, best.Found = r.Best, r.BestObj, true
		}
	}
	return best, results, nil
}
