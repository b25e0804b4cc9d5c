package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// ExhaustiveResult is the outcome of a full design-space sweep.
type ExhaustiveResult struct {
	// Best is the global optimum, nil when nothing is feasible. Under
	// objective ties the lexicographically smallest design point wins
	// (see DesignPoint.Less), so repeated sweeps agree.
	Best *Evaluation
	// Front is the exact non-dominated front over (MCM cost, DRAM power,
	// peak temperature): every feasible point no other feasible point
	// dominates, sorted by (cost, DRAM, peak) and then by
	// DesignPoint.Less; empty when nothing is feasible. Members are the
	// sweep's own DSE-mode evaluations, which on a feasible point carry
	// the same scalars a reporting-mode evaluation would; a member served
	// from a persistent memo record is Compact (scalars only).
	Front []*Evaluation
	// Feasible counts feasible points; Total is the space size.
	Feasible, Total int
	// Evaluated counts points evaluated (including points whose
	// evaluation failed and was quarantined); Evaluated == Total on a
	// completed sweep.
	Evaluated int
	// Quarantined counts design points whose evaluation failed; the
	// sweep skipped them and continued. Poisoned lists them with stage
	// and reason, sorted by design point.
	Quarantined int
	Poisoned    []QuarantinedPoint
}

// SweepOptions tunes the exhaustive engine. The zero value (or a nil
// pointer) runs a plain sweep that tolerates any number of failures.
type SweepOptions struct {
	// Progress, when non-nil, streams one update per evaluated point
	// with Phase "sweep"; Improved marks updates that found a new
	// incumbent. See ProgressFunc for the synchronization contract.
	Progress ProgressFunc
	// MaxFailures bounds the quarantine ledger: once more than
	// MaxFailures points have been quarantined the sweep aborts with
	// ErrTooManyFailures. 0 (the default) tolerates any number of
	// quarantined points.
	MaxFailures int
	// FailFast aborts the sweep on the first failed evaluation instead
	// of quarantining it, returning the *EvalError itself — the
	// pre-hardening behavior, useful when any failure indicates a
	// modeling bug rather than a pathological corner of the space.
	FailFast bool
}

// ExhaustiveContext evaluates every design vector in the space and
// returns the global optimum of Eq. (6) and the exact cost/DRAM
// power/peak temperature front. The paper uses this on a small
// validation sub-space to certify the optimizer (Sec. IV-A); it is also
// how the "an exhaustive evaluation can take multiple days" claim is
// quantified against the annealer's <15% exploration.
//
// The sweep is one queue of points in Space.Enumerate order:
// GOMAXPROCS workers drain it, and each outcome merges into the
// result under one lock, the incumbent under the BetterPoint order and
// the front through a non-dominated archive, so neither depends on
// completion order. Every evaluation observes ctx, so cancellation
// stops the sweep within one evaluation's latency, joins every worker,
// and returns ctx.Err().
func (e *Evaluator) ExhaustiveContext(ctx context.Context, space Space, opt *SweepOptions) (*ExhaustiveResult, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	var o SweepOptions
	if opt != nil {
		o = *opt
	}
	pts := space.Enumerate()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pts) {
		workers = len(pts)
	}
	res := &ExhaustiveResult{Total: len(pts)}
	progress := newProgressReporter(o.Progress, "sweep", len(pts))

	span := e.tel.StartSpan("sweep.total")
	defer span.End()

	// sweepCtx lets the first failure stop the other workers without
	// affecting the caller's context.
	sweepCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex // guards res, best, front, firstErr
		best     *Evaluation
		front    []*Evaluation
		firstErr error
	)
	// merge folds one point's outcome into the result and enforces the
	// failure policy. It returns false once the sweep is aborting, which
	// stops the calling worker.
	merge := func(ev *Evaluation, err error) bool {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil {
			return false
		}
		abort := func(err error) bool {
			firstErr = err
			cancel() // siblings fail at their next point
			return false
		}
		improved := false
		if err != nil {
			ee, pointLocal := asEvalError(err)
			if !pointLocal {
				return abort(err)
			}
			res.Evaluated++
			res.Quarantined++
			res.Poisoned = append(res.Poisoned, QuarantinedPoint{Point: ee.Point, Stage: ee.Stage, Reason: ee.Reason(), Trace: ee.Trace})
			if o.FailFast {
				return abort(ee)
			}
			if o.MaxFailures > 0 && res.Quarantined > o.MaxFailures {
				return abort(fmt.Errorf("%w: %d points quarantined (limit %d), last: %v",
					ErrTooManyFailures, res.Quarantined, o.MaxFailures, ee))
			}
		} else {
			res.Evaluated++
			if ev.Feasible {
				res.Feasible++
				if best == nil || betterEval(ev, best) {
					best, improved = ev, true
				}
				front = foldFront(front, ev)
			}
		}
		progress.emit(res.Evaluated, best, improved, res.Quarantined)
		return true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pts) || !merge(e.sweepPoint(sweepCtx, pts[i])) {
					return
				}
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		if errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded) {
			return nil, firstErr
		}
		return nil, fmt.Errorf("core: exhaustive sweep: %w", firstErr)
	}
	if best != nil && best.Compact() {
		// The winner was served from a persistent memo record; upgrade it
		// so the reported Best carries the schedule and placement.
		ev, err := e.EvaluateFullContext(ctx, best.Point)
		if err != nil {
			return nil, err
		}
		best = ev
	}
	res.Best = best
	sortFront(front)
	res.Front = front
	// Workers append ledger entries in completion order; sort for a
	// deterministic report.
	sort.Slice(res.Poisoned, func(i, j int) bool { return res.Poisoned[i].Point.Less(res.Poisoned[j].Point) })
	if e.tel.Tracing() {
		fields := map[string]any{
			"total":       res.Total,
			"feasible":    res.Feasible,
			"evaluated":   res.Evaluated,
			"found":       res.Best != nil,
			"quarantined": res.Quarantined,
		}
		if res.Best != nil {
			fields["best_obj"] = res.Best.Objective
		}
		e.tel.Emit("sweep.done", fields)
	}
	return res, nil
}

// sweepPoint is EvaluateContext behind a per-point recover. The
// pipeline's own recover already turns stage panics into EvalErrors,
// which the sweep quarantines; this guard catches a panic escaping the
// evaluator's bookkeeping and turns it into an engine error that aborts
// the sweep, instead of killing the process from a worker goroutine.
func (e *Evaluator) sweepPoint(ctx context.Context, p DesignPoint) (ev *Evaluation, err error) {
	defer func() {
		if r := recover(); r != nil {
			ev, err = nil, fmt.Errorf("%w: sweep point %v: %v", ErrStagePanic, p, r)
		}
	}()
	return e.EvaluateContext(ctx, p)
}

// BetterPoint is the sweep's deterministic incumbent order: strictly
// lower objective wins, exact ties break lexicographically on the
// design point. A strict total order over distinct points, so merging
// point results in any completion order yields the same winner.
func BetterPoint(aObj float64, aPt DesignPoint, bObj float64, bPt DesignPoint) bool {
	if aObj != bObj {
		return aObj < bObj
	}
	return aPt.Less(bPt)
}
