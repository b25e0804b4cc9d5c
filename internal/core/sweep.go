package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"tesa/internal/telemetry"
)

// ExhaustiveResult is the outcome of a full design-space sweep.
type ExhaustiveResult struct {
	// Best is the global optimum, nil when nothing is feasible. Under
	// objective ties the lexicographically smallest design point wins
	// (see DesignPoint.Less), so repeated sweeps agree.
	Best *Evaluation
	// Feasible counts feasible points; Total is the space size.
	Feasible, Total int
	// Evaluated counts points evaluated by this run (including points
	// whose evaluation failed and was quarantined); Resumed counts
	// points credited from a checkpoint — completed shards plus
	// previously poisoned points — instead of being re-evaluated.
	// Evaluated+Resumed == Total on a completed sweep.
	Evaluated, Resumed int
	// Shards is the number of shards in the sweep's decomposition.
	Shards int
	// Quarantined counts design points whose evaluation failed; the
	// sweep skipped them and continued. Poisoned lists them with stage
	// and reason, sorted by design point. Both include points credited
	// from a resumed checkpoint's poisoned records.
	Quarantined int
	Poisoned    []QuarantinedPoint
}

// SweepOptions tunes the sharded exhaustive engine. The zero value (or
// a nil pointer) runs a plain uncheckpointed sweep.
type SweepOptions struct {
	// ShardSize is the number of consecutive design points per shard —
	// the engine's unit of work distribution, checkpointing, and
	// progress reporting. 0 picks an automatic granularity (~16 shards
	// per worker, capped at 64 points) that keeps the checkpoint loss
	// window small relative to the space. When resuming, 0 adopts the
	// checkpoint's shard size; a non-zero value must match it.
	ShardSize int
	// Checkpoint, when non-nil, receives a header record plus one
	// record per completed shard, flushed record-by-record so a killed
	// run loses at most the shards in flight. Point it at a JSONL sink
	// over an append-mode file (telemetry.NewJSONLSink).
	Checkpoint telemetry.EventSink
	// ResumeFrom, when non-nil, credits the checkpointed shards without
	// re-evaluating them. The state must come from a sweep of the same
	// space with the same decomposition (ErrCheckpointCorrupt
	// otherwise).
	ResumeFrom *CheckpointState
	// Progress, when non-nil, streams one update per completed shard
	// with Phase "sweep"; Improved marks updates that found a new
	// incumbent. See ProgressFunc for the synchronization contract.
	Progress ProgressFunc
	// MaxFailures bounds the quarantine ledger: once more than
	// MaxFailures points have been quarantined (including ones credited
	// from a resumed checkpoint) the sweep aborts with
	// ErrTooManyFailures. 0 (the default) tolerates any number of
	// quarantined points.
	MaxFailures int
	// FailFast aborts the sweep on the first failed evaluation instead
	// of quarantining it, returning the *EvalError itself — the
	// pre-hardening behavior, useful when any failure indicates a
	// modeling bug rather than a pathological corner of the space.
	FailFast bool
	// RunID, when non-empty, is stamped into the checkpoint header so
	// the checkpoint stream can be joined against the run's manifest and
	// trace records (telemetry.Manifest.RunID). Resumed runs write their
	// own header with their own id; LoadCheckpoint keeps the first.
	RunID string
}

// ExhaustiveContext evaluates every design vector in the space and
// returns the global optimum of Eq. (6). The paper uses this on a small
// validation sub-space to certify the optimizer (Sec. IV-A); it is also
// how the "an exhaustive evaluation can take multiple days" claim is
// quantified against the annealer's <15% exploration.
//
// The sweep runs on a shard-based worker pool: the enumeration is cut into contiguous shards, GOMAXPROCS workers
// drain a shard queue, and each worker observes ctx between
// evaluations. Cancellation therefore stops the sweep within one
// evaluation's latency, joins every worker, and returns ctx.Err();
// completed shards are already in the checkpoint (if one was
// requested), so the run can be resumed with SweepOptions.ResumeFrom.
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
	size := o.ShardSize
	if size <= 0 && o.ResumeFrom != nil {
		size = o.ResumeFrom.ShardSize
	}
	if size <= 0 {
		size = autoShardSize(len(pts), workers)
	}
	nShards := (len(pts) + size - 1) / size
	fingerprint := space.Fingerprint()

	res := &ExhaustiveResult{Total: len(pts), Shards: nShards}
	// The incumbent: bestEval is nil when the current best comes from a
	// resumed checkpoint record (only the point and objective survive a
	// restart); it is re-evaluated once at the end — a single cache-warm
	// pipeline run — to rebuild the full Evaluation.
	var (
		found    bool
		bestPt   DesignPoint
		bestObj  float64
		bestEval *Evaluation
	)
	resumed := make(map[int]bool, nShards)
	// skip holds previously poisoned points: a resumed sweep credits
	// them instead of re-running a deterministic failure.
	var skip map[DesignPoint]QuarantinedPoint
	if o.ResumeFrom != nil {
		if err := o.ResumeFrom.validateFor(fingerprint, len(pts), size, nShards); err != nil {
			return nil, err
		}
		for idx, cp := range o.ResumeFrom.Done {
			resumed[idx] = true
			res.Feasible += cp.Feasible
			res.Resumed += shardLen(idx, size, len(pts))
			if cp.Found && (!found || BetterPoint(cp.BestObj, cp.Best, bestObj, bestPt)) {
				bestPt, bestObj, found, bestEval = cp.Best, cp.BestObj, true, nil
			}
		}
		skip = o.ResumeFrom.Poisoned
		for _, q := range skip {
			res.Poisoned = append(res.Poisoned, q)
		}
		res.Quarantined = len(skip)
	}
	if o.Checkpoint != nil {
		if err := writeCheckpointHeader(o.Checkpoint, fingerprint, len(pts), size, nShards, o.RunID); err != nil {
			return nil, fmt.Errorf("core: sweep checkpoint: %w", err)
		}
	}
	progress := newProgressReporter(o.Progress, "sweep", len(pts))
	if res.Resumed > 0 {
		progress.emit(res.Resumed, nil, false, res.Quarantined)
	}

	span := e.tel.StartSpan("sweep.total")
	defer span.End()

	// sweepCtx lets the first failing shard stop its siblings without
	// affecting the caller's context.
	sweepCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards res, incumbent, firstErr, doneN
		firstErr error
		doneN    = res.Resumed
	)
	// onPoison centralizes the quarantine path: workers call it under no
	// lock the moment an evaluation fails. It records the point, streams
	// a checkpoint.poisoned record immediately (a kill right after loses
	// nothing), and enforces the failure policy; a non-nil return aborts
	// the sweep.
	onPoison := func(ee *EvalError) error {
		q := QuarantinedPoint{Point: ee.Point, Stage: ee.Stage, Reason: ee.Reason(), Trace: ee.Trace}
		mu.Lock()
		defer mu.Unlock()
		res.Quarantined++
		res.Poisoned = append(res.Poisoned, q)
		if o.Checkpoint != nil {
			if err := writePoisonedCheckpoint(o.Checkpoint, q); err != nil {
				return fmt.Errorf("core: sweep checkpoint: %w", err)
			}
		}
		if o.FailFast {
			return ee
		}
		if o.MaxFailures > 0 && res.Quarantined > o.MaxFailures {
			return fmt.Errorf("%w: %d points quarantined (limit %d), last: %v",
				ErrTooManyFailures, res.Quarantined, o.MaxFailures, ee)
		}
		return nil
	}
	shardCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range shardCh {
				cp, nEval, nSkip, ev, err := e.runShard(sweepCtx, pts, idx, size, skip, onPoison)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
						cancel() // fail fast: siblings bail at their next point
					}
					mu.Unlock()
					continue
				}
				res.Feasible += cp.Feasible
				res.Evaluated += nEval
				res.Resumed += nSkip
				doneN += nEval + nSkip
				improved := false
				if cp.Found && (!found || BetterPoint(cp.BestObj, cp.Best, bestObj, bestPt)) {
					bestPt, bestObj, bestEval, found = cp.Best, cp.BestObj, ev, true
					improved = true
				}
				if o.Checkpoint != nil {
					if err := writeShardCheckpoint(o.Checkpoint, cp); err != nil && firstErr == nil {
						firstErr = fmt.Errorf("core: sweep checkpoint: %w", err)
						cancel()
					}
				}
				progress.emit(doneN, bestEval, improved, res.Quarantined)
				mu.Unlock()
			}
		}()
	}
	// Feed pending shards in order. Workers never stop consuming — on
	// cancellation the remaining shards fail fast at their first point —
	// so this loop cannot deadlock.
	for idx := 0; idx < nShards; idx++ {
		if !resumed[idx] {
			shardCh <- idx
		}
	}
	close(shardCh)
	wg.Wait()

	if firstErr != nil {
		if errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded) {
			return nil, firstErr
		}
		return nil, fmt.Errorf("core: exhaustive sweep: %w", firstErr)
	}
	if found && bestEval == nil {
		ev, err := e.EvaluateContext(ctx, bestPt)
		if err != nil {
			return nil, err
		}
		bestEval = ev
	}
	if found && bestEval.Compact() {
		// The winner was served from a persistent memo record; upgrade it
		// so the reported Best carries the schedule and placement.
		ev, err := e.EvaluateFullContext(ctx, bestPt)
		if err != nil {
			return nil, err
		}
		bestEval = ev
	}
	res.Best = bestEval
	// Workers append ledger entries in completion order; sort for a
	// deterministic report.
	sort.Slice(res.Poisoned, func(i, j int) bool { return res.Poisoned[i].Point.Less(res.Poisoned[j].Point) })
	if e.tel.Tracing() {
		fields := map[string]any{
			"total":       res.Total,
			"feasible":    res.Feasible,
			"evaluated":   res.Evaluated,
			"resumed":     res.Resumed,
			"shards":      res.Shards,
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

// runShard is sweepShard behind a per-worker recover: the pipeline's
// own recover already converts stage panics into EvalErrors, so this
// guard only catches panics escaping the shard bookkeeping itself — but
// either way a panic fails the shard, not the pool, and the worker
// keeps draining the queue (so the shard feeder cannot deadlock).
func (e *Evaluator) runShard(ctx context.Context, pts []DesignPoint, idx, size int,
	skip map[DesignPoint]QuarantinedPoint, onPoison func(*EvalError) error) (cp ShardCheckpoint, evaluated, skipped int, best *Evaluation, err error) {
	defer func() {
		if r := recover(); r != nil {
			best = nil
			err = fmt.Errorf("%w: sweep shard %d: %v", ErrStagePanic, idx, r)
		}
	}()
	return e.sweepShard(ctx, pts, idx, size, skip, onPoison)
}

// sweepShard evaluates one contiguous shard sequentially, returning its
// checkpoint record, its evaluated and skipped point counts, and the
// best feasible Evaluation (nil when none). Points in the skip set —
// poisoned in a previous run — are credited without evaluation; a fresh
// evaluation failure is reported to onPoison, whose non-nil return
// aborts the shard. The loop observes ctx before every evaluation.
func (e *Evaluator) sweepShard(ctx context.Context, pts []DesignPoint, idx, size int,
	skip map[DesignPoint]QuarantinedPoint, onPoison func(*EvalError) error) (ShardCheckpoint, int, int, *Evaluation, error) {
	lo := idx * size
	hi := lo + size
	if hi > len(pts) {
		hi = len(pts)
	}
	cp := ShardCheckpoint{Shard: idx}
	var best *Evaluation
	evaluated, skipped := 0, 0
	for _, p := range pts[lo:hi] {
		if _, poisoned := skip[p]; poisoned {
			skipped++
			continue
		}
		ev, err := e.EvaluateContext(ctx, p)
		if err != nil {
			ee, pointLocal := asEvalError(err)
			if !pointLocal {
				return cp, evaluated, skipped, nil, err
			}
			evaluated++
			if perr := onPoison(ee); perr != nil {
				return cp, evaluated, skipped, nil, perr
			}
			continue
		}
		evaluated++
		if ev.Feasible {
			cp.Feasible++
			if best == nil || betterEval(ev, best) {
				best = ev
			}
		}
	}
	if best != nil {
		cp.Found, cp.Best, cp.BestObj = true, best.Point, best.Objective
	}
	return cp, evaluated, skipped, best, nil
}

// BetterPoint is the sweep's deterministic incumbent order: strictly
// lower objective wins, exact ties break lexicographically on the
// design point. A strict total order over distinct points, so merging
// shard results in any completion order — including shards restored
// from a checkpoint — yields the same winner.
func BetterPoint(aObj float64, aPt DesignPoint, bObj float64, bPt DesignPoint) bool {
	if aObj != bObj {
		return aObj < bObj
	}
	return aPt.Less(bPt)
}

// autoShardSize targets ~16 shards per worker — fine enough that a kill
// forfeits little work, coarse enough that per-shard bookkeeping stays
// negligible against millisecond-scale evaluations — capped at 64
// points per shard for large spaces.
func autoShardSize(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	s := n / (workers * 16)
	if s < 1 {
		s = 1
	}
	if s > 64 {
		s = 64
	}
	return s
}
