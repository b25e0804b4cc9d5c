package core

import (
	"math"
	"sort"
	"sync/atomic"

	"tesa/internal/surrogate"
)

// surrogateLCBC is the uncertainty weight of the lower-confidence-bound
// ranking score (mean - c*sigma): 1 keeps the optimism proportional to
// one standard deviation of the neighborhood spread, which on the
// coarse design grids balances exploiting predicted-good basins against
// revisiting unexplored ones. The ranking only chooses what to evaluate
// FIRST — every proposal still runs the real pipeline — so this
// constant tunes wall-clock, never results.
const surrogateLCBC = 1.0

// surrogateFeatures returns the canonical feature vector of a design
// point: the memo-fingerprint inputs that vary across a space — the
// array dimension, the inter-chiplet spacing, and the derived per-SRAM
// capacity (log2, since the axis is a power-of-two ladder). Everything
// else a point's evaluation depends on is fixed per evaluator and
// already bound by the configuration fingerprint.
func surrogateFeatures(p DesignPoint) []float64 {
	return []float64{float64(p.ArrayDim), float64(p.ICSUM), math.Log2(float64(p.SRAMKB()))}
}

// surrogateStats mirrors the surrogate.* telemetry counters at the
// evaluator level, so CLIs without an observability hub can still
// report ranking effectiveness (tesa-report validate does).
type surrogateStats struct {
	decided atomic.Int64 // ranking decisions taken by a warm model
	cold    atomic.Int64 // fallbacks to the unranked path (model not ready)
	ranked  atomic.Int64 // candidates scored across all decisions
}

// surrogateK returns the effective neighborhood size / ranked-move
// candidate count (Options.SurrogateK, or the package default).
func (e *Evaluator) surrogateK() int {
	if e.Opts.SurrogateK > 0 {
		return e.Opts.SurrogateK
	}
	return surrogate.DefaultK
}

// trainSurrogate feeds one completed evaluation to the online model.
// Only feasible evaluations with finite objectives train: DSE-mode
// infeasible points carry +Inf (nothing to regress), and reporting-mode
// infeasible points carry an Eq. 6 value the search must not mistake
// for attainable. Untrained regions are handled by the LCB's
// uncertainty term instead — they rank optimistically and get explored.
func (e *Evaluator) trainSurrogate(ev *Evaluation) {
	if e.sur == nil || !ev.Feasible || math.IsNaN(ev.Objective) || math.IsInf(ev.Objective, 0) {
		return
	}
	e.sur.Add(surrogateFeatures(ev.Point), ev.Objective)
}

// warmSurrogate replays the memo store's evaluation corpus into the
// model, once: every whole-point record under this evaluator's
// configuration fingerprint — computed live by any sharing evaluator or
// seeded from -memo-dir disk segments — becomes a training sample. The
// replay is lazy (first ranking consult) so it runs after LoadMemoDir
// has seeded the store.
func (e *Evaluator) warmSurrogate() {
	if e.sur == nil {
		return
	}
	e.surReplay.Do(func() {
		e.fingerprints()
		prefix := "eval:" + e.cfgFP + "|"
		e.store().Range(prefix, func(_ string, v any) bool {
			if ev, ok := v.(*Evaluation); ok {
				e.trainSurrogate(ev)
			}
			return true
		})
	})
}

// surrogateScore returns the ranking closure the search engines hand to
// anneal.RankedNeighbor and the sweep ordering path: the surrogate's
// lower confidence bound at the point's feature vector (lower ranks
// better), declining (ok=false) while the model is cold. nil when the
// surrogate is disabled.
func (e *Evaluator) surrogateScore() func(DesignPoint) (float64, bool) {
	return e.surrogateScoreC(surrogateLCBC)
}

// surrogateScoreExploit is the pure-mean ranking (c = 0) the seeding
// path uses: a starting pool wants the most likely-good, likely-
// feasible draws first, not the optimism-under-uncertainty bonus —
// LCB's exploration credit sends seeding into unexplored (and mostly
// infeasible) territory that the annealers are better placed to probe.
func (e *Evaluator) surrogateScoreExploit() func(DesignPoint) (float64, bool) {
	return e.surrogateScoreC(0)
}

// surrogateScoreC builds a ranking closure with confidence weight c
// (score = mean − c·sigma).
func (e *Evaluator) surrogateScoreC(c float64) func(DesignPoint) (float64, bool) {
	if e.sur == nil {
		return nil
	}
	e.warmSurrogate()
	return func(p DesignPoint) (float64, bool) {
		mean, sigma, ok := e.sur.Predict(surrogateFeatures(p))
		if !ok {
			return 0, false
		}
		return surrogate.LCB(mean, sigma, c), true
	}
}

// recordSurrogate tallies ranking outcomes into the evaluator's stats
// and the telemetry counters (surrogate.hit = warm decisions,
// surrogate.miss = cold fallbacks, surrogate.rank = candidates scored).
func (e *Evaluator) recordSurrogate(decided, cold, ranked int64) {
	if decided != 0 {
		e.surStats.decided.Add(decided)
		e.tel.Registry().Counter("surrogate.hit").Add(decided)
	}
	if cold != 0 {
		e.surStats.cold.Add(cold)
		e.tel.Registry().Counter("surrogate.miss").Add(cold)
	}
	if ranked != 0 {
		e.surStats.ranked.Add(ranked)
		e.tel.Registry().Counter("surrogate.rank").Add(ranked)
	}
}

// SurrogateStats returns the surrogate ranking tallies: warm ranking
// decisions (hits), cold fallbacks (misses), and total candidates
// scored. All zero unless Options.Surrogate ran searches.
func (e *Evaluator) SurrogateStats() (hits, misses, ranked int64) {
	return e.surStats.decided.Load(), e.surStats.cold.Load(), e.surStats.ranked.Load()
}

// SurrogateLen returns the number of training samples the online model
// currently holds (0 when the surrogate is disabled).
func (e *Evaluator) SurrogateLen() int {
	if e.sur == nil {
		return 0
	}
	return e.sur.Len()
}

// orderByPrediction returns pts reordered best-predicted-first (LCB
// ascending, enumeration order on ties), or pts unchanged when the
// model is cold. Every point is still evaluated — the ordering only
// makes incumbent improvements land early, so progress streams, the
// distributed coordinator's incumbent-improving verification, and
// -fail-fast style policies all fire sooner. The sweep winner is
// order-independent by construction (BetterPoint is a total order).
func (e *Evaluator) orderByPrediction(pts []DesignPoint) []DesignPoint {
	e.warmSurrogate()
	if e.sur == nil || !e.sur.Ready() {
		e.recordSurrogate(0, 1, 0)
		return pts
	}
	scores := make([]float64, len(pts))
	for i, p := range pts {
		mean, sigma, ok := e.sur.Predict(surrogateFeatures(p))
		if !ok {
			return pts
		}
		scores[i] = surrogate.LCB(mean, sigma, surrogateLCBC)
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	out := make([]DesignPoint, len(pts))
	for i, j := range idx {
		out[i] = pts[j]
	}
	e.recordSurrogate(1, 0, int64(len(pts)))
	return out
}
