package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// FrontMember is one point of a multi-objective front: a full-fidelity
// evaluation plus its NSGA-II bookkeeping.
type FrontMember struct {
	// Eval is the member's evaluation. Every reported member is
	// re-evaluated in reporting mode before being returned, so Eval
	// always carries grid-solved thermal numbers and the full
	// schedule/placement structures — never a compact record.
	Eval *Evaluation
	// Rank is the non-domination rank within the final population
	// (0 = the reported front; members always have Rank 0).
	Rank int
	// Crowding is the NSGA-II crowding distance over the three
	// objectives, +Inf at each objective's extremes. Larger means more
	// isolated — the diversity-preserving selection pressure.
	Crowding float64
}

// frontObjectives are the three minimized axes of the true
// multi-objective front: MCM cost (USD), DRAM power (W), and peak
// junction temperature (C) — the raw quantities Eq. 6 scalarizes two
// of, plus the thermal axis the paper's weight sweeps cannot expose.
func frontObjectives(ev *Evaluation) [3]float64 {
	t := ev.PeakTempC
	if math.IsNaN(t) {
		// DisableThermal evaluations carry no temperature; a constant
		// axis degrades the front to the remaining two objectives.
		t = 0
	}
	return [3]float64{ev.MCMCost.Total, ev.DRAMPowerW, t}
}

// dominates reports Pareto dominance: a is no worse on every objective
// and strictly better on at least one.
func dominates(a, b [3]float64) bool {
	better := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			better = true
		}
	}
	return better
}

// FrontOptions tunes the NSGA-II engine. The zero value (or a nil
// pointer) selects the defaults.
type FrontOptions struct {
	// Pop is the population size (default 24).
	Pop int
	// Gens is the number of generations (default 8).
	Gens int
	// Progress, when non-nil, streams one update per generation with
	// Phase "front"; Best carries the current cost-axis extreme so the
	// stream has a stable representative. See ProgressFunc.
	Progress ProgressFunc
}

// frontDefaults fills the option defaults.
func (o FrontOptions) withDefaults() FrontOptions {
	if o.Pop <= 0 {
		o.Pop = 24
	}
	if o.Gens <= 0 {
		o.Gens = 8
	}
	return o
}

// member is the in-flight representation during evolution: a DSE-mode
// evaluation plus its current sort keys.
type member struct {
	ev       *Evaluation
	obj      [3]float64
	rank     int
	crowding float64
}

// NSGA2FrontContext evolves a population over the design space and
// returns the non-dominated front over (MCM cost, DRAM power, peak
// temperature) — a true multi-objective alternative to the scalarized
// Eq. 6 weight sweep, which can only reach the convex hull of the
// front. The loop is the standard NSGA-II recipe: fast non-dominated
// sort, crowding-distance diversity, binary tournaments, one-point
// (axis-swap) crossover, and the Fig. 4 neighbor move as mutation.
//
// Soundness: evolution runs on DSE-mode evaluations (cheap), but every
// member of the returned front is re-evaluated in full reporting mode
// before being returned, so each reported point carries full-fidelity
// numbers — including the peak temperature a DSE evaluation skips once
// an earlier constraint fails — and dominance is re-checked on those
// upgraded numbers, so a shift on the thermal axis cannot leak a
// dominated point into the reported front. The run is deterministic for a seed: one PRNG,
// sequential evaluation, and every sort tie-broken by design point.
//
// When no feasible point is found the error wraps ErrNoFeasibleStart.
func (e *Evaluator) NSGA2FrontContext(ctx context.Context, space Space, seed int64, opt *FrontOptions) ([]FrontMember, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	var o FrontOptions
	if opt != nil {
		o = *opt
	}
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	progress := newProgressReporter(o.Progress, "front", o.Gens+1)

	span := e.tel.StartSpan("front.total")
	defer span.End()

	// Initial population: uniform draws, feasible survivors, distinct
	// points. The draw budget scales with the population so sparse
	// feasible regions still fill it.
	seen := make(map[DesignPoint]bool)
	var pop []member
	evalInto := func(p DesignPoint) error {
		if seen[p] {
			return nil
		}
		seen[p] = true
		ev, err := e.EvaluateContext(ctx, p)
		if err != nil {
			if _, pointLocal := asEvalError(err); pointLocal {
				return nil // quarantined: skip, like the sweep does
			}
			return err
		}
		if ev.Feasible {
			pop = append(pop, member{ev: ev, obj: frontObjectives(ev)})
		}
		return nil
	}
	for i := 0; i < 20*o.Pop && len(pop) < o.Pop; i++ {
		if err := evalInto(space.Random(rng)); err != nil {
			return nil, err
		}
	}
	if len(pop) == 0 {
		return nil, fmt.Errorf("core: NSGA-II front: %w", ErrNoFeasibleStart)
	}
	rankAndCrowd(pop)
	progress.emit(1, costExtreme(pop), true, e.QuarantinedCount())

	for gen := 0; gen < o.Gens; gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Offspring: tournament parents, axis-swap crossover, neighbor
		// mutation.
		var children []DesignPoint
		for len(children) < o.Pop {
			children = append(children, e.spawn(space, pop, rng))
		}
		for _, c := range children {
			if err := evalInto(c); err != nil {
				return nil, err
			}
		}
		// Environmental selection over the combined population: rank,
		// crowd, keep the best Pop.
		rankAndCrowd(pop)
		sort.SliceStable(pop, memberLess(pop))
		if len(pop) > o.Pop {
			pop = pop[:o.Pop]
		}
		progress.emit(gen+2, costExtreme(pop), false, e.QuarantinedCount())
	}

	// Report rank 0 only, every member upgraded to full fidelity. The
	// upgrade can shift the thermal axis (evolution ran at DSE
	// fidelity), so dominance is re-checked on the full-fidelity
	// numbers and any member the upgrade exposes as dominated is
	// dropped: the reported front is non-dominated under the exact
	// objectives it reports.
	rankAndCrowd(pop)
	var full []member
	for _, m := range pop {
		if m.rank != 0 {
			continue
		}
		ev, err := e.EvaluateFullContext(ctx, m.ev.Point)
		if err != nil {
			return nil, err
		}
		full = append(full, member{ev: ev, obj: frontObjectives(ev), crowding: m.crowding})
	}
	var out []FrontMember
	for i, m := range full {
		dominated := false
		for j, o := range full {
			if j != i && dominates(o.obj, m.obj) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, FrontMember{Eval: m.ev, Rank: 0, Crowding: m.crowding})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := frontObjectives(out[i].Eval), frontObjectives(out[j].Eval)
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return out[i].Eval.Point.Less(out[j].Eval.Point)
	})
	if e.tel.Tracing() {
		e.tel.Emit("front.done", map[string]any{
			"front":       len(out),
			"pop":         len(pop),
			"gens":        o.Gens,
			"evaluations": e.Evaluations(),
			"explored":    e.Explored(),
		})
	}
	return out, nil
}

// spawn produces one offspring design point: two binary tournaments
// pick the parents, an axis-swap crossover mixes their knobs (each
// knob from either parent), and the Fig. 4 neighbor move mutates the
// result back into the space.
func (e *Evaluator) spawn(space Space, pop []member, rng *rand.Rand) DesignPoint {
	a := tournament(pop, rng)
	b := tournament(pop, rng)
	child := DesignPoint{ArrayDim: a.ArrayDim, ICSUM: b.ICSUM}
	if rng.Intn(2) == 0 {
		child = DesignPoint{ArrayDim: b.ArrayDim, ICSUM: a.ICSUM}
	}
	return space.Neighbor(child, rng)
}

// tournament picks the better of two uniform population members under
// the NSGA-II order (rank, then crowding, then point).
func tournament(pop []member, rng *rand.Rand) DesignPoint {
	i, j := rng.Intn(len(pop)), rng.Intn(len(pop))
	if better(pop[j], pop[i]) {
		i = j
	}
	return pop[i].ev.Point
}

// better is the NSGA-II selection order: lower rank first, then larger
// crowding distance, then the deterministic point tie-break.
func better(a, b member) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if a.crowding != b.crowding {
		return a.crowding > b.crowding
	}
	return a.ev.Point.Less(b.ev.Point)
}

// memberLess adapts better to sort.SliceStable.
func memberLess(pop []member) func(i, j int) bool {
	return func(i, j int) bool { return better(pop[i], pop[j]) }
}

// costExtreme returns the member with the lowest cost objective (ties
// by point), the front's stable progress representative.
func costExtreme(pop []member) *Evaluation {
	best := 0
	for i := 1; i < len(pop); i++ {
		if pop[i].obj[0] < pop[best].obj[0] ||
			(pop[i].obj[0] == pop[best].obj[0] && pop[i].ev.Point.Less(pop[best].ev.Point)) {
			best = i
		}
	}
	return pop[best].ev
}

// rankAndCrowd runs the fast non-dominated sort and computes crowding
// distances in place. O(n^2) dominance checks — populations are tens
// of members, evaluations are milliseconds; simplicity wins.
func rankAndCrowd(pop []member) {
	n := len(pop)
	domCount := make([]int, n)  // how many members dominate i
	domList := make([][]int, n) // members i dominates
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case dominates(pop[i].obj, pop[j].obj):
				domList[i] = append(domList[i], j)
				domCount[j]++
			case dominates(pop[j].obj, pop[i].obj):
				domList[j] = append(domList[j], i)
				domCount[i]++
			}
		}
	}
	var front []int
	for i := 0; i < n; i++ {
		if domCount[i] == 0 {
			pop[i].rank = 0
			front = append(front, i)
		}
	}
	for rank := 0; len(front) > 0; rank++ {
		crowd(pop, front)
		var next []int
		for _, i := range front {
			for _, j := range domList[i] {
				domCount[j]--
				if domCount[j] == 0 {
					pop[j].rank = rank + 1
					next = append(next, j)
				}
			}
		}
		front = next
	}
}

// crowd assigns crowding distances to one rank's members: for each
// objective, sort the rank along it and add each member's normalized
// gap between its neighbors; the extremes get +Inf so they are never
// crowded out.
func crowd(pop []member, front []int) {
	for _, i := range front {
		pop[i].crowding = 0
	}
	if len(front) <= 2 {
		for _, i := range front {
			pop[i].crowding = math.Inf(1)
		}
		return
	}
	idx := make([]int, len(front))
	for k := range [3]struct{}{} {
		copy(idx, front)
		sort.SliceStable(idx, func(a, b int) bool {
			if pop[idx[a]].obj[k] != pop[idx[b]].obj[k] {
				return pop[idx[a]].obj[k] < pop[idx[b]].obj[k]
			}
			return pop[idx[a]].ev.Point.Less(pop[idx[b]].ev.Point)
		})
		lo, hi := pop[idx[0]].obj[k], pop[idx[len(idx)-1]].obj[k]
		pop[idx[0]].crowding = math.Inf(1)
		pop[idx[len(idx)-1]].crowding = math.Inf(1)
		if hi == lo {
			continue
		}
		for m := 1; m < len(idx)-1; m++ {
			pop[idx[m]].crowding += (pop[idx[m+1]].obj[k] - pop[idx[m-1]].obj[k]) / (hi - lo)
		}
	}
}
