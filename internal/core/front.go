package core

import (
	"math"
	"sort"
)

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

// foldFront folds one feasible evaluation into a non-dominated archive:
// ev is dropped when a member dominates it, and otherwise joins after
// evicting the members it dominates. Dominance is a strict partial
// order, so after every point is folded the archive holds exactly the
// points no other point dominates, in whatever order they arrived.
// Members with equal objectives dominate neither way and all stay.
func foldFront(front []*Evaluation, ev *Evaluation) []*Evaluation {
	obj := frontObjectives(ev)
	kept := front[:0]
	for _, m := range front {
		mo := frontObjectives(m)
		if dominates(mo, obj) {
			return front // nothing was evicted yet: a dominator of ev dominates no member
		}
		if !dominates(obj, mo) {
			kept = append(kept, m)
		}
	}
	return append(kept, ev)
}

// sortFront orders a front by (cost, DRAM power, peak), exact ties by
// DesignPoint.Less, so a front reads the same at any worker count.
func sortFront(front []*Evaluation) {
	sort.Slice(front, func(i, j int) bool {
		a, b := frontObjectives(front[i]), frontObjectives(front[j])
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return front[i].Point.Less(front[j].Point)
	})
}
