package core

import (
	"fmt"
	"testing"

	"tesa/internal/dnn"
)

// TestLooserBudgetKeepsFeasible is a metamorphic oracle for every
// feasibility decision over midSpace at grid 16: loosening the
// temperature budget (75 to 85 C), the power budget (15 to 20 W) or
// both never removes a feasible point. Budgets only gate the result, so
// a point feasible under the tighter budgets keeps its objective and
// peak temperature exactly, and a point the looser budgets admit was
// rejected under the tighter ones only for the budgets that moved.
func TestLooserBudgetKeepsFeasible(t *testing.T) {
	type budgets struct{ tempC, powerW float64 }
	lattice := []budgets{{75, 15}, {75, 20}, {85, 15}, {85, 20}}
	evals := map[budgets]map[DesignPoint]*Evaluation{}
	feasible := map[budgets]int{}
	for _, b := range lattice {
		opts := DefaultOptions()
		opts.FreqHz = 500e6
		opts.Grid = 16
		cons := DefaultConstraints()
		cons.FPS = 15
		cons.TempBudgetC, cons.PowerBudgetW = b.tempC, b.powerW
		e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
		if err != nil {
			t.Fatal(err)
		}
		evals[b] = map[DesignPoint]*Evaluation{}
		for _, p := range midSpace().Enumerate() {
			ev, err := e.Evaluate(p)
			if err != nil {
				t.Fatalf("%v under %v: %v", p, b, err)
			}
			evals[b][p] = ev
			if ev.Feasible {
				feasible[b]++
			}
		}
	}
	t.Logf("feasible points per (C, W) budget: %v", feasible)
	admitted := map[string]bool{}
	for _, lo := range lattice {
		for _, hi := range lattice {
			if hi == lo || hi.tempC < lo.tempC || hi.powerW < lo.powerW {
				continue
			}
			lifted := map[string]bool{"temperature": hi.tempC > lo.tempC, "power": hi.powerW > lo.powerW}
			name := fmt.Sprintf("%v -> %v", lo, hi)
			for p, le := range evals[lo] {
				he := evals[hi][p]
				switch {
				case le.Feasible && !he.Feasible:
					t.Errorf("%s: %v lost feasibility (%v)", name, p, he.Violations)
				case le.Feasible && (he.Objective != le.Objective || he.PeakTempC != le.PeakTempC):
					t.Errorf("%s: %v moved from objective %v, peak %v C to %v, %v C",
						name, p, le.Objective, le.PeakTempC, he.Objective, he.PeakTempC)
				case !le.Feasible && he.Feasible:
					for _, v := range le.Violations {
						if !lifted[v] {
							t.Errorf("%s: %v admitted, but the tighter budgets rejected it for %v", name, p, le.Violations)
						}
						admitted[v] = true
					}
				}
			}
		}
	}
	// Both budgets must bind somewhere in the lattice, or the oracle
	// exercised nothing.
	for _, v := range []string{"temperature", "power"} {
		if !admitted[v] {
			t.Errorf("no looser %s budget admitted a point it rejected before", v)
		}
	}
}
