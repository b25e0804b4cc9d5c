package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"tesa/internal/dnn"
)

// TestLooserBudgetKeepsFeasible is a metamorphic oracle for every
// feasibility decision over midSpace at grid 16: loosening the
// temperature budget (75 to 85 C), the power budget (15 to 20 W), both,
// or the frame-rate target (30 to 15 fps) never removes a feasible
// point. Budgets only gate the result, so a point feasible under the
// tighter budgets keeps its peak temperature exactly, and its objective
// too unless the fps moved (DRAM power, an objective term, scales with
// the frame rate). A point the looser budgets admit was rejected under
// the tighter ones only for the budgets that moved.
//
// The temperature and power budgets are exercised at 500 MHz, where the
// latency target never binds (15 and 30 fps admit the same 13 points);
// the fps axis at 350 MHz, where 30 fps rejects points for latency that
// 15 fps admits.
func TestLooserBudgetKeepsFeasible(t *testing.T) {
	type budgets struct{ freqMHz, fps, tempC, powerW float64 }
	lattice := []budgets{
		{500, 15, 75, 15}, {500, 15, 75, 20}, {500, 15, 85, 15}, {500, 15, 85, 20},
		{350, 30, 85, 20}, {350, 15, 85, 20},
	}
	evals := map[budgets]map[DesignPoint]*Evaluation{}
	feasible := map[budgets]int{}
	for _, b := range lattice {
		opts := DefaultOptions()
		opts.FreqHz = b.freqMHz * 1e6
		opts.Grid = 16
		cons := DefaultConstraints()
		cons.FPS = b.fps
		cons.TempBudgetC, cons.PowerBudgetW = b.tempC, b.powerW
		e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
		if err != nil {
			t.Fatal(err)
		}
		evals[b] = map[DesignPoint]*Evaluation{}
		for _, p := range midSpace().Enumerate() {
			ev, err := e.EvaluateContext(context.Background(), p)
			if err != nil {
				t.Fatalf("%v under %v: %v", p, b, err)
			}
			evals[b][p] = ev
			if ev.Feasible {
				feasible[b]++
			}
		}
	}
	t.Logf("feasible points per (MHz, fps, C, W) budget: %v", feasible)
	admitted := map[string]bool{}
	for _, lo := range lattice {
		for _, hi := range lattice {
			if hi == lo || hi.freqMHz != lo.freqMHz || hi.fps > lo.fps ||
				hi.tempC < lo.tempC || hi.powerW < lo.powerW {
				continue
			}
			lifted := map[string]bool{
				"latency":     hi.fps < lo.fps,
				"temperature": hi.tempC > lo.tempC,
				"power":       hi.powerW > lo.powerW,
			}
			name := fmt.Sprintf("%v -> %v", lo, hi)
			for p, le := range evals[lo] {
				he := evals[hi][p]
				switch {
				case le.Feasible && !he.Feasible:
					t.Errorf("%s: %v lost feasibility (%v)", name, p, he.Violations)
				case le.Feasible && (he.PeakTempC != le.PeakTempC || (!lifted["latency"] && he.Objective != le.Objective)):
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
	// Every budget must bind somewhere in the lattice, or the oracle
	// exercised nothing.
	for _, v := range []string{"latency", "temperature", "power"} {
		if !admitted[v] {
			t.Errorf("no looser %s budget admitted a point it rejected before", v)
		}
	}
}

// TestDNNOrderKeepsEvaluation is a metamorphic oracle for the pipeline:
// the workload is a set of DNNs, so listing them in another order
// (reversed, or rotated by two) must leave every midSpace point's
// objective, feasibility and peak temperature bit-identical (2-D,
// 500 MHz, 15 fps, grid 16). A point rejected before its thermal
// analysis (252x252 at ICS 0 is over the power budget) reports a NaN
// peak, which compares equal to NaN here.
func TestDNNOrderKeepsEvaluation(t *testing.T) {
	base := dnn.ARVRWorkload()
	n := len(base.Networks)
	orders := map[string]func(i int) int{
		"reversed":     func(i int) int { return n - 1 - i },
		"rotated by 2": func(i int) int { return (i + 2) % n },
	}
	evaluator := func(w dnn.Workload) *Evaluator {
		opts := DefaultOptions()
		opts.FreqHz = 500e6
		opts.Grid = 16
		cons := DefaultConstraints()
		cons.FPS = 15
		e, err := NewEvaluator(w, opts, cons, Models{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	ref := evaluator(base)
	for name, from := range orders {
		w := dnn.Workload{Name: base.Name, Networks: make([]dnn.Network, n)}
		for i := range w.Networks {
			w.Networks[i] = base.Networks[from(i)]
		}
		e := evaluator(w)
		for _, p := range midSpace().Enumerate() {
			want, err := ref.EvaluateContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.EvaluateContext(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: %v: %v", name, p, err)
			}
			if got.Feasible != want.Feasible || !same(got.Objective, want.Objective) || !same(got.PeakTempC, want.PeakTempC) {
				t.Errorf("%s: %v evaluated to feasible %v, objective %v, peak %v C; in workload order %v, %v, %v C",
					name, p, got.Feasible, got.Objective, got.PeakTempC, want.Feasible, want.Objective, want.PeakTempC)
			}
		}
	}
}
