package core

import (
	"context"
	"testing"

	"tesa/internal/dnn"
)

// TestNSGA2FrontNonDominated: every reported front member is mutually
// non-dominated over (cost, DRAM power, peak temperature), feasible,
// and carries a full-fidelity evaluation.
func TestNSGA2FrontNonDominated(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	front, err := e.NSGA2FrontContext(context.Background(), tinySpace(), 1, &FrontOptions{Pop: 8, Gens: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty front on a feasible space")
	}
	for i, m := range front {
		if m.Rank != 0 {
			t.Errorf("member %d has rank %d", i, m.Rank)
		}
		if !m.Eval.Feasible {
			t.Errorf("member %d infeasible: %v", i, m.Eval.Violations)
		}
		if m.Eval.Compact() {
			t.Errorf("member %d is a compact record, not full fidelity", i)
		}
		if m.Eval.Schedule == nil {
			t.Errorf("member %d lost its schedule", i)
		}
		for j, o := range front {
			if i != j && dominates(frontObjectives(o.Eval), frontObjectives(m.Eval)) {
				t.Errorf("member %d (%v) dominated by member %d (%v)",
					i, m.Eval.Point, j, o.Eval.Point)
			}
		}
	}
	// Deterministic ordering: ascending on the cost axis first.
	for i := 1; i < len(front); i++ {
		if front[i].Eval.MCMCost.Total < front[i-1].Eval.MCMCost.Total {
			t.Errorf("front not sorted by cost at %d", i)
		}
	}
}

// TestNSGA2FrontDeterministic: same seed, same front.
func TestNSGA2FrontDeterministic(t *testing.T) {
	run := func() []DesignPoint {
		e := testEvaluator(t, Tech2D, 400, 15, 85)
		front, err := e.NSGA2FrontContext(context.Background(), tinySpace(), 7, &FrontOptions{Pop: 6, Gens: 2})
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]DesignPoint, len(front))
		for i, m := range front {
			pts[i] = m.Eval.Point
		}
		return pts
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("front sizes diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("member %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestNSGA2FrontNoFeasible: an impossible budget reports the paper's
// "solution does not exist" outcome as a typed error.
func TestNSGA2FrontNoFeasible(t *testing.T) {
	opts := DefaultOptions()
	opts.Grid = 24
	cons := DefaultConstraints()
	cons.PowerBudgetW = 0.01
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.NSGA2FrontContext(context.Background(), tinySpace(), 1, &FrontOptions{Pop: 4, Gens: 1}); err == nil {
		t.Fatal("impossible budget produced a front")
	}
}
