package core

import (
	"context"
	"errors"
	"testing"

	"tesa/internal/dnn"
)

// tinySpace returns a small sub-space for fast optimizer tests.
func tinySpace() Space {
	var s Space
	for d := 180; d <= 256; d += 4 {
		s.ArrayDims = append(s.ArrayDims, d)
	}
	for ics := 0; ics <= 1000; ics += 250 {
		s.ICSUMs = append(s.ICSUMs, ics)
	}
	return s
}

// midSpace is the 21-point sub-space the memo and feasibility tests
// sweep exhaustively.
func midSpace() Space {
	var s Space
	for d := 180; d <= 256; d += 12 {
		s.ArrayDims = append(s.ArrayDims, d)
	}
	s.ICSUMs = []int{0, 500, 1000}
	return s
}

// TestOptimizeFindsFeasible: on a space known to contain feasible points,
// the MSA returns one and its objective matches a fresh evaluation.
func TestOptimizeFindsFeasible(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	res, err := e.OptimizeContext(context.Background(), tinySpace(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("optimizer found nothing on a feasible space")
	}
	if !res.Best.Feasible {
		t.Fatalf("winner infeasible: %v", res.Best.Violations)
	}
	if res.Evaluations <= 0 || res.Explored <= 0 {
		t.Errorf("bad counters: %+v", res)
	}
	if len(res.PerStart) != 3 {
		t.Errorf("per-start results = %d, want 3 (the paper's three annealers)", len(res.PerStart))
	}
}

// TestOptimizeAgreesWithExhaustive is the Sec. IV-A correctness check on
// a reduced space: the annealer must land on the exhaustive optimum.
func TestOptimizeAgreesWithExhaustive(t *testing.T) {
	space := tinySpace()
	ex := testEvaluator(t, Tech2D, 400, 15, 85)
	exRes, err := ex.ExhaustiveContext(context.Background(), space, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exRes.Best == nil {
		t.Fatal("exhaustive search found nothing")
	}
	op := testEvaluator(t, Tech2D, 400, 15, 85)
	opRes, err := op.OptimizeContext(context.Background(), space, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !opRes.Found {
		t.Fatal("optimizer found nothing")
	}
	if opRes.Best.Objective > exRes.Best.Objective*(1+1e-9) {
		t.Errorf("optimizer objective %.6f worse than global optimum %.6f (point %v vs %v)",
			opRes.Best.Objective, exRes.Best.Objective, opRes.Best.Point, exRes.Best.Point)
	}
}

// TestOptimizeReportsNoSolution: with an impossible power budget the
// optimizer reports the paper's "solution does not exist" outcome — a
// Found=false result with an error wrapping ErrNoFeasibleStart.
func TestOptimizeReportsNoSolution(t *testing.T) {
	opts := DefaultOptions()
	opts.Grid = 24
	cons := DefaultConstraints()
	cons.PowerBudgetW = 0.01
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.OptimizeContext(context.Background(), tinySpace(), 1, nil)
	if !errors.Is(err, ErrNoFeasibleStart) {
		t.Fatalf("no-solution err = %v, want ErrNoFeasibleStart", err)
	}
	if res == nil || res.Found {
		t.Errorf("no-solution result = %+v, want Found=false", res)
	}
}

// TestExhaustiveCountsFeasible: the sweep's feasible count matches
// re-evaluation.
func TestExhaustiveCountsFeasible(t *testing.T) {
	space := Space{ArrayDims: []int{196, 220, 244}, ICSUMs: []int{200, 800}}
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	res, err := e.ExhaustiveContext(context.Background(), space, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 6 {
		t.Fatalf("total = %d, want 6", res.Total)
	}
	count := 0
	for _, p := range space.Enumerate() {
		ev, err := e.EvaluateContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Feasible {
			count++
		}
	}
	if count != res.Feasible {
		t.Errorf("feasible = %d, recount = %d", res.Feasible, count)
	}
	if res.Best != nil {
		for _, p := range space.Enumerate() {
			ev, _ := e.EvaluateContext(context.Background(), p)
			if ev.Feasible && ev.Objective < res.Best.Objective {
				t.Errorf("exhaustive missed better point %v (%.4f < %.4f)", p, ev.Objective, res.Best.Objective)
			}
		}
	}
}

// TestOptimizeDeterministic: same seed, same winner.
func TestOptimizeDeterministic(t *testing.T) {
	run := func() DesignPoint {
		e := testEvaluator(t, Tech2D, 400, 15, 85)
		res, err := e.OptimizeContext(context.Background(), tinySpace(), 11, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatal("nothing found")
		}
		return res.Best.Point
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
}
