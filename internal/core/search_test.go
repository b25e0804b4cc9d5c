package core

import (
	"context"
	"testing"
)

// TestRandomSearchFindsFeasible: at a reasonable budget, random search
// finds some feasible point on a feasible space.
func TestRandomSearchFindsFeasible(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	res, err := e.RandomSearch(tinySpace(), 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("random search found nothing")
	}
	if res.Evaluations != 60 {
		t.Errorf("evaluations = %d, want 60", res.Evaluations)
	}
}

// TestGreedyAtLeastAsGoodAsItsStart: the climber only moves on
// improvement, so its result is never worse than a feasible random
// sample would guarantee... concretely: it returns a feasible point and
// respects the budget.
func TestGreedyAtLeastAsGoodAsItsStart(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	res, err := e.GreedySearch(tinySpace(), 3, 80)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("greedy search found nothing")
	}
	if !res.Best.Feasible {
		t.Error("greedy returned an infeasible point")
	}
	if res.Evaluations > 80 {
		t.Errorf("budget exceeded: %d > 80", res.Evaluations)
	}
}

// TestSearchStrategiesOrdering: with equal budgets on the same space, the
// annealer should not lose badly to random search (both see the same
// cached evaluations; the annealer refines).
func TestSearchStrategiesOrdering(t *testing.T) {
	space := tinySpace()
	eAnneal := testEvaluator(t, Tech2D, 400, 15, 85)
	annealRes, err := eAnneal.OptimizeContext(context.Background(), space, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	eRand := testEvaluator(t, Tech2D, 400, 15, 85)
	randRes, err := eRand.RandomSearch(space, 7, annealRes.Evaluations)
	if err != nil {
		t.Fatal(err)
	}
	if !annealRes.Found || !randRes.Found {
		t.Fatal("a strategy found nothing")
	}
	if annealRes.Best.Objective > randRes.Best.Objective*1.10 {
		t.Errorf("annealer (%.4f) lost >10%% to random search (%.4f) at equal budget",
			annealRes.Best.Objective, randRes.Best.Objective)
	}
}

func TestSearchValidation(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	if _, err := e.RandomSearch(Space{}, 1, 10); err == nil {
		t.Error("empty space accepted by random search")
	}
	if _, err := e.GreedySearch(Space{}, 1, 10); err == nil {
		t.Error("empty space accepted by greedy search")
	}
}
