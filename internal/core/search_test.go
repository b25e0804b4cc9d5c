package core

import (
	"context"
	"path/filepath"
	"testing"

	"tesa/internal/dnn"
	"tesa/internal/memo"
)

// TestRandomSearchFindsFeasible: at a reasonable budget, random search
// finds some feasible point on a feasible space.
func TestRandomSearchFindsFeasible(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	res, err := e.RandomSearchContext(context.Background(), tinySpace(), 3, 60)
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
	res, err := e.GreedySearchContext(context.Background(), tinySpace(), 3, 80)
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
	randRes, err := eRand.RandomSearchContext(context.Background(), space, 7, annealRes.Evaluations)
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
	if _, err := e.RandomSearchContext(context.Background(), Space{}, 1, 10); err == nil {
		t.Error("empty space accepted by random search")
	}
	if _, err := e.GreedySearchContext(context.Background(), Space{}, 1, 10); err == nil {
		t.Error("empty space accepted by greedy search")
	}
}

// searchLegResult is one plain annealing run at the validation corner
// (2-D, 400 MHz, 15 fps, 85 C, grid 16, seed 1, one chain at a time)
// over the memo corpus in dir.
type searchLegResult struct {
	res     *OptimizeResult
	toFirst int // points explored when an incumbent first reached the winning objective
}

func runSearchLeg(t *testing.T, dir string) searchLegResult {
	t.Helper()
	opts := DefaultOptions()
	opts.Grid = 16
	cons := DefaultConstraints()
	cons.FPS = 15
	cons.TempBudgetC = 85
	ev, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	store := memo.NewStore()
	closeStore, err := LoadMemoDir(store, dir)
	if err != nil {
		t.Fatal(err)
	}
	ev.UseMemo(store)
	type improvement struct {
		explored  int
		objective float64
	}
	var improvements []improvement
	res, err := ev.OptimizeContext(context.Background(), ValidationSpace(), 1, &OptimizeOptions{
		// One chain at a time, so the progress stream's explored counts
		// are deterministic.
		Parallel: 1,
		Progress: func(p Progress) {
			if p.Improved {
				improvements = append(improvements, improvement{ev.Explored(), p.Incumbent.Objective})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := closeStore(); err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no feasible configuration on the validation space")
	}
	// The first incumbent that reached the winning objective, not the
	// last improvement, which can be a tie-break between equal
	// objectives.
	leg := searchLegResult{res: res}
	for _, im := range improvements {
		if im.objective <= res.Best.Objective {
			leg.toFirst = im.explored
			break
		}
	}
	return leg
}

// TestRankedSearchEvalsToOptimum pins the plain search's exact counts
// at the validation corner: the winner, and that it is first reached
// after 68 of 89 explored points. The second run loads the first one's
// memo corpus from disk and must repeat the counts exactly.
func TestRankedSearchEvalsToOptimum(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "memo")
	want := DesignPoint{ArrayDim: 126, ICSUM: 200}
	const wantObj = 2.8618626653144856
	for _, corpus := range []string{"cold", "warm"} {
		leg := runSearchLeg(t, dir)
		res := leg.res
		if res.Best.Point != want || res.Best.Objective != wantObj {
			t.Errorf("%s: winner %v obj %v, want %v obj %v", corpus, res.Best.Point, res.Best.Objective, want, wantObj)
		}
		if leg.toFirst != 68 || res.Explored != 89 {
			t.Errorf("%s: first hit after %d of %d explored points, want 68 of 89", corpus, leg.toFirst, res.Explored)
		}
	}
}
