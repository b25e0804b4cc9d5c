package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"tesa/internal/dnn"
	"tesa/internal/memo"
)

// rankedEvaluator mirrors testEvaluator with the learned ranking
// surrogate enabled.
func rankedEvaluator(t *testing.T, tech Tech, freqMHz, fps, budgetC float64) *Evaluator {
	t.Helper()
	opts := DefaultOptions()
	opts.Tech = tech
	opts.FreqHz = freqMHz * 1e6
	opts.Grid = 24
	opts.Surrogate = true
	cons := DefaultConstraints()
	cons.FPS = fps
	cons.TempBudgetC = budgetC
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRankedOptimizeIdenticalWinner is the soundness contract of the
// tentpole: the surrogate only reorders what gets evaluated first, and
// every proposal still runs the real pipeline, so on a space where the
// annealer converges (the Sec. IV-A agreement setup) the ranked run
// lands on the same winner as the unranked one — while actually using
// its model.
func TestRankedOptimizeIdenticalWinner(t *testing.T) {
	space := tinySpace()
	ref := testEvaluator(t, Tech2D, 400, 15, 85)
	refRes, err := ref.OptimizeContext(context.Background(), space, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !refRes.Found {
		t.Fatal("reference optimizer found nothing")
	}

	sur := rankedEvaluator(t, Tech2D, 400, 15, 85)
	surRes, err := sur.OptimizeContext(context.Background(), space, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !surRes.Found {
		t.Fatal("ranked optimizer found nothing")
	}
	if surRes.Best.Point != refRes.Best.Point || surRes.Best.Objective != refRes.Best.Objective {
		t.Errorf("ranked winner %v obj %v, want %v obj %v",
			surRes.Best.Point, surRes.Best.Objective, refRes.Best.Point, refRes.Best.Objective)
	}
	hits, misses, _ := sur.SurrogateStats()
	if hits+misses == 0 {
		t.Error("ranking never consulted: all counters zero")
	}
	if hits > 0 && surRes.Ranked == 0 {
		t.Error("warm decisions recorded but no candidates ranked")
	}
	if refHits, refMisses, refRanked := ref.SurrogateStats(); refHits+refMisses+refRanked != 0 {
		t.Errorf("surrogate-off evaluator tallied ranking stats: %d/%d/%d", refHits, refMisses, refRanked)
	}
}

// TestRankedSweepIdenticalResult: shard-interior ordering must not
// change anything observable about an exhaustive sweep — every point is
// still evaluated and BetterPoint is a total order, so winner and
// counts are identical by construction.
func TestRankedSweepIdenticalResult(t *testing.T) {
	space := midSpace()
	ref := testEvaluator(t, Tech2D, 400, 15, 85)
	refRes, err := ref.ExhaustiveContext(context.Background(), space, nil)
	if err != nil {
		t.Fatal(err)
	}

	sur := rankedEvaluator(t, Tech2D, 400, 15, 85)
	// Warm the model first so the ordering path actually reorders:
	// train on a corner of the space, then sweep.
	for _, p := range space.Enumerate()[:surrogateDefaultKForTest()] {
		if _, err := sur.Evaluate(p); err != nil {
			t.Fatal(err)
		}
	}
	surRes, err := sur.ExhaustiveContext(context.Background(), space, nil)
	if err != nil {
		t.Fatal(err)
	}
	if surRes.Total != refRes.Total || surRes.Feasible != refRes.Feasible {
		t.Errorf("sweep shape changed: %d/%d, want %d/%d",
			surRes.Total, surRes.Feasible, refRes.Total, refRes.Feasible)
	}
	if (surRes.Best == nil) != (refRes.Best == nil) {
		t.Fatal("winner presence disagreement")
	}
	if refRes.Best != nil &&
		(surRes.Best.Point != refRes.Best.Point || surRes.Best.Objective != refRes.Best.Objective) {
		t.Errorf("sweep winner changed: %v obj %v, want %v obj %v",
			surRes.Best.Point, surRes.Best.Objective, refRes.Best.Point, refRes.Best.Objective)
	}
}

// surrogateDefaultKForTest keeps the warm-up loop in sync with the
// model's readiness threshold without exporting it from the evaluator.
func surrogateDefaultKForTest() int {
	e := &Evaluator{}
	return e.surrogateK()
}

// TestSurrogateReplayFromDiskTornTail is the corpus-loader coverage
// satellite: a torn trailing segment record (crash mid-write) must be
// skipped, not abort the load, and the surviving records must still
// warm the surrogate through the same replay path. This is the exact
// path the model's -memo-dir startup training shares with LoadMemoDir.
func TestSurrogateReplayFromDiskTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "memo")
	space := midSpace()

	// First process: sweep the space with persistence on, so the disk
	// holds one eval record per point.
	writer := testEvaluator(t, Tech2D, 400, 15, 85)
	writerStore := memo.NewStore()
	closeWriter, err := LoadMemoDir(writerStore, dir)
	if err != nil {
		t.Fatal(err)
	}
	writer.UseMemo(writerStore)
	if _, err := writer.ExhaustiveContext(context.Background(), space, nil); err != nil {
		t.Fatal(err)
	}
	if err := closeWriter(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record in half, as a crash mid-append would.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	// Second process: the load must succeed, skipping only the torn
	// tail, and the replay must train the model from what survived.
	store := memo.NewStore()
	closeStore, err := LoadMemoDir(store, dir)
	if err != nil {
		t.Fatalf("torn tail aborted the load: %v", err)
	}
	defer closeStore()
	loaded := store.Stats().Loaded
	if loaded == 0 {
		t.Fatal("nothing loaded from disk")
	}

	warm := rankedEvaluator(t, Tech2D, 400, 15, 85)
	warm.UseMemo(store)
	warm.warmSurrogate()
	n := warm.SurrogateLen()
	if n == 0 {
		t.Fatal("replay trained nothing from the surviving records")
	}
	// Feasible-only training: the corpus can hold infeasible records,
	// so the sample count is bounded by (not equal to) what loaded.
	if int64(n) > loaded {
		t.Errorf("trained %d samples from %d loaded records", n, loaded)
	}
}

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

// TestNSGA2FrontDeterministic: same seed, same front — including under
// the surrogate, whose ranked-offspring path must stay inside the
// single-threaded deterministic loop.
func TestNSGA2FrontDeterministic(t *testing.T) {
	for _, ranked := range []bool{false, true} {
		run := func() []DesignPoint {
			var e *Evaluator
			if ranked {
				e = rankedEvaluator(t, Tech2D, 400, 15, 85)
			} else {
				e = testEvaluator(t, Tech2D, 400, 15, 85)
			}
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
			t.Fatalf("ranked=%v: front sizes diverged: %d vs %d", ranked, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("ranked=%v: member %d diverged: %v vs %v", ranked, i, a[i], b[i])
			}
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

// searchLeg is one leg of the evals-to-optimum contract: the validation
// corner (2-D, 400 MHz, 15 fps, 85 C, grid 16, default thermal path,
// seed 1, one chain at a time) over the memo corpus in dir.
type searchLeg struct {
	res     *OptimizeResult
	toFirst int // points explored when an incumbent first reached the winning objective
	ev      *Evaluator
}

func runSearchLeg(t *testing.T, dir string, ranked bool) searchLeg {
	t.Helper()
	opts := DefaultOptions()
	opts.Grid = 16
	opts.Surrogate = ranked
	// With a corpus-warmed model each annealing move picks the best of
	// 16 scored candidates, which is what turns ranking accuracy into
	// fewer evaluations.
	opts.SurrogateK = 16
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
		// One chain at a time: a deterministic online-training order for
		// the ranked leg.
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
	leg := searchLeg{res: res, ev: ev}
	for _, im := range improvements {
		if im.objective <= res.Best.Objective {
			leg.toFirst = im.explored
			break
		}
	}
	return leg
}

// TestRankedSearchEvalsToOptimum is the learned ranking's acceptance
// contract, pinned on exact counts: over the same warm memo corpus, the
// plain and ranked searches end on the identical winner, and the ranked
// one first reaches it after 28 explored points instead of 68 (39 in
// total instead of 89). The counts are deterministic at Parallel: 1.
func TestRankedSearchEvalsToOptimum(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "memo")
	runSearchLeg(t, dir, false) // the corpus both measured legs load
	plain := runSearchLeg(t, dir, false)
	ranked := runSearchLeg(t, dir, true)

	want := DesignPoint{ArrayDim: 126, ICSUM: 200}
	const wantObj = 2.8618626653144856
	for _, leg := range []struct {
		name              string
		l                 searchLeg
		toFirst, explored int
	}{
		{"plain", plain, 68, 89},
		{"ranked", ranked, 28, 39},
	} {
		res := leg.l.res
		if res.Best.Point != want || res.Best.Objective != wantObj {
			t.Errorf("%s: winner %v obj %v, want %v obj %v", leg.name, res.Best.Point, res.Best.Objective, want, wantObj)
		}
		if leg.l.toFirst != leg.toFirst || res.Explored != leg.explored {
			t.Errorf("%s: first hit after %d of %d explored points, want %d of %d",
				leg.name, leg.l.toFirst, res.Explored, leg.toFirst, leg.explored)
		}
	}
	if hits, _, scored := ranked.ev.SurrogateStats(); hits == 0 || scored == 0 {
		t.Errorf("ranked leg never used its model: %d warm decisions, %d candidates scored", hits, scored)
	}
}
