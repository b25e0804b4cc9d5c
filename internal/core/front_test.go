package core

import (
	"context"
	"errors"
	"sort"
	"testing"

	"tesa/internal/dnn"
)

// bruteForceFront is the exact-front oracle: every point of the space
// evaluated on a fresh evaluator, then an O(n^2) filter that keeps each
// feasible point no other feasible point dominates over (MCM cost, DRAM
// power, peak temperature), sorted by those axes and then by point.
func bruteForceFront(t *testing.T, e *Evaluator, space Space) []*Evaluation {
	t.Helper()
	var feasible []*Evaluation
	for _, p := range space.Enumerate() {
		ev, err := e.EvaluateContext(context.Background(), p)
		if err != nil {
			t.Fatalf("oracle %v: %v", p, err)
		}
		if ev.Feasible {
			feasible = append(feasible, ev)
		}
	}
	axes := func(ev *Evaluation) []float64 {
		return []float64{ev.MCMCost.Total, ev.DRAMPowerW, ev.PeakTempC}
	}
	var front []*Evaluation
	for _, p := range feasible {
		dominated := false
		for _, q := range feasible {
			noWorse, better := true, false
			for k, qa := range axes(q) {
				pa := axes(p)[k]
				noWorse = noWorse && qa <= pa
				better = better || qa < pa
			}
			if noWorse && better {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		a, b := axes(front[i]), axes(front[j])
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return front[i].Point.Less(front[j].Point)
	})
	return front
}

// sameFrontScalars compares the scalars a front member reports.
func sameFrontScalars(a, b *Evaluation) bool {
	return a.Point == b.Point && a.Mesh == b.Mesh &&
		a.MCMCost.Total == b.MCMCost.Total && a.DRAMPowerW == b.DRAMPowerW &&
		a.PeakTempC == b.PeakTempC && a.TotalPowerW == b.TotalPowerW &&
		a.MakespanSec == b.MakespanSec && a.Objective == b.Objective
}

// frontEvaluator builds a fresh 2-D or 3-D evaluator at the given grid,
// frame rate and temperature budget.
func frontEvaluator(t *testing.T, tech Tech, grid int, fps, budgetC float64) *Evaluator {
	t.Helper()
	opts := DefaultOptions()
	opts.Tech = tech
	opts.Grid = grid
	cons := DefaultConstraints()
	cons.FPS = fps
	cons.TempBudgetC = budgetC
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestExhaustiveFrontMatchesBruteForce checks the sweep's front against
// the brute-force oracle, point for point and value for value, on
// separate evaluators so no value is shared through a store, and each
// member against a reporting-mode evaluation of its point. Run it at
// several GOMAXPROCS widths (go test -cpu 1,2,4): the archive folds
// points in completion order, and the front must not depend on it.
func TestExhaustiveFrontMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name        string
		tech        Tech
		grid        int
		fps, budget float64
		space       Space
		members     int // expected front size; 0 = any non-empty front
	}{
		{"tiny-2d", Tech2D, 8, 15, 85, tinySpace(), 0},
		{"tiny-3d", Tech3D, 8, 15, 85, tinySpace(), 0},
		// The settings of `tesa pareto -grid 8 -front exact`.
		{"default-grid8", Tech2D, 8, 30, 75, DefaultSpace(), 11},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := bruteForceFront(t, frontEvaluator(t, c.tech, c.grid, c.fps, c.budget), c.space)
			if len(want) == 0 {
				t.Fatal("oracle front is empty; the case no longer exercises the archive")
			}
			if c.members != 0 && len(want) != c.members {
				t.Errorf("oracle front has %d members, want %d", len(want), c.members)
			}
			res, err := frontEvaluator(t, c.tech, c.grid, c.fps, c.budget).ExhaustiveContext(context.Background(), c.space, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d of %d points feasible, %d front members", res.Feasible, res.Total, len(res.Front))
			if len(res.Front) != len(want) {
				t.Fatalf("front has %d members, oracle %d", len(res.Front), len(want))
			}
			// Members are DSE-mode evaluations; a reporting-mode evaluation
			// on a third evaluator must carry the same scalars.
			report := frontEvaluator(t, c.tech, c.grid, c.fps, c.budget)
			for i, got := range res.Front {
				w := want[i]
				full, err := report.EvaluateFullContext(context.Background(), w.Point)
				if err != nil {
					t.Fatal(err)
				}
				for _, ref := range []*Evaluation{w, full} {
					if !got.Feasible || !sameFrontScalars(got, ref) {
						t.Errorf("member %d = %v cost %v dram %v peak %v; reference %v cost %v dram %v peak %v",
							i, got.Point, got.MCMCost.Total, got.DRAMPowerW, got.PeakTempC,
							ref.Point, ref.MCMCost.Total, ref.DRAMPowerW, ref.PeakTempC)
					}
				}
			}
		})
	}
}

// TestExhaustiveFrontNoFeasible: an impossible budget is the paper's
// "solution does not exist" outcome, an empty front and no error.
func TestExhaustiveFrontNoFeasible(t *testing.T) {
	opts := DefaultOptions()
	opts.Grid = 24
	cons := DefaultConstraints()
	cons.PowerBudgetW = 0.01
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExhaustiveContext(context.Background(), tinySpace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil || res.Feasible != 0 || len(res.Front) != 0 {
		t.Errorf("impossible budget: best %v, %d feasible, front %d", res.Best, res.Feasible, len(res.Front))
	}
}

// TestFoldFrontOrderFree folds the same objective vectors in forward and
// reverse order and checks the sorted archives agree, including members
// with equal objectives, which dominate neither way and both stay.
func TestFoldFrontOrderFree(t *testing.T) {
	mk := func(dim int, cost, dram, peak float64) *Evaluation {
		ev := &Evaluation{Point: DesignPoint{ArrayDim: dim}, PeakTempC: peak, DRAMPowerW: dram}
		ev.MCMCost.Total = cost
		return ev
	}
	evs := []*Evaluation{
		mk(1, 4, 10, 70), mk(2, 4, 10, 71), mk(3, 5, 9, 70), mk(4, 3, 11, 72),
		mk(5, 5, 9, 70), mk(6, 6, 12, 73), mk(7, 3, 11, 69),
	}
	var fwd, rev []*Evaluation
	for i := range evs {
		fwd = foldFront(fwd, evs[i])
		rev = foldFront(rev, evs[len(evs)-1-i])
	}
	sortFront(fwd)
	sortFront(rev)
	want := []int{7, 1, 3, 5}
	for _, f := range [][]*Evaluation{fwd, rev} {
		if len(f) != len(want) {
			t.Fatalf("front %d members, want %d", len(f), len(want))
		}
		for i, ev := range f {
			if ev.Point.ArrayDim != want[i] {
				t.Errorf("member %d = %d, want %d", i, ev.Point.ArrayDim, want[i])
			}
		}
	}
}

// TestReEvaluateCancelled: a fine-grid re-evaluation on a cancelled
// context returns context.Canceled and computes nothing into the
// experiment's store.
func TestReEvaluateCancelled(t *testing.T) {
	cfg := DefaultExperimentConfig()
	before := cfg.store().Len()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev, err := cfg.reEvaluate(ctx, Corner{Tech2D, 400, 30, 75}, DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if !errors.Is(err, context.Canceled) || ev != nil {
		t.Errorf("reEvaluate on a cancelled ctx = %v, %v; want nil, context.Canceled", ev, err)
	}
	if n := cfg.store().Len(); n != before {
		t.Errorf("store grew %d -> %d records", before, n)
	}
}
