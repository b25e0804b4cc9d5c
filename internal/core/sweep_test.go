package core

import (
	"context"
	"errors"
	"sort"
	"testing"
)

// TestSweepMatchesSequentialFold checks the parallel sweep against an
// independent oracle: a plain loop over Space.Enumerate on a fresh
// evaluator, folding the feasible count, the BetterPoint winner and the
// quarantine ledger. Run it at several GOMAXPROCS widths (go test
// -cpu 1,4) to exercise the point queue with one worker and with many.
func TestSweepMatchesSequentialFold(t *testing.T) {
	space := tinySpace()
	for _, plan := range []string{"", "panic@sched:rate=0.1,seed=7"} {
		t.Run("faults="+plan, func(t *testing.T) {
			fresh := func() *Evaluator {
				e := chaosEvaluator(t)
				if plan != "" {
					e.InjectFaults(injectPlan(t, plan))
				}
				return e
			}

			oracle := fresh()
			var (
				feasible int
				best     *Evaluation
				poisoned []QuarantinedPoint
			)
			for _, p := range space.Enumerate() {
				ev, err := oracle.EvaluateContext(context.Background(), p)
				if err != nil {
					var ee *EvalError
					if !errors.As(err, &ee) {
						t.Fatalf("oracle: %v", err)
					}
					poisoned = append(poisoned, QuarantinedPoint{Point: p, Stage: ee.Stage, Reason: ee.Reason()})
					continue
				}
				if ev.Feasible {
					feasible++
					if best == nil || BetterPoint(ev.Objective, ev.Point, best.Objective, best.Point) {
						best = ev
					}
				}
			}
			sort.Slice(poisoned, func(i, j int) bool { return poisoned[i].Point.Less(poisoned[j].Point) })
			if best == nil {
				t.Fatal("oracle found nothing feasible; the space no longer exercises the sweep")
			}
			if plan != "" && len(poisoned) == 0 {
				t.Fatal("fault plan poisoned nothing; widen its rate")
			}

			got, err := fresh().ExhaustiveContext(context.Background(), space, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Total != space.Size() || got.Evaluated != got.Total {
				t.Errorf("evaluated %d of %d (space %d)", got.Evaluated, got.Total, space.Size())
			}
			if got.Feasible != feasible {
				t.Errorf("feasible %d, oracle %d", got.Feasible, feasible)
			}
			if got.Best == nil || got.Best.Point != best.Point || got.Best.Objective != best.Objective {
				t.Errorf("winner %+v, oracle %v obj %v", got.Best, best.Point, best.Objective)
			}
			if got.Quarantined != len(poisoned) || len(got.Poisoned) != len(poisoned) {
				t.Fatalf("quarantined %d (%d listed), oracle %d", got.Quarantined, len(got.Poisoned), len(poisoned))
			}
			for i, q := range got.Poisoned {
				if w := poisoned[i]; q.Point != w.Point || q.Stage != w.Stage || q.Reason != w.Reason {
					t.Errorf("ledger[%d] = %v, oracle %v", i, q, w)
				}
			}
		})
	}
}

// TestBetterPointTieBreak: the deterministic incumbent order, with its
// lexicographic tie-break, is a strict total order.
func TestBetterPointTieBreak(t *testing.T) {
	a := DesignPoint{ArrayDim: 126, ICSUM: 0}
	b := DesignPoint{ArrayDim: 126, ICSUM: 400}
	c := DesignPoint{ArrayDim: 128, ICSUM: 0}
	if !BetterPoint(1.0, a, 1.0, b) || BetterPoint(1.0, b, 1.0, a) {
		t.Error("ICS tie-break is not a strict order")
	}
	if !BetterPoint(1.0, b, 1.0, c) || BetterPoint(1.0, c, 1.0, b) {
		t.Error("array-dim tie-break is not a strict order")
	}
	if !BetterPoint(0.5, c, 1.0, a) {
		t.Error("objective must dominate the lexicographic order")
	}
	if BetterPoint(1.0, a, 1.0, a) {
		t.Error("a point must not beat itself")
	}
}
