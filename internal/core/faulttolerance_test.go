package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"tesa/internal/dnn"
	"tesa/internal/faults"
)

// faultSpace is a small all-fitting space for the chaos tests: every
// point completes the full pipeline, so faults at any stage fire.
func faultSpace() Space {
	return Space{ArrayDims: []int{180, 184, 188, 192, 196}, ICSUMs: []int{0, 250}}
}

// chaosEvaluator is testEvaluator at a coarser thermal grid: the matrix
// runs dozens of sweeps, and fidelity is irrelevant to fault handling.
func chaosEvaluator(t *testing.T) *Evaluator {
	t.Helper()
	opts := DefaultOptions()
	opts.FreqHz = 400e6
	opts.Grid = 16
	cons := DefaultConstraints()
	cons.FPS = 15
	cons.TempBudgetC = 85
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// injectPlan parses a fault spec, failing the test on error.
func injectPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestFaultMatrix is the issue's acceptance matrix: every fault kind at
// every stage it applies to, injected for exactly one design point. The
// sweep must complete, quarantine exactly that point with the right
// stage and reason, and still evaluate the rest of the space.
func TestFaultMatrix(t *testing.T) {
	space := faultSpace()
	target := DesignPoint{ArrayDim: 188, ICSUM: 250}

	// The target must complete the full pipeline on a clean evaluator,
	// otherwise faults in late stages would never fire.
	clean := chaosEvaluator(t)
	ev, err := clean.EvaluateContext(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Fits || math.IsNaN(ev.PeakTempC) {
		t.Fatalf("target %v does not reach the thermal stage (fits=%v, peak=%v); pick another",
			target, ev.Fits, ev.PeakTempC)
	}

	stages := []string{"systolic", "floorplan", "sched", "dram", "cost", "thermal"}
	type cell struct {
		kind   string
		stages []string
		reason string
	}
	matrix := []cell{
		{"panic", stages, "panic"},
		{"error", stages, "error"},
		{"nan", stages, "non-finite"},
		{"latency", stages, "timeout"},
		{"diverge", []string{"thermal"}, "solver-diverged"},
	}
	pred := fmt.Sprintf("dim=%d,ics=%d", target.ArrayDim, target.ICSUM)
	for _, c := range matrix {
		for _, stage := range c.stages {
			t.Run(c.kind+"@"+stage, func(t *testing.T) {
				t.Parallel()
				spec := fmt.Sprintf("%s@%s:%s", c.kind, stage, pred)
				if c.kind == "latency" {
					// The budget must clear every organic stage duration
					// (thermal takes tens of ms at this grid, multiplied
					// several-fold under -race) while the injected stall
					// exceeds it decisively.
					spec += ",delay=5s"
				}
				e := chaosEvaluator(t)
				e.InjectFaults(injectPlan(t, spec))
				if c.kind == "latency" {
					e.SetStageTimeout(2 * time.Second)
				}
				res, err := e.ExhaustiveContext(context.Background(), space, nil)
				if err != nil {
					t.Fatalf("sweep aborted: %v", err)
				}
				if res.Quarantined != 1 || len(res.Poisoned) != 1 {
					t.Fatalf("quarantined %d points (%v), want exactly the target", res.Quarantined, res.Poisoned)
				}
				q := res.Poisoned[0]
				if q.Point != target || q.Stage != stage || q.Reason != c.reason {
					t.Errorf("ledger entry %+v, want {%v %s %s}", q, target, stage, c.reason)
				}
				if res.Evaluated != res.Total {
					t.Errorf("evaluated %d of %d: the sweep did not continue past the fault", res.Evaluated, res.Total)
				}
				if got := e.QuarantineLedger(); len(got) != 1 || !reflect.DeepEqual(got[0], q) {
					t.Errorf("evaluator ledger %v disagrees with sweep result %v", got, q)
				}
			})
		}
	}
}

// TestSweepFailurePolicies: MaxFailures aborts with ErrTooManyFailures
// once exceeded, FailFast surfaces the first EvalError itself.
func TestSweepFailurePolicies(t *testing.T) {
	space := faultSpace()
	spec := "error@systolic:dim=180-188" // 3 dims x 2 spacings = 6 poisoned

	e := chaosEvaluator(t)
	e.InjectFaults(injectPlan(t, spec))
	_, err := e.ExhaustiveContext(context.Background(), space, &SweepOptions{MaxFailures: 2})
	if !errors.Is(err, ErrTooManyFailures) {
		t.Errorf("MaxFailures=2 err = %v, want ErrTooManyFailures", err)
	}
	if n := e.QuarantinedCount(); n < 3 {
		t.Errorf("aborted with %d quarantined, want > MaxFailures", n)
	}

	ff := chaosEvaluator(t)
	ff.InjectFaults(injectPlan(t, spec))
	_, err = ff.ExhaustiveContext(context.Background(), space, &SweepOptions{FailFast: true})
	var ee *EvalError
	if !errors.As(err, &ee) || !errors.Is(err, faults.ErrInjected) {
		t.Errorf("FailFast err = %v, want the injected *EvalError", err)
	}
}

// TestFailureMemoized: a poisoned point's error is cached like a
// successful evaluation — the retry returns the identical *EvalError
// without re-running the pipeline.
func TestFailureMemoized(t *testing.T) {
	e := chaosEvaluator(t)
	e.InjectFaults(injectPlan(t, "panic@cost:dim=188"))
	p := DesignPoint{ArrayDim: 188, ICSUM: 250}
	_, err1 := e.EvaluateContext(context.Background(), p)
	_, err2 := e.EvaluateContext(context.Background(), p)
	if err1 == nil || err1 != err2 {
		t.Fatalf("memoized failure not identical: %v vs %v", err1, err2)
	}
	if !errors.Is(err1, ErrStagePanic) {
		t.Errorf("err = %v, want ErrStagePanic", err1)
	}
	if e.QuarantinedCount() != 1 {
		t.Errorf("quarantined %d, want 1", e.QuarantinedCount())
	}
	if e.Evaluations() != 2 || e.CacheHitRate() != 0.5 {
		t.Errorf("evaluations=%d hitRate=%.2f, want the retry served from cache", e.Evaluations(), e.CacheHitRate())
	}
	// Explored counts successful evaluations only.
	if n := e.Explored(); n != 0 {
		t.Errorf("explored %d after a quarantined retry, want 0", n)
	}
}

// TestOptimizeQuarantine: the annealer treats poisoned points as
// infeasible and completes; a fully poisoned space surfaces as the
// "no solution" outcome with the ledger attached, and the failure
// policies abort like the sweep's.
func TestOptimizeQuarantine(t *testing.T) {
	space := faultSpace()

	// Poison one point: the run completes and reports it if visited.
	e := chaosEvaluator(t)
	e.InjectFaults(injectPlan(t, "error@sched:dim=184,ics=0"))
	res, err := e.OptimizeContext(context.Background(), space, 3, nil)
	if err != nil {
		t.Fatalf("optimize with one poisoned point: %v", err)
	}
	if !res.Found {
		t.Fatal("optimizer found nothing on a mostly-healthy space")
	}
	if res.Quarantined != len(res.Poisoned) || res.Quarantined != e.QuarantinedCount() {
		t.Errorf("ledger accounting: result %d/%d vs evaluator %d",
			res.Quarantined, len(res.Poisoned), e.QuarantinedCount())
	}

	// Poison everything, once at a stage the start-sampling screen runs
	// (systolic) and once at the stage only a full evaluation reaches
	// (thermal): no feasible start, ledger carried in the result, and
	// the failure policies abort like the sweep's.
	for _, spec := range []string{"error@systolic", "error@thermal"} {
		dead := chaosEvaluator(t)
		dead.InjectFaults(injectPlan(t, spec))
		res, err = dead.OptimizeContext(context.Background(), space, 3, nil)
		if !errors.Is(err, ErrNoFeasibleStart) {
			t.Fatalf("%s: fully poisoned space err = %v, want ErrNoFeasibleStart", spec, err)
		}
		if res == nil || res.Quarantined == 0 || res.Quarantined != len(res.Poisoned) {
			t.Errorf("%s: fully poisoned result = %+v, want a non-empty ledger", spec, res)
		}
		// A failed screen is never memoized as a verdict.
		if spec == "error@systolic" {
			dead.Memo().Range("screen:", func(k string, _ any) bool {
				t.Errorf("%s: failed screen memoized as %s", spec, k)
				return false
			})
		}

		ff := chaosEvaluator(t)
		ff.InjectFaults(injectPlan(t, spec))
		_, err = ff.OptimizeContext(context.Background(), space, 3, &OptimizeOptions{FailFast: true})
		var ee *EvalError
		if !errors.As(err, &ee) {
			t.Errorf("%s: optimize FailFast err = %v, want the *EvalError", spec, err)
		}

		lim := chaosEvaluator(t)
		lim.InjectFaults(injectPlan(t, spec))
		_, err = lim.OptimizeContext(context.Background(), space, 3, &OptimizeOptions{MaxFailures: 2})
		if !errors.Is(err, ErrTooManyFailures) {
			t.Errorf("%s: optimize MaxFailures err = %v, want ErrTooManyFailures", spec, err)
		}
	}
}
