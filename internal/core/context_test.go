package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tesa/internal/telemetry"
)

// cancelAfterEvals returns a context that a telemetry hook cancels once
// n pipeline evaluations have completed — a deterministic way to stop a
// search "mid-flight" regardless of machine speed.
func cancelAfterEvals(t *testing.T, e *Evaluator, n int64) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	tel := telemetry.New(nil)
	var seen int64
	tel.AddHook(func(name string, _ time.Duration) {
		if name == "pipeline.total" && atomic.AddInt64(&seen, 1) == n {
			cancel()
		}
	})
	e.Instrument(tel)
	return ctx
}

// waitGoroutines polls until the goroutine count settles back to at
// most base (with slack for runtime background goroutines).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, started with %d", runtime.NumGoroutine(), base)
}

// TestOptimizeContextPreCancelled: an already-dead context returns its
// error without touching the pipeline.
func TestOptimizeContextPreCancelled(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.OptimizeContext(ctx, tinySpace(), 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if e.Explored() != 0 {
		t.Errorf("explored %d points under a pre-cancelled context", e.Explored())
	}
}

// TestOptimizeContextCancelMid: cancelling after a handful of
// evaluations stops the multi-start ensemble promptly, returns
// ctx.Err(), and leaks no goroutines.
func TestOptimizeContextCancelMid(t *testing.T) {
	base := runtime.NumGoroutine()
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	ctx := cancelAfterEvals(t, e, 5)
	res, err := e.OptimizeContext(ctx, tinySpace(), 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (res=%+v), want context.Canceled", err, res)
	}
	waitGoroutines(t, base)
}

// TestExhaustiveContextPreCancelled mirrors the optimizer check for the
// sweep.
func TestExhaustiveContextPreCancelled(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExhaustiveContext(ctx, tinySpace(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExhaustiveContextCancelMid: cancelling mid-sweep joins every
// worker, returns ctx.Err(), and evaluates only part of the space.
func TestExhaustiveContextCancelMid(t *testing.T) {
	base := runtime.NumGoroutine()
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	space := tinySpace()
	ctx := cancelAfterEvals(t, e, 5)
	if _, err := e.ExhaustiveContext(ctx, space, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if e.Explored() >= space.Size() {
		t.Errorf("cancelled sweep still evaluated the whole %d-point space", space.Size())
	}
	waitGoroutines(t, base)
}

// TestOptimizeContextDeadline: a deadline surfaces as
// context.DeadlineExceeded through the same path.
func TestOptimizeContextDeadline(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := e.OptimizeContext(ctx, tinySpace(), 1, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestOptimizeContextProgress: the progress stream delivers a monotone
// improving sequence of incumbents ending at the winner.
func TestOptimizeContextProgress(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	var updates []Progress
	res, err := e.OptimizeContext(context.Background(), tinySpace(), 3, &OptimizeOptions{
		Progress: func(p Progress) { updates = append(updates, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("no progress updates from a successful run")
	}
	for i, u := range updates {
		if u.Phase != "anneal" || !u.Improved || u.Incumbent == nil {
			t.Fatalf("update %d malformed: %+v", i, u)
		}
		if i > 0 {
			prev := updates[i-1].Incumbent
			if !betterEval(u.Incumbent, prev) {
				t.Errorf("update %d incumbent %v/%.6f did not improve on %v/%.6f",
					i, u.Incumbent.Point, u.Incumbent.Objective, prev.Point, prev.Objective)
			}
		}
	}
	if got := updates[len(updates)-1].Incumbent.Objective; got != res.Best.Objective {
		t.Errorf("final incumbent %.6f != winner %.6f", got, res.Best.Objective)
	}
}

// TestSentinelErrInvalidSpace: Validate failures and off-space design
// points match ErrInvalidSpace.
func TestSentinelErrInvalidSpace(t *testing.T) {
	bad := Space{}
	if err := bad.Validate(); !errors.Is(err, ErrInvalidSpace) {
		t.Errorf("empty space err = %v, want ErrInvalidSpace", err)
	}
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	if _, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: -1}); !errors.Is(err, ErrInvalidSpace) {
		t.Errorf("invalid point err = %v, want ErrInvalidSpace", err)
	}
	if _, err := e.OptimizeContext(context.Background(), bad, 1, nil); !errors.Is(err, ErrInvalidSpace) {
		t.Errorf("OptimizeContext on bad space err = %v, want ErrInvalidSpace", err)
	}
	if _, err := e.ExhaustiveContext(context.Background(), bad, nil); !errors.Is(err, ErrInvalidSpace) {
		t.Errorf("ExhaustiveContext on bad space err = %v, want ErrInvalidSpace", err)
	}
}
