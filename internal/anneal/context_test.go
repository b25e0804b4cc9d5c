package anneal

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
)

// cancellingEval wraps the quadratic test problem and cancels after n
// evaluations — a deterministic "mid-run" cancellation edge.
func cancellingEval(cancel context.CancelFunc, n int64) Eval[int] {
	var seen int64
	return func(x int) (float64, bool) {
		if atomic.AddInt64(&seen, 1) == n {
			cancel()
		}
		return quadratic(x)
	}
}

func TestMinimizeContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{TInit: 19, TFinal: 0.5, Decay: 0.87, PerturbationsPerLevel: 10, Seed: 1}
	res, err := MinimizeContext(ctx, cfg, func(*rand.Rand) (int, bool) { return 40, true }, stepNeighbor, Eval[int](func(x int) (float64, bool) { return quadratic(x) }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Evaluations != 0 {
		t.Errorf("evaluated %d states under a pre-cancelled context", res.Evaluations)
	}
}

func TestMinimizeContextCancelMid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{TInit: 19, TFinal: 0.5, Decay: 0.87, PerturbationsPerLevel: 10, Seed: 1}
	res, err := MinimizeContext(ctx, cfg, func(*rand.Rand) (int, bool) { return 40, true },
		stepNeighbor, cancellingEval(cancel, 5))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One evaluation may complete between the cancelling one and the
	// next ctx poll, but the run must stop immediately after that.
	if res.Evaluations < 5 || res.Evaluations > 6 {
		t.Errorf("evaluations = %d, want 5 (or 6 for the in-flight one)", res.Evaluations)
	}
	if !res.Found {
		t.Error("partial result lost the feasible start")
	}
}

func TestMultiStartContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel once the parallel starts have together burned 10
	// evaluations; every start must wind down and join.
	_, _, err := MultiStart(ctx, DefaultStarts(3), 0, intLess,
		func(rng *rand.Rand) (int, bool) { return 60, true },
		stepNeighbor, cancellingEval(cancel, 10))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
