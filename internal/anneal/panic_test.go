package anneal

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// panicConfig is a small, valid annealer config for panic tests.
func panicConfig(seed int64) Config {
	return Config{TInit: 19, TFinal: 0.5, Decay: 0.87, PerturbationsPerLevel: 10, Seed: seed}
}

// TestPanicInEval: a panicking objective is recovered into an error
// wrapping ErrPanic instead of killing the process, and the partial
// result gathered before the panic survives.
func TestPanicInEval(t *testing.T) {
	evals := 0
	res, err := MinimizeContext(context.Background(), panicConfig(1),
		func(rng *rand.Rand) (int, bool) { return 40, true },
		stepNeighbor,
		func(x int) (float64, bool) {
			evals++
			if evals > 5 {
				panic("objective blew up")
			}
			return quadratic(x)
		})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if !res.Found || res.Evaluations == 0 {
		t.Errorf("partial result lost across recover: %+v", res)
	}
}

// TestPanicInInit: a panic before any evaluation still comes back as
// ErrPanic with an empty (not-found) result.
func TestPanicInInit(t *testing.T) {
	res, err := MinimizeContext(context.Background(), panicConfig(2),
		func(rng *rand.Rand) (int, bool) { panic("no initial state") },
		stepNeighbor,
		func(x int) (float64, bool) { return quadratic(x) })
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if res.Found {
		t.Errorf("found a result despite init panicking: %+v", res)
	}
}

// TestPanicObserverStillFires: the AnnealDone observer defer runs while
// the panic unwinds, so event streams stay balanced even for crashed
// starts.
func TestPanicObserverStillFires(t *testing.T) {
	obs := &recordObserver{}
	cfg := panicConfig(3)
	cfg.Observer = obs
	_, err := MinimizeContext(context.Background(), cfg,
		func(rng *rand.Rand) (int, bool) { return 40, true },
		stepNeighbor,
		func(x int) (float64, bool) { panic("first eval") })
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if len(obs.starts) != 1 || len(obs.dones) != 1 {
		t.Errorf("observer saw %d starts / %d dones, want 1/1", len(obs.starts), len(obs.dones))
	}
}

// TestMultiStartPanic: one crashing start out of three surfaces as an
// ErrPanic error from MultiStart after all goroutines join —
// no leaked workers, no process death.
func TestMultiStartPanic(t *testing.T) {
	cfgs := DefaultStarts(11)
	for i := range cfgs {
		cfgs[i].Start = i
	}
	_, _, err := MultiStart(context.Background(), cfgs, 0, intLess,
		func(rng *rand.Rand) (int, bool) { return 40, true },
		stepNeighbor,
		func(x int) (float64, bool) {
			if x < 20 {
				panic("poisoned region")
			}
			return quadratic(x)
		})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
}
