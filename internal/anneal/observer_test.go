package anneal

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// recordObserver captures the full event stream; safe for concurrent
// use so MultiStart can share one instance.
type recordObserver struct {
	mu     sync.Mutex
	starts []StartEvent
	levels []LevelEvent
	dones  []DoneEvent
}

func (o *recordObserver) AnnealStart(e StartEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.starts = append(o.starts, e)
}

func (o *recordObserver) AnnealLevel(e LevelEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.levels = append(o.levels, e)
}

func (o *recordObserver) AnnealDone(e DoneEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.dones = append(o.dones, e)
}

// TestObserverEventOrdering: one annealer produces AnnealStart, then
// per-level events with strictly decaying temperature and consistent
// counters, then AnnealDone matching the returned Result.
func TestObserverEventOrdering(t *testing.T) {
	obs := &recordObserver{}
	cfg := Config{TInit: 19, TFinal: 0.5, Decay: 0.87, PerturbationsPerLevel: 10,
		Seed: 42, Start: 7, Observer: obs}
	res, err := MinimizeContext(context.Background(), cfg, func(*rand.Rand) (int, bool) { return 90, true }, stepNeighbor, quadratic)
	if err != nil {
		t.Fatal(err)
	}

	if len(obs.starts) != 1 || len(obs.dones) != 1 {
		t.Fatalf("lifecycle events: %d starts, %d dones, want 1 each", len(obs.starts), len(obs.dones))
	}
	if s := obs.starts[0]; s.Start != 7 || s.Decay != 0.87 || s.Seed != 42 {
		t.Errorf("start event %+v does not echo the config", s)
	}
	if len(obs.levels) != res.Levels {
		t.Fatalf("%d level events, result says %d levels", len(obs.levels), res.Levels)
	}

	var accepted, uphill int
	for i, lv := range obs.levels {
		if lv.Start != 7 {
			t.Fatalf("level %d: start label %d, want 7", i, lv.Start)
		}
		if lv.Level != i {
			t.Errorf("level index %d at position %d", lv.Level, i)
		}
		if i > 0 && lv.Temperature >= obs.levels[i-1].Temperature {
			t.Errorf("temperature did not decay: %g -> %g", obs.levels[i-1].Temperature, lv.Temperature)
		}
		if lv.Accepted+lv.Rejected != cfg.PerturbationsPerLevel {
			t.Errorf("level %d: accepted %d + rejected %d != N=%d",
				i, lv.Accepted, lv.Rejected, cfg.PerturbationsPerLevel)
		}
		if lv.Infeasible > lv.Rejected || lv.Uphill > lv.Accepted {
			t.Errorf("level %d: inconsistent counts %+v", i, lv)
		}
		if lv.BestObj > lv.CurObj {
			t.Errorf("level %d: best %g worse than current %g", i, lv.BestObj, lv.CurObj)
		}
		accepted += lv.Accepted
		uphill += lv.Uphill
	}
	if accepted != res.Accepted || uphill != res.Uphill {
		t.Errorf("per-level sums accepted=%d uphill=%d, result %d/%d",
			accepted, uphill, res.Accepted, res.Uphill)
	}
	if last := obs.levels[len(obs.levels)-1]; last.Evaluations != res.Evaluations {
		t.Errorf("final cumulative evaluations %d != result %d", last.Evaluations, res.Evaluations)
	}

	d := obs.dones[0]
	if d.Start != 7 || d.Found != res.Found || d.BestObj != res.BestObj ||
		d.Levels != res.Levels || d.Evaluations != res.Evaluations ||
		d.Accepted != res.Accepted || d.Uphill != res.Uphill {
		t.Errorf("done event %+v disagrees with result %+v", d, res)
	}
	if d.Duration <= 0 || d.Duration != res.Duration {
		t.Errorf("done duration %v vs result %v", d.Duration, res.Duration)
	}
}

// TestObserverDeterministic: a fixed seed replays an identical event
// stream (timestamps excluded) — the observer never perturbs the PRNG.
func TestObserverDeterministic(t *testing.T) {
	run := func() ([]LevelEvent, Result[int]) {
		obs := &recordObserver{}
		cfg := Config{TInit: 19, TFinal: 0.5, Decay: 0.89, PerturbationsPerLevel: 10,
			Seed: 99, Observer: obs}
		res, err := MinimizeContext(context.Background(), cfg, func(*rand.Rand) (int, bool) { return 80, true }, stepNeighbor, quadratic)
		if err != nil {
			t.Fatal(err)
		}
		return obs.levels, res
	}
	evA, resA := run()
	evB, resB := run()
	for i := range evA {
		evA[i].Duration = 0 // wall-clock, excluded like the timestamps
	}
	for i := range evB {
		evB[i].Duration = 0
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Error("same seed produced different level-event streams")
	}
	if resA.Best != resB.Best || resA.BestObj != resB.BestObj {
		t.Error("observer presence made the search nondeterministic")
	}

	// And identical to an unobserved run: the observer is read-only.
	plain := Config{TInit: 19, TFinal: 0.5, Decay: 0.89, PerturbationsPerLevel: 10, Seed: 99}
	resP, err := MinimizeContext(context.Background(), plain, func(*rand.Rand) (int, bool) { return 80, true }, stepNeighbor, quadratic)
	if err != nil {
		t.Fatal(err)
	}
	if resP.Best != resA.Best || resP.Evaluations != resA.Evaluations || resP.Accepted != resA.Accepted {
		t.Error("observed and unobserved runs diverged")
	}
}

// TestObserverNoFeasibleStart: lifecycle events still bracket a run
// that never finds a feasible start; no level events fire.
func TestObserverNoFeasibleStart(t *testing.T) {
	obs := &recordObserver{}
	cfg := Config{TInit: 19, TFinal: 0.5, Decay: 0.85, PerturbationsPerLevel: 10,
		Seed: 3, Observer: obs}
	res, err := MinimizeContext(context.Background(), cfg, func(*rand.Rand) (int, bool) { return 0, false }, stepNeighbor, quadratic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("found without a feasible start")
	}
	if len(obs.starts) != 1 || len(obs.dones) != 1 || len(obs.levels) != 0 {
		t.Errorf("events: %d starts, %d levels, %d dones; want 1/0/1",
			len(obs.starts), len(obs.levels), len(obs.dones))
	}
	if obs.dones[0].Found {
		t.Error("done event claims success")
	}
}

// TestMultiStartObserver: a shared observer sees every start's
// lifecycle, and per-start Result durations/levels are populated.
func TestMultiStartObserver(t *testing.T) {
	obs := &recordObserver{}
	cfgs := DefaultStarts(11)
	for i := range cfgs {
		cfgs[i].Observer = obs
	}
	best, per, err := MultiStart(context.Background(), cfgs, 0, intLess,
		func(*rand.Rand) (int, bool) { return 80, true }, stepNeighbor, quadratic)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.starts) != 3 || len(obs.dones) != 3 {
		t.Fatalf("%d starts, %d dones; want 3 each", len(obs.starts), len(obs.dones))
	}
	seen := map[int]bool{}
	for _, s := range obs.starts {
		seen[s.Start] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Errorf("start labels %v, want {0,1,2}", seen)
	}
	var maxLevels int
	for i, r := range per {
		if r.Duration <= 0 || r.Levels <= 0 {
			t.Errorf("start %d: duration %v, levels %d not populated", i, r.Duration, r.Levels)
		}
		if r.Levels > maxLevels {
			maxLevels = r.Levels
		}
	}
	if best.Levels != maxLevels {
		t.Errorf("ensemble levels %d, want max over starts %d", best.Levels, maxLevels)
	}
	if best.Duration <= 0 {
		t.Errorf("ensemble duration %v", best.Duration)
	}
}
