package anneal

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	good := Config{TInit: 19, TFinal: 0.5, Decay: 0.87, PerturbationsPerLevel: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{TInit: 0.5, TFinal: 19, Decay: 0.87, PerturbationsPerLevel: 10}, // inverted temps
		{TInit: 19, TFinal: 0.5, Decay: 1.1, PerturbationsPerLevel: 10},  // decay >= 1
		{TInit: 19, TFinal: 0.5, Decay: 0.87, PerturbationsPerLevel: 0},  // no perturbations
		{TInit: -1, TFinal: 0.5, Decay: 0.87, PerturbationsPerLevel: 10},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDefaultStartsMatchPaper(t *testing.T) {
	starts := DefaultStarts(7)
	if len(starts) != 3 {
		t.Fatalf("got %d starts, want 3", len(starts))
	}
	wantDecay := []float64{0.89, 0.87, 0.85}
	for i, c := range starts {
		if c.TInit != 19 || c.TFinal != 0.5 || c.PerturbationsPerLevel != 10 {
			t.Errorf("start %d: %+v deviates from the paper's annealer properties", i, c)
		}
		if c.Decay != wantDecay[i] {
			t.Errorf("start %d: decay %g, want %g", i, c.Decay, wantDecay[i])
		}
		if err := c.Validate(); err != nil {
			t.Errorf("start %d invalid: %v", i, err)
		}
	}
	// The paper notes the final uphill-acceptance probability is tiny
	// (~2e-6 for delta=0.85 at a unit objective gap).
	if p := math.Exp(-1 / 0.5); p > 0.15 {
		t.Errorf("final-level acceptance %g unexpectedly high", p)
	}
}

// quadratic is a 1-D integer test problem: minimize (x-17)^2 over
// x in [0, 100].
func quadratic(x int) (float64, bool) {
	d := float64(x - 17)
	return d * d, x >= 0 && x <= 100
}

func stepNeighbor(x int, rng *rand.Rand) int {
	return x + rng.Intn(11) - 5
}

func TestMinimizeFindsOptimum(t *testing.T) {
	cfg := Config{TInit: 19, TFinal: 0.5, Decay: 0.87, PerturbationsPerLevel: 10, Seed: 42}
	res, err := MinimizeContext(context.Background(), cfg, func(*rand.Rand) (int, bool) { return 90, true }, stepNeighbor, quadratic)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no solution found")
	}
	if res.Best < 12 || res.Best > 22 {
		t.Errorf("best x = %d, want near 17", res.Best)
	}
	if res.Evaluations == 0 || res.Accepted == 0 {
		t.Errorf("suspicious counters: %+v", res)
	}
}

// TestInfeasibleStatesRejected: an evaluation that declares everything
// infeasible leaves the annealer at its start and reports it faithfully.
func TestInfeasibleStatesRejected(t *testing.T) {
	cfg := Config{TInit: 19, TFinal: 0.5, Decay: 0.85, PerturbationsPerLevel: 10, Seed: 1}
	evals := 0
	res, err := MinimizeContext(context.Background(), cfg,
		func(*rand.Rand) (int, bool) { return 50, true },
		stepNeighbor,
		func(x int) (float64, bool) {
			evals++
			return quadratic50Only(x)
		})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Best != 50 {
		t.Errorf("best = %v found=%v, want the only feasible state 50", res.Best, res.Found)
	}
	if evals != res.Evaluations {
		t.Errorf("evaluation counter %d != actual calls %d", res.Evaluations, evals)
	}
}

// quadratic50Only marks only x=50 feasible.
func quadratic50Only(x int) (float64, bool) {
	d := float64(x - 17)
	return d * d, x == 50
}

// TestNoFeasibleStart: init failure yields Found=false, the paper's
// "solution does not exist" outcome.
func TestNoFeasibleStart(t *testing.T) {
	cfg := Config{TInit: 19, TFinal: 0.5, Decay: 0.85, PerturbationsPerLevel: 10, Seed: 3}
	res, err := MinimizeContext(context.Background(), cfg, func(*rand.Rand) (int, bool) { return 0, false }, stepNeighbor, quadratic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("reported success without a feasible start")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := Config{TInit: 19, TFinal: 0.5, Decay: 0.89, PerturbationsPerLevel: 10, Seed: 99}
	run := func() Result[int] {
		r, err := MinimizeContext(context.Background(), cfg, func(*rand.Rand) (int, bool) { return 80, true }, stepNeighbor, quadratic)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Best != b.Best || a.BestObj != b.BestObj || a.Evaluations != b.Evaluations || a.Accepted != b.Accepted {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestMultiStartBeatsWorstStart: the ensemble returns the best of its
// starts and aggregates counters.
func TestMultiStartBeatsWorstStart(t *testing.T) {
	// A deceptive 1-D landscape: global minimum at 5, local trap at 80.
	deceptive := func(x int) (float64, bool) {
		if x < 0 || x > 100 {
			return 0, false
		}
		d1 := float64(x-5) * float64(x-5)
		d2 := float64(x-80)*float64(x-80) + 50
		return math.Min(d1, d2), true
	}
	best, per, err := MultiStart(context.Background(), DefaultStarts(11), 0, intLess,
		func(rng *rand.Rand) (int, bool) { return 80, true },
		stepNeighbor, deceptive)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Found {
		t.Fatal("ensemble found nothing")
	}
	if len(per) != 3 {
		t.Fatalf("%d per-start results, want 3", len(per))
	}
	for _, r := range per {
		if r.Found && r.BestObj < best.BestObj {
			t.Errorf("ensemble best %g worse than a start's %g", best.BestObj, r.BestObj)
		}
	}
	var evals int
	for _, r := range per {
		evals += r.Evaluations
	}
	if best.Evaluations != evals {
		t.Errorf("ensemble evaluations %d != sum of starts %d", best.Evaluations, evals)
	}
}

func TestMultiStartRequiresConfigs(t *testing.T) {
	_, _, err := MultiStart(context.Background(), nil, 0, intLess,
		func(*rand.Rand) (int, bool) { return 0, true },
		stepNeighbor, quadratic)
	if err == nil {
		t.Error("empty config list accepted")
	}
}

// TestUphillMovesHappen: at high temperature the annealer does accept
// worsening moves (this is what distinguishes it from greedy descent).
func TestUphillMovesHappen(t *testing.T) {
	cfg := Config{TInit: 1000, TFinal: 500, Decay: 0.9, PerturbationsPerLevel: 200, Seed: 5}
	res, err := MinimizeContext(context.Background(), cfg, func(*rand.Rand) (int, bool) { return 50, true }, stepNeighbor, quadratic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Uphill == 0 {
		t.Error("no uphill moves at T=1000; Metropolis rule broken")
	}
}
