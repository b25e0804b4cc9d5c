package core

import (
	"context"
	"math/rand"
	"testing"

	"tesa/internal/dnn"
	"tesa/internal/telemetry"
)

// startCorner is one constraint setting for the start-sampling oracle.
type startCorner struct {
	name  string
	tech  Tech
	mhz   float64
	fps   float64
	tempC float64
	space Space
}

// evaluator builds a fresh grid-12 evaluator for the corner.
func (c startCorner) evaluator(t *testing.T) *Evaluator {
	t.Helper()
	opts := DefaultOptions()
	opts.Tech = c.tech
	opts.FreqHz = c.mhz * 1e6
	opts.Grid = 12
	cons := DefaultConstraints()
	cons.FPS = c.fps
	cons.TempBudgetC = c.tempC
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// bruteForceStart is the oracle: it evaluates every draw of the
// sampler's stream in reporting mode on a fresh evaluator and returns
// the feasible draw of least objective, the earliest on ties, plus how
// many other feasible points tie with it.
func bruteForceStart(t *testing.T, c startCorner, seed int64, budget int) (best DesignPoint, found bool, ties int) {
	t.Helper()
	e := c.evaluator(t)
	rng := rand.New(rand.NewSource(seed))
	var bestObj float64
	for i := 0; i < budget; i++ {
		p := c.space.Random(rng)
		ev, err := e.EvaluateFullContext(context.Background(), p)
		if err != nil {
			t.Fatalf("%s seed %d: %v: %v", c.name, seed, p, err)
		}
		if !ev.Feasible {
			continue
		}
		switch {
		case !found || ev.Objective < bestObj:
			best, bestObj, found, ties = p, ev.Objective, true, 0
		case ev.Objective == bestObj && p != best:
			ties++
		}
	}
	return best, found, ties
}

// TestSampleFeasibleStartMatchesBruteForce checks the screened start
// sampler against the brute-force oracle over three seeds at three
// corners, each chosen so that the sampler's shortcut is exercised:
// the objective-best survivors of the screen fail the temperature
// budget (phase 2 walks past them), the optimum is shared by several
// draws (the earliest must win), and no draw is feasible at all (3-D
// at 500 MHz, 30 fps, 75 C: every survivor fails thermal).
func TestSampleFeasibleStartMatchesBruteForce(t *testing.T) {
	const budget = 60
	corners := []startCorner{
		{"thermal walk", Tech2D, 500, 15, 75, DefaultSpace()},
		{"ties", Tech2D, 500, 15, 75, Space{ArrayDims: []int{108, 110, 112},
			ICSUMs: []int{0, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}}},
		{"no feasible", Tech3D, 500, 30, 75, DefaultSpace()},
	}
	feasible := func(ev *Evaluation) bool { return ev.Feasible }
	for _, c := range corners {
		for seed := int64(1); seed <= 3; seed++ {
			want, wantOK, ties := bruteForceStart(t, c, seed, budget)
			e := c.evaluator(t)
			tel := telemetry.New(nil)
			e.Instrument(tel)
			got, ok := e.sampleFeasibleStart(context.Background(), c.space, rand.New(rand.NewSource(seed)),
				budget, 4, e.screen, func(p DesignPoint) (*Evaluation, error) { return e.EvaluateContext(context.Background(), p) }, feasible)
			if got != want || ok != wantOK {
				t.Errorf("%s seed %d: start %v (ok %v), brute force %v (ok %v)", c.name, seed, got, ok, want, wantOK)
			}
			reg := tel.Registry()
			thermal := reg.Counter("start.thermal").Value()
			if n := reg.Counter("start.screened").Value(); n != budget {
				t.Errorf("%s seed %d: %d draws screened, want %d", c.name, seed, n, budget)
			}
			if int(thermal) != e.Explored() {
				t.Errorf("%s seed %d: %d survivors evaluated but %d points explored", c.name, seed, thermal, e.Explored())
			}
			// Each corner must exercise what it is named for.
			switch c.name {
			case "thermal walk":
				if thermal < 2 {
					t.Errorf("%s seed %d: the first survivor was feasible; the corner tests nothing", c.name, seed)
				}
			case "ties":
				if ties == 0 {
					t.Errorf("%s seed %d: no draw ties with the optimum", c.name, seed)
				}
			case "no feasible":
				if wantOK || thermal == 0 {
					t.Errorf("%s seed %d: feasible %v, %d survivors; want none feasible and some survivors", c.name, seed, wantOK, thermal)
				}
			}
		}
	}
}
