package core

import (
	"context"
	"math"
	"testing"

	"tesa/internal/dnn"
	"tesa/internal/telemetry"
)

// fastEvaluator mirrors testEvaluator with the ThermalFast path
// enabled.
func fastEvaluator(t *testing.T, tech Tech, freqMHz, fps, budgetC float64) *Evaluator {
	t.Helper()
	opts := DefaultOptions()
	opts.Tech = tech
	opts.FreqHz = freqMHz * 1e6
	opts.Grid = 24
	opts.ThermalFast = true
	cons := DefaultConstraints()
	cons.FPS = fps
	cons.TempBudgetC = budgetC
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// gateSpace is the design sub-space the surrogate-gate tests sweep.
func gateSpace() Space {
	var s Space
	for d := 180; d <= 256; d += 12 {
		s.ArrayDims = append(s.ArrayDims, d)
	}
	s.ICSUMs = []int{0, 500, 1000}
	return s
}

// TestSurrogateGateSoundness is the gate-correctness satellite: across
// the design sub-space, at the pre-screen guard band, the fast path makes
// exactly the same feasibility decision as the reference evaluation on
// every point — no feasible point is wrongly skipped (hot) and no
// infeasible point wrongly admitted (cool) — and grid-solved fast
// points stay within the 0.1 C agreement contract.
func TestSurrogateGateSoundness(t *testing.T) {
	configs := []struct {
		name            string
		freqMHz, budget float64
	}{
		{"loose-85C", 400, 85}, // mixed space: exercises both skip directions
		{"tight-75C", 500, 75}, // mostly over budget: exercises hot-skips
	}
	for _, cfg := range configs {
		ref := testEvaluator(t, Tech2D, cfg.freqMHz, 15, cfg.budget)
		fast := fastEvaluator(t, Tech2D, cfg.freqMHz, 15, cfg.budget)
		var hot, cool, solved int
		for _, p := range gateSpace().Enumerate() {
			rev, rerr := ref.Evaluate(p)
			fev, ferr := fast.Evaluate(p)
			if (rerr == nil) != (ferr == nil) {
				t.Fatalf("%s/%v: error disagreement: ref %v, fast %v", cfg.name, p, rerr, ferr)
			}
			if rerr != nil {
				continue
			}
			if rev.Feasible != fev.Feasible {
				t.Errorf("%s/%v: feasibility flipped: ref %v (%v, peak %.2f), fast %v (%v, %s, peak %.2f)",
					cfg.name, p, rev.Feasible, rev.Violations, rev.PeakTempC,
					fev.Feasible, fev.Violations, fev.ThermalFidelity, fev.PeakTempC)
			}
			switch fev.ThermalFidelity {
			case "surrogate-hot":
				hot++
				// The hot certificate covers temperature, power and runaway;
				// any of the three makes the reference infeasible.
				if rev.Feasible {
					t.Errorf("%s/%v: hot-skip on a feasible point (ref peak %.2f C, %.2f W)",
						cfg.name, p, rev.PeakTempC, rev.TotalPowerW)
				}
			case "surrogate-cool":
				cool++
				if rev.Runaway || rev.PeakTempC > cfg.budget || rev.TotalPowerW > ref.Cons.PowerBudgetW {
					t.Errorf("%s/%v: cool-skip on an infeasible point (ref peak %.2f C, %.2f W, runaway %v)",
						cfg.name, p, rev.PeakTempC, rev.TotalPowerW, rev.Runaway)
				}
			case "":
				// Thermal did not run (short-circuited on a cheap
				// violation) — identical on both paths by construction.
			default:
				solved++
				if !rev.Runaway && !fev.Runaway {
					if d := math.Abs(fev.PeakTempC - rev.PeakTempC); d > 0.1 {
						t.Errorf("%s/%v: fast grid solve differs by %.4f C", cfg.name, p, d)
					}
				}
			}
		}
		t.Logf("%s: %d hot-skips, %d cool-skips, %d grid solves", cfg.name, hot, cool, solved)
		if hot+cool == 0 {
			t.Errorf("%s: surrogate gate never fired — the test exercised nothing", cfg.name)
		}
	}
}

// TestSurrogateGateFullModeBypass: reporting-mode evaluations always run
// the grid ladder even under ThermalFast, so tables and figures never
// carry surrogate numbers.
func TestSurrogateGateFullModeBypass(t *testing.T) {
	fast := fastEvaluator(t, Tech2D, 400, 15, 85)
	ev, err := fast.EvaluateFull(DesignPoint{ArrayDim: 196, ICSUM: 500})
	if err != nil {
		t.Fatal(err)
	}
	switch ev.ThermalFidelity {
	case "surrogate-hot", "surrogate-cool":
		t.Errorf("full evaluation used the surrogate gate (%s)", ev.ThermalFidelity)
	case "":
		t.Error("full evaluation did not run thermal analysis")
	}
}

// TestFastPathIdenticalWinner is the end-to-end acceptance check: the
// optimizer run with ThermalFast lands on the same winning design point
// as the reference run, with the same feasibility outcome, on the
// tiny space and on the validation space at grid 16.
func TestFastPathIdenticalWinner(t *testing.T) {
	for _, tc := range []struct {
		name  string
		space Space
		grid  int
		seed  int64
	}{
		{"tiny", tinySpace(), 24, 3},
		{"validation", ValidationSpace(), 16, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			optimize := func(fast bool) *OptimizeResult {
				opts := DefaultOptions()
				opts.Grid = tc.grid
				opts.ThermalFast = fast
				cons := DefaultConstraints()
				cons.FPS = 15
				cons.TempBudgetC = 85
				e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.OptimizeContext(context.Background(), tc.space, tc.seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			refRes, fastRes := optimize(false), optimize(true)
			if refRes.Found != fastRes.Found {
				t.Fatalf("found disagreement: ref %v, fast %v", refRes.Found, fastRes.Found)
			}
			if !refRes.Found {
				t.Fatal("reference optimizer found nothing on a feasible space")
			}
			if refRes.Best.Point != fastRes.Best.Point {
				t.Errorf("winning point changed: ref %v (obj %.4f), fast %v (obj %.4f)",
					refRes.Best.Point, refRes.Best.Objective, fastRes.Best.Point, fastRes.Best.Objective)
			}
			if refRes.Evaluations != fastRes.Evaluations {
				t.Errorf("trajectory changed: ref %d evaluations, fast %d", refRes.Evaluations, fastRes.Evaluations)
			}
			if refRes.Screened != 0 {
				t.Errorf("reference run reported %d screened candidates, want 0", refRes.Screened)
			}
			switch fastRes.Best.ThermalFidelity {
			case "surrogate-hot", "surrogate-cool":
				t.Errorf("reported winner carries surrogate thermal numbers (%s)", fastRes.Best.ThermalFidelity)
			}
			if d := math.Abs(fastRes.Best.PeakTempC - refRes.Best.PeakTempC); d > 0.1 {
				t.Errorf("winner peak temperature differs by %.4f C between paths", d)
			}
		})
	}
}

// TestWarmStartCacheHits: consecutive same-geometry reporting-mode
// evaluations (which never pre-screen, so every point grid-solves) hit
// the warm-start cache, and the cached guess does not change the result
// beyond the solver contract.
func TestWarmStartCacheHits(t *testing.T) {
	fast := fastEvaluator(t, Tech2D, 400, 15, 85)
	tel := telemetry.New(nil)
	fast.Instrument(tel)
	ref := testEvaluator(t, Tech2D, 400, 15, 85)

	// Same array dimension, different spacing: same warm-cache geometry
	// class, distinct design points (no memo-cache interference).
	points := []DesignPoint{{ArrayDim: 196, ICSUM: 250}, {ArrayDim: 196, ICSUM: 500}, {ArrayDim: 196, ICSUM: 750}}
	for _, p := range points {
		fev, err := fast.EvaluateFull(p)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := ref.EvaluateFull(p)
		if err != nil {
			t.Fatal(err)
		}
		if !rev.Runaway && !fev.Runaway {
			if d := math.Abs(fev.PeakTempC - rev.PeakTempC); d > 0.1 {
				t.Errorf("%v: warm-started fast solve differs by %.4f C", p, d)
			}
		}
	}
	hits := tel.Registry().Counter("thermal.warmstart.hit").Value()
	misses := tel.Registry().Counter("thermal.warmstart.miss").Value()
	if hits < 1 {
		t.Errorf("warm-start cache never hit (%d hits, %d misses) across same-geometry evaluations", hits, misses)
	}
	if misses < 1 {
		t.Errorf("warm-start cache never missed (%d hits, %d misses) — first evaluation should miss", hits, misses)
	}
}
