package core

import (
	"context"
	"math"
	"testing"

	"tesa/internal/dnn"
	"tesa/internal/systolic"
)

// testEvaluator builds an evaluator with a coarse thermal grid for fast
// tests.
func testEvaluator(t *testing.T, tech Tech, freqMHz, fps, budgetC float64) *Evaluator {
	t.Helper()
	opts := DefaultOptions()
	opts.Tech = tech
	opts.FreqHz = freqMHz * 1e6
	opts.Grid = 24
	cons := DefaultConstraints()
	cons.FPS = fps
	cons.TempBudgetC = budgetC
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEvaluatorValidation(t *testing.T) {
	w := dnn.ARVRWorkload()
	if _, err := NewEvaluator(dnn.Workload{}, DefaultOptions(), DefaultConstraints(), Models{}); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := NewEvaluator(w, Options{}, DefaultConstraints(), Models{}); err == nil {
		t.Error("zero options accepted")
	}
	if _, err := NewEvaluator(w, DefaultOptions(), Constraints{}, Models{}); err == nil {
		t.Error("zero constraints accepted")
	}
}

// TestPaper2DWinnerFeasible pins the calibration anchor: the paper's 2-D
// 400 MHz configuration (200x200, 3x1,024 KB, 2x1 at 1,700 um) must be
// thermally feasible at 75 C and meet 15 fps, with a peak temperature in
// the low 70s (the paper reports 72.11 C).
func TestPaper2DWinnerFeasible(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 75)
	ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Mesh.Count() != 2 {
		t.Errorf("mesh %v, want 2 chiplets (paper: 2x grid)", ev.Mesh)
	}
	if !ev.Feasible {
		t.Errorf("paper's winning point infeasible: %v (peak %.1f C)", ev.Violations, ev.PeakTempC)
	}
	if ev.PeakTempC < 65 || ev.PeakTempC > 75 {
		t.Errorf("peak %.1f C outside the expected low-70s band (paper: 72.11)", ev.PeakTempC)
	}
}

// TestICSControlsChipletCount: the paper's Table V mechanism — at
// 1,700 um two 200x200 chiplets fit; tightening to 1,400 um lets the mesh
// estimator pack three.
func TestICSControlsChipletCount(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 30, 85)
	at := func(ics int) int {
		ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 200, ICSUM: ics})
		if err != nil {
			t.Fatal(err)
		}
		return ev.Mesh.Count()
	}
	if n := at(1700); n != 2 {
		t.Errorf("200x200 at 1,700 um: %d chiplets, want 2", n)
	}
	if n := at(1400); n != 3 {
		t.Errorf("200x200 at 1,400 um: %d chiplets, want 3", n)
	}
}

// Test3DMeshIs2x2: the paper's 3-D configurations around 196x196 derive
// 2x2 meshes at moderate spacing.
func Test3DMeshIs2x2(t *testing.T) {
	e := testEvaluator(t, Tech3D, 400, 30, 75)
	ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 196, ICSUM: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Mesh.Count() != 4 || ev.Mesh.Rows != 2 || ev.Mesh.Cols != 2 {
		t.Errorf("3-D 196x196 at 1 mm: mesh %v, want 2x2", ev.Mesh)
	}
}

// TestFrequencyHeats: 500 MHz runs the same configuration hotter than
// 400 MHz (the paper's 72.11 -> 77.53 C shift for 200x200).
func TestFrequencyHeats(t *testing.T) {
	p := DesignPoint{ArrayDim: 200, ICSUM: 1700}
	e400 := testEvaluator(t, Tech2D, 400, 15, 85)
	e500 := testEvaluator(t, Tech2D, 500, 15, 85)
	ev400, err := e400.EvaluateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	ev500, err := e500.EvaluateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	dT := ev500.PeakTempC - ev400.PeakTempC
	if dT < 2 || dT > 12 {
		t.Errorf("500-400 MHz delta = %.1f C, want 2..12 (paper: ~5.4)", dT)
	}
}

// TestTinyArrayViolatesLatency: W1's original pick (16x16, 24 KB) misses
// the 30 fps budget by a large factor (the paper reports 36x).
func TestTinyArrayViolatesLatency(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 30, 85)
	ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 16, ICSUM: 800})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Feasible {
		t.Error("16x16 configuration reported feasible")
	}
	if ev.LatencyFactor < 10 {
		t.Errorf("latency factor %.1fx, want a gross (>10x) violation", ev.LatencyFactor)
	}
	if !contains(ev.Violations, "latency") {
		t.Errorf("violations %v missing latency", ev.Violations)
	}
}

// TestOversizedChipletArea: a maximal array with maximal SRAM must be
// rejected as an area violation (it cannot fit the 8 mm interposer).
func TestOversizedChipletArea(t *testing.T) {
	opts := DefaultOptions()
	opts.Grid = 24
	cons := DefaultConstraints()
	cons.InterposerMM = 3 // shrink the interposer to force the violation
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 256, ICSUM: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Fits {
		t.Error("oversized chiplet reported as fitting")
	}
	if !contains(ev.Violations, "area") {
		t.Errorf("violations %v missing area", ev.Violations)
	}
	if !math.IsInf(ev.Objective, 1) {
		t.Errorf("infeasible objective %g, want +Inf", ev.Objective)
	}
}

// TestDisableThermalSkipsTemperature: SC2 mode reports NaN peak
// temperature and checks dynamic power only.
func TestDisableThermalSkipsTemperature(t *testing.T) {
	opts := DefaultOptions()
	opts.Grid = 24
	opts.DisableThermal = true
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, DefaultConstraints(), Models{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(ev.PeakTempC) {
		t.Errorf("peak temp %.1f with thermal disabled, want NaN", ev.PeakTempC)
	}
	if ev.LeakageW != 0 {
		t.Errorf("leakage %.2f W with thermal disabled, want 0", ev.LeakageW)
	}
}

// TestEvaluationCached: repeated evaluation returns the identical object.
func TestEvaluationCached(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 30, 85)
	p := DesignPoint{ArrayDim: 100, ICSUM: 500}
	a, err := e.EvaluateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.EvaluateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache miss on repeated evaluation")
	}
	if e.Explored() != 1 {
		t.Errorf("explored = %d, want 1", e.Explored())
	}
}

// TestFullUpgradesCachedEvaluation: a DSE evaluation is upgraded, not
// reused, when a full report is requested later.
func TestFullUpgradesCachedEvaluation(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 30, 85)
	p := DesignPoint{ArrayDim: 16, ICSUM: 0} // latency-infeasible: DSE skips thermal
	short, err := e.EvaluateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(short.PeakTempC) {
		t.Fatal("DSE evaluation of an infeasible point ran thermal analysis")
	}
	full, err := e.EvaluateFullContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(full.PeakTempC) {
		t.Error("full evaluation missing temperature")
	}
	again, err := e.EvaluateFullContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if again != full {
		t.Error("full evaluation not cached")
	}
}

// TestObjectiveWeights: Eq. (6) responds to alpha and beta.
func TestObjectiveWeights(t *testing.T) {
	p := DesignPoint{ArrayDim: 200, ICSUM: 1700}
	mk := func(alpha, beta float64) *Evaluation {
		opts := DefaultOptions()
		opts.Grid = 24
		opts.Alpha, opts.Beta = alpha, beta
		cons := DefaultConstraints()
		cons.FPS = 15
		e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := e.EvaluateContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	both := mk(1, 1)
	costOnly := mk(1, 0)
	dramOnly := mk(0, 1)
	if math.Abs(both.Objective-(costOnly.Objective+dramOnly.Objective)) > 1e-9 {
		t.Errorf("objective not additive: %g != %g + %g", both.Objective, costOnly.Objective, dramOnly.Objective)
	}
	wantCost := both.MCMCost.Total / DefaultOptions().RefCostUSD
	if math.Abs(costOnly.Objective-wantCost) > 1e-9 {
		t.Errorf("cost-only objective %g, want %g", costOnly.Objective, wantCost)
	}
}

// TestWeightStationaryDataflowWorks: the evaluator accepts the WS
// dataflow end to end.
func TestWeightStationaryDataflowWorks(t *testing.T) {
	opts := DefaultOptions()
	opts.Grid = 24
	opts.Dataflow = systolic.WeightStationary
	cons := DefaultConstraints()
	cons.FPS = 15
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if err != nil {
		t.Fatal(err)
	}
	if ev.MakespanSec <= 0 || math.IsNaN(ev.PeakTempC) && ev.Fits && len(ev.Violations) == 0 {
		t.Errorf("WS evaluation incomplete: %+v", ev)
	}
}

// TestPeakOPSDefinition: peak OPS = 2 * chiplets * PEs * freq.
func TestPeakOPSDefinition(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 * float64(ev.Mesh.Count()) * 200 * 200 * 400e6
	if math.Abs(ev.PeakOPS-want) > 1 {
		t.Errorf("PeakOPS = %g, want %g", ev.PeakOPS, want)
	}
	if ev.OPS <= 0 || ev.OPS > ev.PeakOPS {
		t.Errorf("effective OPS %g outside (0, peak %g]", ev.OPS, ev.PeakOPS)
	}
}

// TestLeakageIncreasesTotalPower: the full model's total power exceeds
// its dynamic part for any real configuration.
func TestLeakageIncreasesTotalPower(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if err != nil {
		t.Fatal(err)
	}
	if ev.TotalPowerW <= ev.DynamicPowerW {
		t.Errorf("total %.2f W not above dynamic %.2f W", ev.TotalPowerW, ev.DynamicPowerW)
	}
	if ev.LeakageW <= 0 {
		t.Errorf("leakage %.2f W not positive", ev.LeakageW)
	}
}

// Test3DRunsHotterThanIso2D: the same design point evaluated as a 3-D
// stack reaches a higher peak temperature than as 2-D chiplets (denser
// footprints, stacked tiers).
func Test3DRunsHotterThanIso2D(t *testing.T) {
	p := DesignPoint{ArrayDim: 216, ICSUM: 700}
	e2 := testEvaluator(t, Tech2D, 500, 15, 85)
	e3 := testEvaluator(t, Tech3D, 500, 15, 85)
	ev2, err := e2.EvaluateFullContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	ev3, err := e3.EvaluateFullContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if ev3.PeakTempC <= ev2.PeakTempC {
		t.Errorf("3-D peak %.1f C not above 2-D peak %.1f C", ev3.PeakTempC, ev2.PeakTempC)
	}
}

// TestLeakIterationsBand: the paper reports temperature-leakage
// convergence within 3 (2-D) to 6 (3-D) HotSpot iterations; the warm
// start keeps the loop in a comparable band.
func TestLeakIterationsBand(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if err != nil {
		t.Fatal(err)
	}
	if ev.LeakIters < 1 || ev.LeakIters > 8 {
		t.Errorf("leakage iterations = %d, want 1..8", ev.LeakIters)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
