package core

import (
	"context"
	"strings"
	"testing"

	"tesa/internal/telemetry"
)

// baselineConfig is the experiment the baseline tests run: the AR/VR
// workload over space, searched at grid 24 with the given seed.
func baselineConfig(space Space, seed int64) *ExperimentConfig {
	cfg := fastConfig()
	cfg.Space, cfg.Seed, cfg.Grid = space, seed, 24
	return cfg
}

// w3D500 is the Table III corner: 3-D at 500 MHz, 30 fps, 75 C.
var w3D500 = Corner{Tech3D, 500, 30, 75}

// TestSC1MaxParallelism: SC1 must output a six-chiplet MCM (one DNN per
// chiplet) at the maximum ICS, and its ground-truth evaluation must
// exceed the 75 C budget — the paper's Fig. 5 result.
func TestSC1MaxParallelism(t *testing.T) {
	cfg := baselineConfig(DefaultSpace(), 1)
	res, err := cfg.RunSC1(context.Background(), Corner{Tech2D, 500, 30, 75})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("SC1 found no six-chiplet configuration")
	}
	if res.Chosen.Mesh.Count() != 6 {
		t.Errorf("SC1 mesh %v, want 6 chiplets (one per DNN)", res.Chosen.Mesh)
	}
	if res.Chosen.Point.ICSUM != 1000 {
		t.Errorf("SC1 ICS %d um, want the maximum 1000", res.Chosen.Point.ICSUM)
	}
	// The paper's SC1 chiplet is 180x180 with 1,536 KB; ours must land in
	// the same neighbourhood (the largest array whose 6-chiplet mesh
	// fits).
	if dim := res.Chosen.Point.ArrayDim; dim < 160 || dim > 200 {
		t.Errorf("SC1 array %dx%d, want in the 160..200 band (paper: 180)", dim, dim)
	}
	if res.Actual.PeakTempC <= 75 && !res.Actual.Runaway {
		t.Errorf("SC1 actually feasible at %.1f C; the paper's point is that it exceeds 75 C", res.Actual.PeakTempC)
	}
}

// TestSC2HotterThanBudget: sizing without temperature picks MCMs that
// violate the strict 75 C budget at 500 MHz (Table IV).
func TestSC2HotterThanBudget(t *testing.T) {
	cfg := baselineConfig(tinySpace(), 2)
	res, err := cfg.RunSC2(context.Background(), Corner{Tech2D, 500, 30, 75})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("SC2 found nothing")
	}
	if !res.Chosen.Feasible {
		t.Error("SC2's own pick infeasible under its own (thermal-blind) models")
	}
	if res.Actual.PeakTempC <= 75 && !res.Actual.Runaway {
		t.Errorf("SC2 2-D at 500 MHz actually ran at %.1f C <= 75; expected a violation", res.Actual.PeakTempC)
	}
}

// TestW1OriginalPerformanceViolation: minimizing temperature with no
// constraints lands on tiny, slow chiplets (the paper: 16x16 with a 36x
// latency violation).
func TestW1OriginalPerformanceViolation(t *testing.T) {
	cfg := baselineConfig(tinySpaceWide(), 4)
	res, err := cfg.RunW1(context.Background(), w3D500, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("W1 found nothing")
	}
	if dim := res.Chosen.Point.ArrayDim; dim > 64 {
		t.Errorf("W1-original picked %dx%d; minimizing T should drive to the smallest arrays", dim, dim)
	}
	if res.Actual.LatencyFactor < 5 {
		t.Errorf("W1-original latency factor %.1fx, want a gross violation (paper: 36x)", res.Actual.LatencyFactor)
	}
	_, cons := cfg.optionsFor(w3D500)
	desc := res.Describe(cons)
	if !strings.Contains(desc, "INFEASIBLE") {
		t.Errorf("Describe() = %q, want INFEASIBLE", desc)
	}
}

// TestW1ConstrainedThermalViolation: adding performance and power
// constraints to W1 still yields a thermally infeasible MCM at 75 C,
// because W1 ignores leakage.
func TestW1ConstrainedThermalViolation(t *testing.T) {
	cfg := baselineConfig(tinySpaceWide(), 4)
	res, err := cfg.RunW1(context.Background(), w3D500, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Skip("W1-constrained found nothing on the reduced space")
	}
	if res.Actual.LatencyFactor > 1 {
		t.Errorf("W1-constrained violates latency (%.2fx); constraints should have prevented that", res.Actual.LatencyFactor)
	}
	if res.Actual.PeakTempC <= 75 && !res.Actual.Runaway {
		t.Errorf("W1-constrained actually feasible (%.1f C); expected thermal violation at 75 C", res.Actual.PeakTempC)
	}
}

// TestW2OriginalPerformanceViolation: W2's unconstrained T+cost+latency
// objective trades latency away for cooler, cheaper chiplets, so its
// pick misses the 30 fps budget (the paper: 3x2 of 56x56, latency 4x
// over; Table III).
func TestW2OriginalPerformanceViolation(t *testing.T) {
	cfg := baselineConfig(tinySpaceWide(), 4)
	res, err := cfg.RunW2(context.Background(), w3D500, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("W2 found nothing")
	}
	if res.Name != "W2" {
		t.Errorf("name %q, want W2", res.Name)
	}
	if dim := res.Chosen.Point.ArrayDim; dim > 128 {
		t.Errorf("W2-original picked %dx%d; its objective should favour small arrays", dim, dim)
	}
	if res.Actual.LatencyFactor <= 1 {
		t.Errorf("W2-original latency factor %.2fx, want a violation (paper: 4x)", res.Actual.LatencyFactor)
	}
	if res.Actual.Point != res.Chosen.Point {
		t.Errorf("ground truth evaluated %v, not the pick %v", res.Actual.Point, res.Chosen.Point)
	}
}

// TestW2ConstrainedThermalViolation: with the latency and power
// constraints added, W2's pick satisfies them under its own linear
// leakage model, yet exceeds 75 C once evaluated with the exponential
// one — the paper's point about linearized leakage.
func TestW2ConstrainedThermalViolation(t *testing.T) {
	cfg := baselineConfig(tinySpaceWide(), 4)
	res, err := cfg.RunW2(context.Background(), w3D500, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("W2-constrained found nothing")
	}
	if res.Name != "W2+constraints" {
		t.Errorf("name %q, want W2+constraints", res.Name)
	}
	_, cons := cfg.optionsFor(w3D500)
	if c := res.Chosen; c.LatencyFactor > 1 || c.TotalPowerW > cons.PowerBudgetW {
		t.Errorf("W2-constrained pick violates its own constraints: latency %.2fx, power %.1f W", c.LatencyFactor, c.TotalPowerW)
	}
	if res.Chosen.PeakTempC > 75 {
		t.Errorf("W2-constrained pick already at %.1f C under its own linear leakage; the point is that it looks cool", res.Chosen.PeakTempC)
	}
	if res.Actual.PeakTempC <= 75 && !res.Actual.Runaway {
		t.Errorf("W2-constrained actually feasible (%.1f C); expected thermal violation at 75 C", res.Actual.PeakTempC)
	}
	if res.Actual.LeakageW <= res.Chosen.LeakageW {
		t.Errorf("exponential leakage %.2f W not above W2's linear %.2f W", res.Actual.LeakageW, res.Chosen.LeakageW)
	}
}

// TestBaselineRerunSharesStore: the baselines build their evaluators on
// the experiment's store and hub, so a second identical W1 run on one
// ExperimentConfig is served entirely from the first one's records and
// the hub sees no further thermal analysis.
func TestBaselineRerunSharesStore(t *testing.T) {
	cfg := baselineConfig(tinySpaceWide(), 4)
	cfg.Telemetry = telemetry.New(nil)
	first, err := cfg.RunW1(context.Background(), w3D500, true)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Found {
		t.Fatal("W1+constraints found nothing")
	}
	solved := thermalCalls(cfg.Telemetry)
	if solved == 0 {
		t.Fatal("hub counted no thermal analyses: the baseline is not on the experiment's hub")
	}
	again, err := cfg.RunW1(context.Background(), w3D500, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := thermalCalls(cfg.Telemetry) - solved; n != 0 {
		t.Errorf("second identical RunW1 ran %d thermal analyses, want 0", n)
	}
	if !again.Found || again.Chosen.Point != first.Chosen.Point {
		t.Errorf("rerun changed the pick: %+v, want %v", again.Chosen, first.Chosen.Point)
	}
}

// TestW2LinearLeakageUnderestimates: W2's linear leakage model reports
// less leakage power than the exponential ground truth at identical
// operating points.
func TestW2LinearLeakageUnderestimates(t *testing.T) {
	cfg := baselineConfig(tinySpaceWide(), 4)
	opts, cons := cfg.optionsFor(w3D500)
	w, models := cfg.Workload, cfg.Models
	linOpts := opts
	linOpts.LinearLeakage = true
	lin, err := NewEvaluator(w, linOpts, cons, models)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewEvaluator(w, opts, cons, models)
	if err != nil {
		t.Fatal(err)
	}
	p := DesignPoint{ArrayDim: 216, ICSUM: 700}
	evLin, err := lin.EvaluateFullContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	evExp, err := exp.EvaluateFullContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if evLin.LeakageW >= evExp.LeakageW {
		t.Errorf("linear leakage %.2f W not below exponential %.2f W", evLin.LeakageW, evExp.LeakageW)
	}
	if evLin.PeakTempC >= evExp.PeakTempC {
		t.Errorf("linear-model temperature %.1f C not below exponential %.1f C", evLin.PeakTempC, evExp.PeakTempC)
	}
}

// tinySpaceWide spans small to large arrays for the W1/W2 studies.
func tinySpaceWide() Space {
	var s Space
	for d := 16; d <= 256; d += 16 {
		s.ArrayDims = append(s.ArrayDims, d)
	}
	for ics := 0; ics <= 1000; ics += 250 {
		s.ICSUMs = append(s.ICSUMs, ics)
	}
	return s
}
