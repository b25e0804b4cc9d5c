package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"tesa/internal/dnn"
)

// TestPipelineSurvivesSyntheticWorkloads is the end-to-end fuzz: random
// but valid multi-DNN workloads through the full evaluation pipeline at
// random design points must never error, and every produced evaluation
// must satisfy basic invariants (non-negative powers, consistent
// feasibility flags, placement/traffic shapes).
func TestPipelineSurvivesSyntheticWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	space := DefaultSpace()
	for trial := 0; trial < 12; trial++ {
		nDNN := 2 + rng.Intn(5)
		w := dnn.SynthWorkload(rng, nDNN, dnn.DefaultSynthParams())
		opts := DefaultOptions()
		opts.Grid = 20
		if rng.Intn(2) == 0 {
			opts.Tech = Tech3D
		}
		if rng.Intn(2) == 0 {
			opts.FreqHz = 500e6
		}
		cons := DefaultConstraints()
		e, err := NewEvaluator(w, opts, cons, Models{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < 6; i++ {
			p := space.Random(rng)
			ev, err := e.EvaluateFullContext(context.Background(), p)
			if err != nil {
				t.Fatalf("trial %d point %v: %v", trial, p, err)
			}
			checkInvariants(t, ev, opts)
		}
	}
}

func checkInvariants(t *testing.T, ev *Evaluation, opts Options) {
	t.Helper()
	if !ev.Fits {
		if !contains(ev.Violations, "area") {
			t.Errorf("%v: does not fit but no area violation", ev.Point)
		}
		return
	}
	checkFinite(t, ev, opts)
	if ev.MakespanSec <= 0 {
		t.Errorf("%v: non-positive makespan", ev.Point)
	}
	if ev.DynamicPowerW < 0 || ev.LeakageW < 0 || ev.TotalPowerW < ev.DynamicPowerW {
		t.Errorf("%v: inconsistent power %f/%f/%f", ev.Point, ev.DynamicPowerW, ev.LeakageW, ev.TotalPowerW)
	}
	if ev.MCMCost.Total <= 0 || ev.DRAMPowerW <= 0 {
		t.Errorf("%v: non-positive cost/DRAM %f/%f", ev.Point, ev.MCMCost.Total, ev.DRAMPowerW)
	}
	if !math.IsNaN(ev.PeakTempC) && ev.PeakTempC < 45-1e-6 {
		t.Errorf("%v: peak %f below ambient", ev.Point, ev.PeakTempC)
	}
	if ev.Feasible && len(ev.Violations) > 0 {
		t.Errorf("%v: feasible with violations %v", ev.Point, ev.Violations)
	}
	if !ev.Feasible && len(ev.Violations) == 0 {
		t.Errorf("%v: infeasible without violations", ev.Point)
	}
	if len(ev.ChipletTraffic) != ev.Mesh.Count() {
		t.Errorf("%v: traffic entries %d != chiplets %d", ev.Point, len(ev.ChipletTraffic), ev.Mesh.Count())
	}
	if ev.Placement == nil || len(ev.Placement.Chiplets) != ev.Mesh.Count() {
		t.Errorf("%v: placement inconsistent", ev.Point)
	}
	// Every scheduled DNN appears exactly once.
	seen := map[int]int{}
	for _, dnns := range ev.Schedule.ChipletDNNs {
		for _, d := range dnns {
			seen[d]++
		}
	}
	for d, c := range seen {
		if c != 1 {
			t.Errorf("%v: DNN %d scheduled %d times", ev.Point, d, c)
		}
	}
}

// checkFinite asserts the non-finite-containment property the hardened
// pipeline guarantees for every evaluation that fits: no scalar output
// is NaN or Inf (a feasible evaluation additionally may not even have an
// infinite objective). The stage guards are supposed to quarantine any
// point that would violate this before it reaches the memo cache.
func checkFinite(t *testing.T, ev *Evaluation, opts Options) {
	t.Helper()
	scalars := map[string]float64{
		"MakespanSec":   ev.MakespanSec,
		"LatencyFactor": ev.LatencyFactor,
		"TotalPowerW":   ev.TotalPowerW,
		"DynamicPowerW": ev.DynamicPowerW,
		"LeakageW":      ev.LeakageW,
		"MCMCost.Total": ev.MCMCost.Total,
		"DRAMPowerW":    ev.DRAMPowerW,
		"OPS":           ev.OPS,
		"PeakOPS":       ev.PeakOPS,
		"Chiplet.W":     ev.Chiplet.WidthMM,
		"Chiplet.H":     ev.Chiplet.HeightMM,
	}
	if !opts.DisableThermal && !math.IsNaN(ev.PeakTempC) {
		// Runaway points clamp their peak; every thermal outcome that was
		// produced must still be finite.
		scalars["PeakTempC"] = ev.PeakTempC
	}
	if ev.Feasible {
		scalars["Objective"] = ev.Objective
	} else if math.IsNaN(ev.Objective) {
		t.Errorf("%v: NaN objective", ev.Point)
	}
	for name, v := range scalars {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%v: non-finite %s = %f", ev.Point, name, v)
		}
	}
}

// TestEvaluationsFiniteAtExtremes drives the pipeline across extreme
// SRAM capacities (tiny and huge arrays) and degenerate mesh shapes
// (spacings that squeeze the interposer down to few or no chiplets):
// every evaluation that fits must come back fully finite, and points the
// guards reject must land in the quarantine ledger rather than erroring
// the run in an unstructured way.
func TestEvaluationsFiniteAtExtremes(t *testing.T) {
	dims := []int{8, 16, 64, 256, 512}
	spacings := []int{0, 100, 1000, 2000, 5000}
	for _, tech := range []Tech{Tech2D, Tech3D} {
		opts := DefaultOptions()
		opts.Tech = tech
		opts.Grid = 16
		e, err := NewEvaluator(dnn.ARVRWorkload(), opts, DefaultConstraints(), Models{})
		if err != nil {
			t.Fatal(err)
		}
		for _, dim := range dims {
			for _, ics := range spacings {
				p := DesignPoint{ArrayDim: dim, ICSUM: ics}
				ev, err := e.EvaluateFullContext(context.Background(), p)
				if err != nil {
					var ee *EvalError
					if !errors.As(err, &ee) {
						t.Errorf("%s %v: unstructured failure %v", tech, p, err)
					}
					continue
				}
				if ev.Fits {
					checkFinite(t, ev, opts)
				}
			}
		}
	}
}

// TestPipelineSingleDNNWorkload: the degenerate one-DNN workload works
// end to end (the mesh cap drops to 1, MinChiplets permitting).
func TestPipelineSingleDNNWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := dnn.SynthWorkload(rng, 1, dnn.DefaultSynthParams())
	opts := DefaultOptions()
	opts.Grid = 20
	opts.MinChiplets = 1
	e, err := NewEvaluator(w, opts, DefaultConstraints(), Models{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := e.EvaluateFullContext(context.Background(), DesignPoint{ArrayDim: 64, ICSUM: 500})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Mesh.Count() != 1 {
		t.Errorf("mesh %v, want a single chiplet (cap = #DNNs = 1)", ev.Mesh)
	}
	checkInvariants(t, ev, opts)
}
