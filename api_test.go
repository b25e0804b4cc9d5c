package tesa_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"tesa"
)

// TestFacadeEndToEnd exercises the public API exactly as README's
// quickstart does: build an evaluator, evaluate the paper's winning
// point, run a small optimization.
func TestFacadeEndToEnd(t *testing.T) {
	w := tesa.ARVRWorkload()
	if len(w.Networks) != 6 {
		t.Fatalf("AR/VR workload has %d networks, want 6", len(w.Networks))
	}
	opts := tesa.DefaultOptions()
	opts.Grid = 24
	cons := tesa.DefaultConstraints()
	cons.FPS = 15
	ev, err := tesa.NewEvaluator(w, opts, cons, tesa.Models{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ev.EvaluateContext(context.Background(), tesa.DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Feasible {
		t.Errorf("paper's 15 fps winner infeasible via facade: %v", e.Violations)
	}
	if e.Mesh.Count() != 2 {
		t.Errorf("mesh %v, want 2 chiplets", e.Mesh)
	}

	space := tesa.Space{ArrayDims: []int{196, 212, 228, 244}, ICSUMs: []int{200, 600, 1000}}
	res, err := ev.OptimizeContext(context.Background(), space, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("optimizer found nothing via facade")
	}
	if res.Best.Objective <= 0 || math.IsInf(res.Best.Objective, 0) {
		t.Errorf("bad objective %g", res.Best.Objective)
	}
}

// TestFacadeDerivations checks the re-exported helper functions.
func TestFacadeDerivations(t *testing.T) {
	if kb := tesa.SRAMKBForArray(200); kb != 1024 {
		t.Errorf("SRAMKBForArray(200) = %d, want 1024", kb)
	}
	if s := tesa.DefaultSpace(); s.Size() != 121*21 {
		t.Errorf("space size %d, want %d", s.Size(), 121*21)
	}
	if tesa.Tech2D.String() != "2D" || tesa.Tech3D.String() != "3D" {
		t.Error("tech names wrong")
	}
}

// TestFacadeThermalMap renders a Fig. 6-style map via the facade.
func TestFacadeThermalMap(t *testing.T) {
	opts := tesa.DefaultOptions()
	opts.Grid = 32
	cons := tesa.DefaultConstraints()
	cons.FPS = 15
	ev, err := tesa.NewEvaluator(tesa.ARVRWorkload(), opts, cons, tesa.Models{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ev.EvaluateFullContext(context.Background(), tesa.DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if err != nil {
		t.Fatal(err)
	}
	ascii := tesa.ThermalMapASCII(e)
	if !strings.Contains(ascii, "thermal map") || !strings.Contains(ascii, "@") {
		t.Errorf("ASCII map malformed:\n%s", ascii)
	}
	csv := tesa.ThermalMapCSV(e)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 32 {
		t.Errorf("CSV map has %d rows, want 32", len(lines))
	}
	if len(strings.Split(lines[0], ",")) != 32 {
		t.Errorf("CSV map has %d columns, want 32", len(strings.Split(lines[0], ",")))
	}
}

// TestFacadeBaselines runs SC1 through the ExperimentConfig method on
// the facade's alias.
func TestFacadeBaselines(t *testing.T) {
	cfg := tesa.DefaultExperimentConfig()
	cfg.Grid = 24
	res, err := cfg.RunSC1(context.Background(), tesa.Corner{Tech: tesa.Tech2D, FreqMHz: 400, FPS: 30, BudgetC: 75})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Chosen.Mesh.Count() != 6 {
		t.Errorf("SC1 via facade: found=%v mesh=%v", res.Found, res.Chosen.Mesh)
	}
}
