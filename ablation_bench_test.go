// Ablation benchmarks for the design choices DESIGN.md calls out: the
// dataflow, the leakage model, the thermal grid resolution, the ICS
// spreading knob, the Eq. (6) objective weights, the remedial frequency
// sweep, and the network-on-package assumption.
package tesa_test

import (
	"context"
	"testing"

	"tesa"
	"tesa/internal/core"
	"tesa/internal/nop"
)

func ablationEvaluator(b *testing.B, mod func(*tesa.Options, *tesa.Constraints)) *tesa.Evaluator {
	b.Helper()
	opts := tesa.DefaultOptions()
	opts.Grid = 44
	cons := tesa.DefaultConstraints()
	cons.FPS = 15
	if mod != nil {
		mod(&opts, &cons)
	}
	ev, err := tesa.NewEvaluator(tesa.ARVRWorkload(), opts, cons, tesa.Models{})
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// BenchmarkAblationDataflow compares output-stationary against
// weight-stationary mapping on the paper's winning configuration: the
// choice changes cycles, utilization, and therefore power and heat.
func BenchmarkAblationDataflow(b *testing.B) {
	p := tesa.DesignPoint{ArrayDim: 200, ICSUM: 1700}
	for i := 0; i < b.N; i++ {
		for _, df := range []tesa.Dataflow{tesa.OutputStationary, tesa.WeightStationary} {
			ev := ablationEvaluator(b, func(o *tesa.Options, _ *tesa.Constraints) { o.Dataflow = df })
			e, err := ev.EvaluateFullContext(context.Background(), p)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("dataflow=%v: makespan %.1f ms, peak %.2f C, power %.2f W, DRAM %.2f W",
				df, e.MakespanSec*1e3, e.PeakTempC, e.TotalPowerW, e.DRAMPowerW)
		}
	}
}

// BenchmarkAblationLeakageModel quantifies the paper's central modeling
// argument: no leakage (W1) and linear leakage (W2) under-estimate the
// peak temperature that the exponential model (TESA) predicts.
func BenchmarkAblationLeakageModel(b *testing.B) {
	p := tesa.DesignPoint{ArrayDim: 216, ICSUM: 700}
	for i := 0; i < b.N; i++ {
		type mode struct {
			name string
			mod  func(*tesa.Options, *tesa.Constraints)
		}
		for _, m := range []mode{
			{"none (W1)", func(o *tesa.Options, _ *tesa.Constraints) { o.NoLeakage = true; o.Tech = tesa.Tech3D }},
			{"linear (W2)", func(o *tesa.Options, _ *tesa.Constraints) { o.LinearLeakage = true; o.Tech = tesa.Tech3D }},
			{"exponential (TESA)", func(o *tesa.Options, _ *tesa.Constraints) { o.Tech = tesa.Tech3D }},
		} {
			ev := ablationEvaluator(b, m.mod)
			e, err := ev.EvaluateFullContext(context.Background(), p)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("leakage=%s: peak %.2f C, leakage %.2f W, runaway=%v", m.name, e.PeakTempC, e.LeakageW, e.Runaway)
		}
	}
}

// BenchmarkAblationGrid sweeps the thermal grid resolution, validating
// that the coarse DSE grid tracks the fine reporting grid (the paper uses
// 125 um cells).
func BenchmarkAblationGrid(b *testing.B) {
	p := tesa.DesignPoint{ArrayDim: 200, ICSUM: 1700}
	for i := 0; i < b.N; i++ {
		for _, grid := range []int{24, 32, 44, 64, 88} {
			ev := ablationEvaluator(b, func(o *tesa.Options, _ *tesa.Constraints) { o.Grid = grid })
			e, err := ev.EvaluateFullContext(context.Background(), p)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("grid=%d (%.0f um cells): peak %.2f C", grid, 11000.0/float64(grid), e.PeakTempC)
		}
	}
}

// BenchmarkAblationICS sweeps the inter-chiplet spacing at fixed chiplet
// size — Fig. 1's motivation: spreading chiplets out relieves lateral
// thermal coupling, until the mesh estimator packs another chiplet in.
func BenchmarkAblationICS(b *testing.B) {
	ev := ablationEvaluator(b, nil)
	for i := 0; i < b.N; i++ {
		for _, ics := range []int{1500, 1600, 1700, 1800, 1900, 2000} {
			e, err := ev.EvaluateFullContext(context.Background(), tesa.DesignPoint{ArrayDim: 200, ICSUM: ics})
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("ICS=%4d um: mesh %v, peak %.2f C", ics, e.Mesh, e.PeakTempC)
		}
	}
}

// BenchmarkAblationObjective sweeps the Eq. (6) weights: cost-only
// optimization favors fewer/smaller dies, DRAM-only favors bigger SRAM
// and fewer channels; the paper's 1/1 balances them.
func BenchmarkAblationObjective(b *testing.B) {
	space := tesa.Space{}
	for d := 184; d <= 256; d += 8 {
		space.ArrayDims = append(space.ArrayDims, d)
	}
	for ics := 0; ics <= 1000; ics += 250 {
		space.ICSUMs = append(space.ICSUMs, ics)
	}
	for i := 0; i < b.N; i++ {
		for _, w := range []struct{ alpha, beta float64 }{{1, 0}, {1, 1}, {0, 1}} {
			ev := ablationEvaluator(b, func(o *tesa.Options, _ *tesa.Constraints) {
				o.Alpha, o.Beta = w.alpha, w.beta
			})
			res, err := ev.OptimizeContext(context.Background(), space, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Found {
				b.Logf("alpha=%g beta=%g: no solution", w.alpha, w.beta)
				continue
			}
			e := res.Best
			b.Logf("alpha=%g beta=%g: %v, %v grid, cost $%.2f, DRAM %.2f W",
				w.alpha, w.beta, e.Point, e.Mesh, e.MCMCost.Total, e.DRAMPowerW)
		}
	}
}

// BenchmarkFrequencySweep reproduces the paper's concluding remedial
// action: 3-D at 75 C has no solution at 500 MHz; reducing the frequency
// recovers feasibility.
func BenchmarkFrequencySweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.FrequencySweep(context.Background(), tesa.Tech3D, 30, 75, []float64{500, 450, 400})
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", core.FormatFrequencySweep(tesa.Tech3D, 30, 75, rows))
	}
}

// BenchmarkNoPAssumption quantifies the paper's network-on-package
// assumption on a real evaluated MCM.
func BenchmarkNoPAssumption(b *testing.B) {
	ev := ablationEvaluator(b, nil)
	for i := 0; i < b.N; i++ {
		e, err := ev.EvaluateFullContext(context.Background(), tesa.DesignPoint{ArrayDim: 200, ICSUM: 1700})
		if err != nil {
			b.Fatal(err)
		}
		a, err := ev.AssessNoP(e, nop.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("NoP: worst link %.2f ns vs %.1f ms frame; wire power %.4f W vs %.2f W DRAM",
			a.WorstLatencySec*1e9, 1e3/15.0, a.WirePowerW, e.DRAMPowerW)
	}
}

// BenchmarkAblationSearchStrategy compares the paper's multi-start
// annealer against random search and greedy hill climbing at equal
// evaluation budgets on the validation space.
func BenchmarkAblationSearchStrategy(b *testing.B) {
	space := tesa.ValidationSpace()
	mk := func() *tesa.Evaluator {
		opts := tesa.DefaultOptions()
		opts.Grid = 32
		cons := tesa.DefaultConstraints()
		cons.FPS = 15
		cons.TempBudgetC = 85
		ev, err := tesa.NewEvaluator(tesa.ARVRWorkload(), opts, cons, tesa.Models{})
		if err != nil {
			b.Fatal(err)
		}
		return ev
	}
	for i := 0; i < b.N; i++ {
		msa, err := mk().OptimizeContext(context.Background(), space, 5, nil)
		if err != nil {
			b.Fatal(err)
		}
		budget := msa.Evaluations
		rnd, err := mk().RandomSearchContext(context.Background(), space, 5, budget)
		if err != nil {
			b.Fatal(err)
		}
		grd, err := mk().GreedySearchContext(context.Background(), space, 5, budget)
		if err != nil {
			b.Fatal(err)
		}
		report := func(name string, r *tesa.OptimizeResult) {
			if !r.Found {
				b.Logf("%-8s budget=%d: no solution", name, budget)
				return
			}
			b.Logf("%-8s budget=%d: %v obj=%.4f", name, budget, r.Best.Point, r.Best.Objective)
		}
		report("MSA", msa)
		report("random", rnd)
		report("greedy", grd)
	}
}
