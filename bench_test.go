// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus micro-benchmarks of the substrate
// models (the paper's Sec. IV-A runtime discussion).
//
// The macro benchmarks regenerate the corresponding experiment and log
// the reproduced rows; EXPERIMENTS.md records the comparison against the
// paper. They share one experiment configuration, so corner
// optimizations are paid once across the suite (exactly like the paper's
// tool-chain caching SCALE-Sim runs).
//
// Run everything with:
//
//	go test -bench=. -benchmem -timeout 0 .
package tesa_test

import (
	"context"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"tesa"
	"tesa/internal/core"
	"tesa/internal/dnn"
	"tesa/internal/systolic"
	"tesa/internal/telemetry"
	"tesa/internal/thermal"
)

var (
	benchCfgOnce sync.Once
	benchCfg     *core.ExperimentConfig
)

// benchConfig returns the shared experiment configuration (coarse search
// grid; winners re-evaluated at the fine grid).
func benchConfig() *core.ExperimentConfig {
	benchCfgOnce.Do(func() {
		cfg := core.DefaultExperimentConfig()
		benchCfg = &cfg
	})
	return benchCfg
}

// BenchmarkTableV regenerates Table V: TESA outputs at every constraint
// corner (2-D and 3-D, 400/500 MHz, 15/30 fps, 75/85 C).
func BenchmarkTableV(b *testing.B) {
	cfg, ctx := benchConfig(), context.Background()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.TableV(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", core.FormatTableV(rows))
	}
}

// BenchmarkTableIV regenerates Table IV: SC2's temperature-unaware
// chiplet sizing and its actual thermal behaviour.
func BenchmarkTableIV(b *testing.B) {
	cfg, ctx := benchConfig(), context.Background()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.TableIV(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", core.FormatTableIV(rows))
	}
}

// BenchmarkTableIII regenerates Table III: the W1/W2 adoptions against
// TESA at 500 MHz on 3-D MCMs.
func BenchmarkTableIII(b *testing.B) {
	cfg, ctx := benchConfig(), context.Background()
	for i := 0; i < b.N; i++ {
		res, err := cfg.TableIII(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", cfg.FormatTableIII(res))
	}
}

// BenchmarkFig5 regenerates Fig. 5: the SC1 maximum-parallelism baseline
// exceeding the 75 C budget in both technologies.
func BenchmarkFig5(b *testing.B) {
	cfg, ctx := benchConfig(), context.Background()
	for i := 0; i < b.N; i++ {
		rs, err := cfg.Fig5(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", core.FormatFig5(rs, tesa.DefaultConstraints()))
	}
}

// BenchmarkFig6 regenerates Fig. 6: steady-state thermal maps of TESA
// outputs.
func BenchmarkFig6(b *testing.B) {
	cfg, ctx := benchConfig(), context.Background()
	corners := []core.Corner{
		{Tech: tesa.Tech2D, FreqMHz: 400, FPS: 30, BudgetC: 75},
		{Tech: tesa.Tech3D, FreqMHz: 400, FPS: 30, BudgetC: 75},
		{Tech: tesa.Tech3D, FreqMHz: 500, FPS: 15, BudgetC: 85},
	}
	for i := 0; i < b.N; i++ {
		for _, c := range corners {
			row, err := cfg.RunCornerContext(ctx, c)
			if err != nil {
				b.Fatal(err)
			}
			if !row.Found {
				b.Logf("%v: solution does not exist", c)
				continue
			}
			b.Logf("%v:\n%s", c, core.ThermalMapASCII(row.Eval))
		}
	}
}

// BenchmarkOptimizerValidation reproduces Sec. IV-A: exhaustive search of
// the validation space vs the multi-start annealer, checking agreement
// and the explored fraction (the paper reports 100% agreement while
// exploring <15%).
func BenchmarkOptimizerValidation(b *testing.B) {
	cfg, ctx := benchConfig(), context.Background()
	for i := 0; i < b.N; i++ {
		v, err := cfg.ValidateOptimizerContext(ctx, core.Corner{Tech: tesa.Tech2D, FreqMHz: 400, FPS: 15, BudgetC: 85})
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("space=%d feasible=%d explored=%.1f%% agreement=%v",
			v.SpaceSize, v.FeasibleCount, 100*v.ExploredFraction, v.Agreement)
		if !v.Agreement {
			b.Fatal("optimizer disagreed with the exhaustive optimum")
		}
	}
}

// BenchmarkHeadline regenerates the Sec. IV-B headline claims: TESA vs
// SC1/SC2 savings and the 2-D vs 3-D comparison.
func BenchmarkHeadline(b *testing.B) {
	cfg, ctx := benchConfig(), context.Background()
	for i := 0; i < b.N; i++ {
		h, err := cfg.RunHeadline(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", h.Format())
	}
}

// --- Substrate micro-benchmarks (the paper's Sec. IV-A runtime notes:
// SCALE-Sim minutes-to-hours per point, HotSpot 6 s / 16 s per steady
// state, 3-6 leakage iterations).

// BenchmarkPerfModel times one full-workload performance simulation on a
// 200x200 array (the SCALE-Sim-equivalent stage).
func BenchmarkPerfModel(b *testing.B) {
	w := dnn.ARVRWorkload()
	a := systolic.Array{Rows: 200, Cols: 200, Dataflow: systolic.OutputStationary, SRAMBytes: 1024 * 1024}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range w.Networks {
			if _, err := systolic.SimulateNetwork(a, &w.Networks[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkThermal2D times one steady-state solve of a 2-D MCM stack at
// the paper's 125 um grid resolution (HotSpot reports ~6 s; the CG
// solver here is far faster).
func BenchmarkThermal2D(b *testing.B) {
	benchThermal(b, false)
}

// BenchmarkThermal3D times one steady-state solve of a 3-D MCM stack
// (HotSpot reports ~16 s).
func BenchmarkThermal3D(b *testing.B) {
	benchThermal(b, true)
}

func benchThermal(b *testing.B, threeD bool) {
	grid := 88
	m := thermal.DefaultMaterials()
	cov := make([]float64, grid*grid)
	power := make([]float64, grid*grid)
	sramPower := make([]float64, grid*grid)
	cells := 14
	for _, origin := range [][2]int{{20, 20}, {20, 54}, {54, 20}, {54, 54}} {
		for j := origin[1]; j < origin[1]+cells; j++ {
			for i := origin[0]; i < origin[0]+cells; i++ {
				cov[j*grid+i] = 1
				power[j*grid+i] = 2.5 / float64(cells*cells)
				sramPower[j*grid+i] = 0.8 / float64(cells*cells)
			}
		}
	}
	cell := 11e-3 / float64(grid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s *thermal.Stack
		var err error
		if threeD {
			s, err = thermal.BuildStack3D(grid, cell, cov, sramPower, power, 0.02, m)
		} else {
			s, err = thermal.BuildStack2D(grid, cell, cov, power, m)
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeakageConvergence times one full design-point evaluation
// including the leakage-temperature fixed point (the paper: 3-6 HotSpot
// iterations per point).
func BenchmarkLeakageConvergence(b *testing.B) {
	opts := tesa.DefaultOptions()
	opts.Grid = 64
	cons := tesa.DefaultConstraints()
	cons.FPS = 15
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev, err := tesa.NewEvaluator(tesa.ARVRWorkload(), opts, cons, tesa.Models{})
		if err != nil {
			b.Fatal(err)
		}
		e, err := ev.EvaluateContext(context.Background(), tesa.DesignPoint{ArrayDim: 200, ICSUM: 1700})
		if err != nil {
			b.Fatal(err)
		}
		if e.LeakIters < 1 {
			b.Fatal("no leakage iterations recorded")
		}
	}
}

// BenchmarkEvaluateDSE times a cached-workload DSE evaluation at the
// coarse search grid — the optimizer's inner-loop cost.
func BenchmarkEvaluateDSE(b *testing.B) {
	opts := tesa.DefaultOptions()
	opts.Grid = 32
	cons := tesa.DefaultConstraints()
	cons.FPS = 15
	ev, err := tesa.NewEvaluator(tesa.ARVRWorkload(), opts, cons, tesa.Models{})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the performance-model cache, then time thermal-dominated
	// evaluations across distinct points.
	if _, err := ev.EvaluateContext(context.Background(), tesa.DesignPoint{ArrayDim: 200, ICSUM: 0}); err != nil {
		b.Fatal(err)
	}
	ics := []int{50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600, 650, 700, 750, 800, 850, 900, 950, 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := tesa.DesignPoint{ArrayDim: 200, ICSUM: ics[i%len(ics)]}
		if _, err := ev.EvaluateContext(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1 regenerates the paper's Fig. 1 motivation scenarios:
// dense/large, small/spread, maximal, and TESA-tuned MCMs.
func BenchmarkFig1(b *testing.B) {
	cfg, ctx := benchConfig(), context.Background()
	for i := 0; i < b.N; i++ {
		ss, err := cfg.Fig1(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", core.FormatFig1(ss, tesa.DefaultConstraints()))
	}
}

// benchOptimizeTelemetry runs a full validation-space optimization with
// the given hub attached (nil = the disabled fast path).
func benchOptimizeTelemetry(b *testing.B, tel *telemetry.Telemetry) {
	opts := tesa.DefaultOptions()
	opts.Grid = 24
	cons := tesa.DefaultConstraints()
	cons.FPS = 15
	cons.TempBudgetC = 85
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev, err := tesa.NewEvaluator(tesa.ARVRWorkload(), opts, cons, tesa.Models{})
		if err != nil {
			b.Fatal(err)
		}
		ev.Instrument(tel)
		if _, err := ev.OptimizeContext(context.Background(), tesa.ValidationSpace(), 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeTelemetryOff is the overhead guard for the
// instrumented pipeline with telemetry DISABLED (nil hub): every probe
// must reduce to a nil check, so this should stay within noise (<2%) of
// the pre-instrumentation optimizer. Compare against ...On to price the
// enabled path:
//
//	go test -bench 'OptimizeTelemetry' -count 5 .
func BenchmarkOptimizeTelemetryOff(b *testing.B) {
	benchOptimizeTelemetry(b, nil)
}

// BenchmarkOptimizeTelemetryOn prices full observability: metrics
// registry plus a JSONL trace sink swallowing every annealer event.
func BenchmarkOptimizeTelemetryOn(b *testing.B) {
	benchOptimizeTelemetry(b, telemetry.New(telemetry.NewJSONLSink(io.Discard)))
}

// BenchmarkOptimizeTelemetryExposed prices live exposition on top of
// ...On: the same instrumented run with a metrics server attached and a
// scraper hitting /metrics at a Prometheus-like cadence. Serving reads
// registry snapshots off the hot path, so this must stay within 2% of
// the ...On baseline.
func BenchmarkOptimizeTelemetryExposed(b *testing.B) {
	tel := telemetry.New(telemetry.NewJSONLSink(io.Discard))
	srv, err := telemetry.Serve("127.0.0.1:0", tel)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		client := &http.Client{Timeout: time.Second}
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				resp, err := client.Get("http://" + srv.Addr() + "/metrics")
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()
	benchOptimizeTelemetry(b, tel)
	close(stop)
	wg.Wait()
}
