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
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
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
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.TableV()
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", core.FormatTableV(rows))
	}
}

// BenchmarkTableIV regenerates Table IV: SC2's temperature-unaware
// chiplet sizing and its actual thermal behaviour.
func BenchmarkTableIV(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.TableIV()
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", core.FormatTableIV(rows))
	}
}

// BenchmarkTableIII regenerates Table III: the W1/W2 adoptions against
// TESA at 500 MHz on 3-D MCMs.
func BenchmarkTableIII(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := cfg.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", cfg.FormatTableIII(res))
	}
}

// BenchmarkFig5 regenerates Fig. 5: the SC1 maximum-parallelism baseline
// exceeding the 75 C budget in both technologies.
func BenchmarkFig5(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rs, err := cfg.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", core.FormatFig5(rs, tesa.DefaultConstraints()))
	}
}

// BenchmarkFig6 regenerates Fig. 6: steady-state thermal maps of TESA
// outputs.
func BenchmarkFig6(b *testing.B) {
	cfg := benchConfig()
	corners := []core.Corner{
		{Tech: tesa.Tech2D, FreqMHz: 400, FPS: 30, BudgetC: 75},
		{Tech: tesa.Tech3D, FreqMHz: 400, FPS: 30, BudgetC: 75},
		{Tech: tesa.Tech3D, FreqMHz: 500, FPS: 15, BudgetC: 85},
	}
	for i := 0; i < b.N; i++ {
		for _, c := range corners {
			row, err := cfg.RunCorner(c)
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
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		v, err := cfg.ValidateOptimizer(core.Corner{Tech: tesa.Tech2D, FreqMHz: 400, FPS: 15, BudgetC: 85})
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
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		h, err := cfg.RunHeadline()
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
		e, err := ev.Evaluate(tesa.DesignPoint{ArrayDim: 200, ICSUM: 1700})
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
	if _, err := ev.Evaluate(tesa.DesignPoint{ArrayDim: 200, ICSUM: 0}); err != nil {
		b.Fatal(err)
	}
	ics := []int{50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600, 650, 700, 750, 800, 850, 900, 950, 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := tesa.DesignPoint{ArrayDim: 200, ICSUM: ics[i%len(ics)]}
		if _, err := ev.Evaluate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1 regenerates the paper's Fig. 1 motivation scenarios:
// dense/large, small/spread, maximal, and TESA-tuned MCMs.
func BenchmarkFig1(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		ss, err := cfg.Fig1()
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

// emitBench appends one JSONL record for this benchmark invocation to
// the file named by TESA_BENCH_JSON (no-op when unset), mirroring the
// helper in internal/thermal's benchmarks so one artifact collects both
// the solver micro-benchmarks and the end-to-end sweep numbers.
func emitBench(b *testing.B, extra map[string]any) {
	path := os.Getenv("TESA_BENCH_JSON")
	if path == "" {
		return
	}
	b.Cleanup(func() {
		rec := map[string]any{
			"bench":     b.Name(),
			"n":         b.N,
			"ns_per_op": float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		}
		for k, v := range extra {
			rec[k] = v
		}
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			b.Logf("bench json: %v", err)
			return
		}
		defer f.Close()
		if err := json.NewEncoder(f).Encode(rec); err != nil {
			b.Logf("bench json: %v", err)
		}
	})
}

// benchSweepThermal runs the full multi-start optimizer over the
// validation space on one thermal path and records the winner, so the
// reference/fast pair in BENCH_thermal.json can be checked for both the
// speedup and the identical winning design point.
func benchSweepThermal(b *testing.B, fast bool, label string) {
	opts := tesa.DefaultOptions()
	opts.Grid = 32
	opts.ThermalFast = fast
	cons := tesa.DefaultConstraints()
	cons.FPS = 15
	cons.TempBudgetC = 85
	var winner string
	var screened int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev, err := tesa.NewEvaluator(tesa.ARVRWorkload(), opts, cons, tesa.Models{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := ev.OptimizeContext(context.Background(), tesa.ValidationSpace(), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("no feasible configuration on the validation space")
		}
		winner = fmt.Sprint(res.Best.Point)
		screened = res.Screened
	}
	b.Logf("%s: winner %s, %d screened", label, winner, screened)
	emitBench(b, map[string]any{"path": label, "winner": winner, "screened": screened})
}

// BenchmarkSweepThermal is the end-to-end acceptance benchmark of the
// fast thermal path: same search, same seed, reference ladder vs
// -thermal-fast. Run with -benchtime 1x for a single timed sweep each.
func BenchmarkSweepThermal(b *testing.B) {
	b.Run("reference", func(b *testing.B) { benchSweepThermal(b, false, "reference") })
	b.Run("fast", func(b *testing.B) { benchSweepThermal(b, true, "fast") })
}

// benchSweepEval runs the full default-corner optimization (the
// acceptance corner of the memoization work: DefaultSpace, 30 fps,
// 15 W, 75 C, seed 1, fast thermal path) on one configuration and
// records the winner with its exact reported numbers, so the
// private-store / memo-cold / memo-warm triple in BENCH_eval.json can be
// checked for both the speedup and the identical result. Without a
// memoDir the evaluator keeps its private in-memory store.
func benchSweepEval(b *testing.B, label, memoDir string, parallel bool) {
	opts := tesa.DefaultOptions()
	opts.ThermalFast = true
	cons := tesa.DefaultConstraints()
	var rec map[string]any
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev, err := tesa.NewEvaluator(tesa.ARVRWorkload(), opts, cons, tesa.Models{})
		if err != nil {
			b.Fatal(err)
		}
		memoDone := func() error { return nil }
		if memoDir != "" {
			store := tesa.NewMemoStore()
			if memoDone, err = tesa.LoadMemoDir(store, memoDir); err != nil {
				b.Fatal(err)
			}
			ev.UseMemo(store)
		}
		optOpt := &tesa.OptimizeOptions{}
		if parallel {
			optOpt.Parallel = runtime.NumCPU()
		}
		start := time.Now()
		res, err := ev.OptimizeContext(context.Background(), tesa.DefaultSpace(), 1, optOpt)
		elapsed := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("no feasible configuration at the default corner")
		}
		if err := memoDone(); err != nil {
			b.Fatal(err)
		}
		// The identical-result gate compares the winner and the exact
		// reported objective/cost/latency; the temperature at the CLI's
		// 2-decimal precision (warm-started CG state may move its last
		// bits).
		rec = map[string]any{
			"path":          label,
			"parallel":      parallel,
			"winner":        fmt.Sprint(res.Best.Point),
			"objective":     res.Best.Objective,
			"cost_usd":      res.Best.MCMCost.Total,
			"latency_ms":    res.Best.MakespanSec * 1e3,
			"temp_c":        fmt.Sprintf("%.2f", res.Best.PeakTempC),
			"evals_per_sec": float64(res.Evaluations) / elapsed.Seconds(),
		}
		st := ev.MemoStats()
		rec["memo_hit_rate"] = st.HitRate()
		rec["memo_loaded"] = st.Loaded
	}
	b.Logf("%s: winner %v, objective %v", label, rec["winner"], rec["objective"])
	emitBench(b, rec)
}

// benchSweepSearch runs the validation-corner optimization (grid 32,
// 15 fps, 85 C, seed 1, fast thermal path) against a shared memo corpus
// and records how many distinct design points the search touched before
// first adopting its final winner, so the plain/ranked pair in
// BENCH_search.json can be checked for the identical winner and the
// surrogate's evals-to-optimum saving. The corpus leg is a cold plain
// search whose memo segments both measured legs then load, so the memo
// layer serves both identically and the only delta between "plain" and
// "ranked" is the learned ranking itself (which warms by replaying the
// corpus before the run).
func benchSweepSearch(b *testing.B, label, memoDir string, ranked bool) {
	opts := tesa.DefaultOptions()
	opts.Grid = 32
	opts.ThermalFast = true
	opts.Surrogate = ranked
	// A wider candidate pool than the default: with a corpus-warmed model
	// each annealing move picks the best of 16 scored candidates, which is
	// what converts ranking accuracy into fewer evaluations.
	opts.SurrogateK = 16
	cons := tesa.DefaultConstraints()
	cons.FPS = 15
	cons.TempBudgetC = 85
	var rec map[string]any
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev, err := tesa.NewEvaluator(tesa.ARVRWorkload(), opts, cons, tesa.Models{})
		if err != nil {
			b.Fatal(err)
		}
		store := tesa.NewMemoStore()
		memoDone, err := tesa.LoadMemoDir(store, memoDir)
		if err != nil {
			b.Fatal(err)
		}
		ev.UseMemo(store)
		type improvement struct {
			explored  int
			objective float64
		}
		var improvements []improvement
		optOpt := &tesa.OptimizeOptions{
			// One chain at a time: identical results for the plain path by
			// construction (see OptimizeOptions.Parallel), and a
			// deterministic online-training order for the ranked one.
			Parallel: 1,
			Progress: func(p tesa.Progress) {
				if p.Improved {
					improvements = append(improvements, improvement{ev.Explored(), p.Incumbent.Objective})
				}
			},
		}
		res, err := ev.OptimizeContext(context.Background(), tesa.ValidationSpace(), 1, optOpt)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("no feasible configuration on the validation space")
		}
		// evals-to-best is the explored count at the first incumbent that
		// reached the winning objective — not at the last improvement,
		// which can be a later tie-break churn between equal-objective
		// points.
		evalsToBest := 0
		for _, im := range improvements {
			if im.objective <= res.Best.Objective*(1+1e-9) {
				evalsToBest = im.explored
				break
			}
		}
		if evalsToBest == 0 {
			b.Fatal("no incumbent ever reached the winning objective")
		}
		if err := memoDone(); err != nil {
			b.Fatal(err)
		}
		hits, misses, scored := ev.SurrogateStats()
		rec = map[string]any{
			"path":           label,
			"winner":         fmt.Sprint(res.Best.Point),
			"objective":      res.Best.Objective,
			"evals_to_best":  evalsToBest,
			"explored":       res.Explored,
			"ranked":         res.Ranked,
			"surrogate_hit":  hits,
			"surrogate_miss": misses,
			"surrogate_rank": scored,
		}
	}
	b.Logf("%s: winner %v, %v points explored to first-hit the winning objective (%v total)",
		label, rec["winner"], rec["evals_to_best"], rec["explored"])
	emitBench(b, rec)
}

// BenchmarkSweepSearch is the acceptance benchmark of the learned
// ranking surrogate: same corner, same seed, same warm memo corpus,
// surrogate off vs on. The ranked leg must re-derive the identical
// winner while touching at least 2x fewer design points before first
// hitting it. Run with -benchtime 1x so the corpus leg really seeds the
// segments the measured legs load.
func BenchmarkSweepSearch(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "memo")
	b.Run("corpus", func(b *testing.B) { benchSweepSearch(b, "corpus", dir, false) })
	b.Run("plain", func(b *testing.B) { benchSweepSearch(b, "plain", dir, false) })
	b.Run("ranked", func(b *testing.B) { benchSweepSearch(b, "ranked", dir, true) })
}

// BenchmarkSweepEval is the end-to-end acceptance benchmark of the
// memoization layer: the same default-corner fast-path search on the
// evaluator's private in-memory store with sequential chains, then
// memo-cold (fresh persistent store, pooled chains), then memo-warm
// (second invocation over the same -memo-dir). The warm leg must
// re-derive the identical winner at least 5x faster than the
// private-store leg. Run with -benchtime 1x so the cold leg really is
// cold and the warm leg really reloads the cold leg's segments.
func BenchmarkSweepEval(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "memo")
	b.Run("private-store", func(b *testing.B) { benchSweepEval(b, "private-store", "", false) })
	b.Run("memo-cold", func(b *testing.B) { benchSweepEval(b, "memo-cold", dir, true) })
	b.Run("memo-warm", func(b *testing.B) { benchSweepEval(b, "memo-warm", dir, true) })
}
