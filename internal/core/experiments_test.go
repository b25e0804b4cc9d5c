package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"tesa/internal/dnn"
	"tesa/internal/telemetry"
)

// fastConfig returns an experiment configuration scaled for unit tests:
// coarse grids and a reduced design space.
func fastConfig() *ExperimentConfig {
	cfg := ExperimentConfig{
		Workload:   dnn.ARVRWorkload(),
		Models:     DefaultModels(),
		Space:      tinySpace(),
		Seed:       1,
		Grid:       20,
		ReportGrid: 28,
	}
	return &cfg
}

// TestRunCornerCaching: repeated corner runs return the cached row, and
// a cancelled context stops even a cached one.
func TestRunCornerCaching(t *testing.T) {
	cfg := fastConfig()
	c := Corner{Tech2D, 400, 15, 85}
	ctx := context.Background()
	a, err := cfg.RunCornerContext(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.RunCornerContext(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("corner result not cached")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := cfg.RunCornerContext(cancelled, c); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled cached corner err = %v, want context.Canceled", err)
	}
}

// TestRunCornerShape: a feasible corner yields a winner whose full
// evaluation satisfies the corner's constraints at the reporting grid.
func TestRunCornerShape(t *testing.T) {
	cfg := fastConfig()
	row, err := cfg.RunCornerContext(context.Background(), Corner{Tech2D, 400, 15, 85})
	if err != nil {
		t.Fatal(err)
	}
	if !row.Found {
		t.Fatal("400 MHz / 15 fps / 85 C should be feasible")
	}
	e := row.Eval
	if !e.Feasible {
		t.Errorf("reported winner infeasible at the fine grid: %v", e.Violations)
	}
	if e.PeakTempC > 85 {
		t.Errorf("winner peak %.1f C over budget", e.PeakTempC)
	}
	if row.Explored <= 0 || row.Explored > row.SpaceSize {
		t.Errorf("explored %d of %d", row.Explored, row.SpaceSize)
	}
}

// TestValidateOptimizerAgreement: the Sec. IV-A check holds on the
// reduced space at test scale. Its memo hit rate counts only the
// validation's own lookups: a repeat on the same experiment is served
// entirely by the first run's records.
func TestValidateOptimizerAgreement(t *testing.T) {
	cfg := fastConfig()
	c := Corner{Tech2D, 400, 15, 85}
	v, err := cfg.ValidateOptimizerContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cfg.ValidateOptimizerContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if again.MemoHitRate != 1 {
		t.Errorf("repeated validation memo hit rate %.3f, want 1 (first run: %.3f)", again.MemoHitRate, v.MemoHitRate)
	}
	if !v.Agreement {
		exh, opt := math.NaN(), math.NaN()
		if v.ExhaustiveBest != nil {
			exh = v.ExhaustiveBest.Objective
		}
		if v.OptimizerBest != nil {
			opt = v.OptimizerBest.Objective
		}
		t.Errorf("optimizer disagreed with exhaustive optimum: %.4f vs %.4f", opt, exh)
	}
	if v.ExploredFraction <= 0 || v.ExploredFraction > 1 {
		t.Errorf("explored fraction %.2f out of (0,1]", v.ExploredFraction)
	}
}

// TestFig1Scenarios: the four motivation scenarios behave as the paper's
// Fig. 1 describes.
func TestFig1Scenarios(t *testing.T) {
	cfg := fastConfig()
	cfg.Space = DefaultSpace()
	ss, err := cfg.Fig1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 4 {
		t.Fatalf("scenarios = %d, want 4", len(ss))
	}
	// (a) dense large chiplets: thermally infeasible.
	if a := ss[0].Eval; a.Feasible || !contains(a.Violations, "temperature") {
		t.Errorf("(a) should violate temperature, got %v", a.Violations)
	}
	// (b) small chiplets: latency violation.
	if b := ss[1].Eval; b.Feasible || !contains(b.Violations, "latency") {
		t.Errorf("(b) should violate latency, got %v", b.Violations)
	}
	// (c) maximal chiplets: thermal (and possibly power) violation.
	if c := ss[2].Eval; c.Feasible ||
		!(contains(c.Violations, "temperature") || contains(c.Violations, "runaway") || contains(c.Violations, "power")) {
		t.Errorf("(c) should violate temperature/power, got %v", c.Violations)
	}
	// (d) TESA: feasible.
	if d := ss[3].Eval; d == nil || !d.Feasible {
		t.Error("(d) TESA scenario should be feasible")
	}
	out := FormatFig1(ss, DefaultConstraints())
	if !strings.Contains(out, "(d)") || !strings.Contains(out, "satisfies all constraints") {
		t.Errorf("format output incomplete:\n%s", out)
	}
}

// TestFig1SharesReportHub: the scenario evaluator runs on the
// experiment's telemetry hub, so a traced report counts Fig. 1's three
// scenario analyses. The corner row (d) is computed first without a hub
// and served from the corner cache, so the hub sees only the scenarios.
func TestFig1SharesReportHub(t *testing.T) {
	cfg := fastConfig()
	cfg.Space = DefaultSpace()
	cfg.Grid, cfg.ReportGrid = 8, 12
	if _, err := cfg.RunCornerContext(context.Background(), Corner{Tech2D, 400, 30, 75}); err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = telemetry.New(nil)
	if _, err := cfg.Fig1(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := thermalCalls(cfg.Telemetry); n != 3 {
		t.Errorf("hub counted %d thermal analyses, want the 3 scenario points", n)
	}
}

// TestFrequencySweepRemedial: the sweep identifies a reduced frequency as
// the remedial action when the high frequency has no solution.
func TestFrequencySweepRemedial(t *testing.T) {
	cfg := fastConfig()
	rows, err := cfg.FrequencySweep(context.Background(), Tech2D, 15, 85, []float64{400, 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	f, ok := MaxFeasibleFrequency(rows)
	if !ok {
		t.Fatal("no feasible frequency at 85 C; calibration drift?")
	}
	if f != 400 {
		t.Errorf("max feasible = %.0f MHz, want 400 (85 C is relaxed)", f)
	}
	out := FormatFrequencySweep(Tech2D, 15, 85, rows)
	if !strings.Contains(out, "maximum feasible frequency") {
		t.Errorf("format output incomplete:\n%s", out)
	}
}

// TestThermalMapRendering: maps render for full evaluations and refuse
// thermal-less ones.
func TestThermalMapRendering(t *testing.T) {
	cfg := fastConfig()
	opts, cons := cfg.optionsFor(Corner{Tech3D, 400, 15, 85})
	e, err := NewEvaluator(cfg.Workload, opts, cons, cfg.Models)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := e.EvaluateFullContext(context.Background(), DesignPoint{ArrayDim: 196, ICSUM: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if s := ThermalMapASCII(ev); !strings.Contains(s, "thermal map") {
		t.Error("3-D ASCII map missing")
	}
	if s := ThermalMapCSV(ev); len(strings.Split(strings.TrimSpace(s), "\n")) != opts.Grid {
		t.Error("3-D CSV map has wrong row count")
	}
	if s := ThermalMapASCII(&Evaluation{}); s != "" {
		t.Error("map rendered without thermal data")
	}
}
