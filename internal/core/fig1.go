package core

import (
	"context"
	"fmt"
	"strings"
)

// Fig1Scenario is one of the paper's Fig. 1 motivational cases: concrete
// MCMs showing why chiplet size and spacing must be tuned together under
// a thermal constraint.
type Fig1Scenario struct {
	Label       string
	Description string
	Eval        *Evaluation
	// Expect lists the constraint(s) the scenario is meant to violate
	// ("" for the TESA scenario d).
	Expect string
}

// Fig1 reproduces the paper's Fig. 1 scenarios at 400 MHz, 30 fps, 75 C:
//
//	(a) a dense layout of large chiplets violates the thermal constraint;
//	(b) shrinking the chiplets to spread them out violates performance;
//	(c) maximum-size chiplets violate power and temperature;
//	(d) temperature-aware tuning of size and spacing satisfies everything.
//
// It stops with ctx.Err() between scenarios when ctx is cancelled.
func (cfg *ExperimentConfig) Fig1(ctx context.Context) ([]*Fig1Scenario, error) {
	c := Corner{Tech2D, 400, 30, 75}
	opts, cons := cfg.optionsFor(c)
	opts.Grid = cfg.ReportGrid
	e, err := cfg.newEvaluator(opts, cons)
	if err != nil {
		return nil, err
	}

	scenarios := []*Fig1Scenario{
		{
			Label:       "(a) dense large chiplets",
			Description: "three 240x240 chiplets packed at minimal spacing",
			Expect:      "temperature",
		},
		{
			Label:       "(b) small spread chiplets",
			Description: "six 64x64 chiplets with generous whitespace",
			Expect:      "latency",
		},
		{
			Label:       "(c) maximal chiplets",
			Description: "256x256 chiplets packed to the interposer limit",
			Expect:      "temperature",
		},
	}
	points := []DesignPoint{
		{ArrayDim: 240, ICSUM: 100},
		{ArrayDim: 64, ICSUM: 1000},
		{ArrayDim: 256, ICSUM: 0},
	}
	for i, p := range points {
		ev, err := e.EvaluateFullContext(ctx, p)
		if err != nil {
			return nil, err
		}
		scenarios[i].Eval = ev
	}

	// (d): TESA's own answer.
	row, err := cfg.RunCornerContext(ctx, c)
	if err != nil {
		return nil, err
	}
	d := &Fig1Scenario{
		Label:       "(d) temperature-aware tuning (TESA)",
		Description: "chiplet size and spacing tuned together",
	}
	if row.Found {
		d.Eval = row.Eval
	}
	return append(scenarios, d), nil
}

// FormatFig1 renders the scenario comparison.
func FormatFig1(ss []*Fig1Scenario, cons Constraints) string {
	var b strings.Builder
	b.WriteString("Fig. 1 scenarios (2-D, 400 MHz, 30 fps, 75 C):\n")
	for _, s := range ss {
		if s.Eval == nil {
			fmt.Fprintf(&b, "  %-38s %s -> no configuration\n", s.Label, s.Description)
			continue
		}
		e := s.Eval
		status := "satisfies all constraints"
		if !e.Feasible {
			status = "violates " + strings.Join(e.Violations, "+")
		}
		fmt.Fprintf(&b, "  %-38s %v, %v grid: peak %.1f C, %.1f W, %.2fx latency -> %s\n",
			s.Label, e.Point, e.Mesh, e.PeakTempC, e.TotalPowerW, e.LatencyFactor, status)
	}
	return b.String()
}
