package core

import (
	"context"
	"fmt"
	"strings"
)

// FrequencyRow is one entry of a frequency remedial-action sweep.
type FrequencyRow struct {
	FreqMHz float64
	Found   bool
	Eval    *Evaluation
}

// FrequencySweep runs TESA at each frequency (descending) for one
// (technology, fps, budget) setting — the paper's concluding remedial
// action: "TESA can help chip designers identify thermally infeasible
// solutions and take remedial decisions, e.g., reducing frequency". The
// canonical demonstration: 3-D at 75 C has no solution at 500 MHz but
// does at 400 MHz. Each frequency's search observes ctx.
func (cfg *ExperimentConfig) FrequencySweep(ctx context.Context, tech Tech, fps, budgetC float64, freqsMHz []float64) ([]*FrequencyRow, error) {
	if len(freqsMHz) == 0 {
		return nil, fmt.Errorf("core: no frequencies to sweep")
	}
	var rows []*FrequencyRow
	for _, f := range freqsMHz {
		if f <= 0 {
			return nil, fmt.Errorf("core: non-positive frequency %g MHz", f)
		}
		row, err := cfg.RunCornerContext(ctx, Corner{Tech: tech, FreqMHz: f, FPS: fps, BudgetC: budgetC})
		if err != nil {
			return nil, err
		}
		rows = append(rows, &FrequencyRow{FreqMHz: f, Found: row.Found, Eval: row.Eval})
	}
	return rows, nil
}

// MaxFeasibleFrequency returns the highest frequency in the sweep with a
// feasible MCM, or ok=false when none works.
func MaxFeasibleFrequency(rows []*FrequencyRow) (float64, bool) {
	best, ok := 0.0, false
	for _, r := range rows {
		if r.Found && r.FreqMHz > best {
			best, ok = r.FreqMHz, true
		}
	}
	return best, ok
}

// FormatFrequencySweep renders the sweep.
func FormatFrequencySweep(tech Tech, fps, budgetC float64, rows []*FrequencyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "remedial frequency sweep (%s, %.0f fps, %.0f C):\n", tech, fps, budgetC)
	for _, r := range rows {
		if !r.Found {
			fmt.Fprintf(&b, "  %4.0f MHz: solution does not exist\n", r.FreqMHz)
			continue
		}
		fmt.Fprintf(&b, "  %4.0f MHz: %v, %v grid, peak %.1f C\n", r.FreqMHz, r.Eval.Point, r.Eval.Mesh, r.Eval.PeakTempC)
	}
	if f, ok := MaxFeasibleFrequency(rows); ok {
		fmt.Fprintf(&b, "  -> maximum feasible frequency: %.0f MHz\n", f)
	} else {
		b.WriteString("  -> no frequency in the sweep is feasible\n")
	}
	return b.String()
}
