package core

import (
	"context"
	"fmt"
	"strings"
)

// Headline aggregates the paper's Sec. IV-B summary claims: TESA's cost
// and DRAM-power savings against the temperature-unaware baselines, and
// the 2-D vs 3-D comparison at the relaxed 85 C budget.
type Headline struct {
	// SC1 comparison at 500 MHz, 30 fps, 85 C, 2-D (the baseline's own
	// corner; Fig. 5). Savings are 1 - TESA/SC1.
	SC1CostSaving, SC1DRAMSaving float64
	SC1OK                        bool

	// SC2 comparison at the strict 75 C corner, where the thermal
	// constraint actually binds and TESA must deviate from the
	// temperature-blind sizing: the paper reports TESA improving cost by
	// ~17% while paying ~38% more DRAM power (smaller, cooler chiplets
	// refetch more).
	SC2CostSaving, SC2DRAMDelta float64
	SC2OK                       bool

	// 3-D vs 2-D at the 85 C budget over both frequencies and both frame
	// rates: peak-OPS gain, cost increase, DRAM increase (averages), plus
	// the best-corner OPS gain (the paper's "up to" number).
	OPSGain3D, OPSGain3DMax, CostDelta3D, DRAMDelta3D float64
	Pairs3D2D                                         int
}

// RunHeadline computes the headline comparison. It reuses full corner
// optimizations, so it is the most expensive experiment driver. Its
// corner and baseline searches observe ctx, and it stops with ctx.Err()
// between corners when ctx is cancelled.
func (cfg *ExperimentConfig) RunHeadline(ctx context.Context) (*Headline, error) {
	h := &Headline{}

	// TESA at SC1's corner.
	corner := Corner{Tech2D, 500, 30, 85}
	tesa, err := cfg.RunCornerContext(ctx, corner)
	if err != nil {
		return nil, err
	}
	sc1, err := cfg.RunSC1(ctx, corner)
	if err != nil {
		return nil, err
	}
	if tesa.Found && sc1.Found {
		h.SC1OK = true
		h.SC1CostSaving = 1 - tesa.Eval.MCMCost.Total/sc1.Actual.MCMCost.Total
		h.SC1DRAMSaving = 1 - tesa.Eval.DRAMPowerW/sc1.Actual.DRAMPowerW
	}
	// SC2 at the binding 75 C corner.
	strict := Corner{Tech2D, 500, 15, 75}
	tesaStrict, err := cfg.RunCornerContext(ctx, strict)
	if err != nil {
		return nil, err
	}
	sc2, err := cfg.RunSC2(ctx, strict)
	if err != nil {
		return nil, err
	}
	if tesaStrict.Found && sc2.Found {
		h.SC2OK = true
		h.SC2CostSaving = 1 - tesaStrict.Eval.MCMCost.Total/sc2.Actual.MCMCost.Total
		h.SC2DRAMDelta = tesaStrict.Eval.DRAMPowerW/sc2.Actual.DRAMPowerW - 1
	}

	// 2-D vs 3-D at 85 C, both frequencies and frame rates.
	var opsGain, costDelta, dramDelta float64
	for _, f := range []float64{400, 500} {
		for _, fps := range []float64{15, 30} {
			r2, err := cfg.RunCornerContext(ctx, Corner{Tech2D, f, fps, 85})
			if err != nil {
				return nil, err
			}
			r3, err := cfg.RunCornerContext(ctx, Corner{Tech3D, f, fps, 85})
			if err != nil {
				return nil, err
			}
			if !r2.Found || !r3.Found {
				continue
			}
			gain := r3.Eval.PeakOPS/r2.Eval.PeakOPS - 1
			opsGain += gain
			if gain > h.OPSGain3DMax {
				h.OPSGain3DMax = gain
			}
			costDelta += r3.Eval.MCMCost.Total/r2.Eval.MCMCost.Total - 1
			dramDelta += r3.Eval.DRAMPowerW/r2.Eval.DRAMPowerW - 1
			h.Pairs3D2D++
		}
	}
	if h.Pairs3D2D > 0 {
		n := float64(h.Pairs3D2D)
		h.OPSGain3D = opsGain / n
		h.CostDelta3D = costDelta / n
		h.DRAMDelta3D = dramDelta / n
	}
	return h, nil
}

// Format renders the headline numbers next to the paper's.
func (h *Headline) Format() string {
	var b strings.Builder
	b.WriteString("Headline comparison (paper's Sec. IV-B claims in brackets):\n")
	if h.SC1OK {
		fmt.Fprintf(&b, "  TESA vs SC1:  MCM cost saving %5.1f%% [44%%], DRAM power saving %5.1f%% [63%%]\n",
			100*h.SC1CostSaving, 100*h.SC1DRAMSaving)
	} else {
		b.WriteString("  TESA vs SC1:  not comparable (one side infeasible)\n")
	}
	if h.SC2OK {
		fmt.Fprintf(&b, "  TESA vs SC2:  MCM cost saving %5.1f%% [17%%], DRAM power delta %+5.1f%% [+37.8%%]\n",
			100*h.SC2CostSaving, 100*h.SC2DRAMDelta)
	} else {
		b.WriteString("  TESA vs SC2:  not comparable (one side infeasible)\n")
	}
	if h.Pairs3D2D > 0 {
		fmt.Fprintf(&b, "  3-D vs 2-D (85 C, %d corners): OPS %+5.1f%% avg / %+5.1f%% best [paper: up to +39%%], cost %+5.1f%% [+61%%], DRAM %+5.1f%% [+66%%]\n",
			h.Pairs3D2D, 100*h.OPSGain3D, 100*h.OPSGain3DMax, 100*h.CostDelta3D, 100*h.DRAMDelta3D)
	} else {
		b.WriteString("  3-D vs 2-D: no comparable corners\n")
	}
	return b.String()
}
