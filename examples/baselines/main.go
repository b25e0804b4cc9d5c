// Baseline comparison: why temperature awareness matters. Runs the
// paper's SC1 (maximum parallelism) and SC2 (sizing without temperature)
// baselines next to TESA at the same corner and reports what their picks
// actually do thermally — the substance of the paper's Tables III/IV and
// Fig. 5. The baselines are methods of tesa.ExperimentConfig.
//
// Run with:
//
//	go run ./examples/baselines
package main

import (
	"context"
	"fmt"
	"log"

	"tesa"
)

func main() {
	// One experiment config: every evaluator below, the baselines' and
	// TESA's, shares its memo store. Winners are reported at the search
	// grid, like the baselines' ground truth.
	cfg := tesa.DefaultExperimentConfig()
	cfg.ReportGrid = cfg.Grid
	// At 75 C and 500 MHz the thermal constraint binds: the
	// temperature-blind baselines pick hot MCMs, TESA must not.
	corner := tesa.Corner{Tech: tesa.Tech2D, FreqMHz: 500, FPS: 15, BudgetC: 75}
	cons := tesa.DefaultConstraints()
	ctx := context.Background()

	fmt.Printf("corner: 2-D, 500 MHz, %.0f fps, %.0f C, %.0f W\n\n", corner.FPS, corner.BudgetC, cons.PowerBudgetW)

	// SC1: one chiplet per DNN at maximum spacing, temperature unaware.
	sc1, err := cfg.RunSC1(ctx, corner)
	if err != nil {
		log.Fatal(err)
	}
	if sc1.Found {
		a := sc1.Actual
		fmt.Printf("SC1 (max parallelism):    %v, %v grid\n", a.Point, a.Mesh)
		fmt.Printf("  actually runs at %.1f C, %.1f W — temperature unawareness costs silicon and power\n",
			a.PeakTempC, a.TotalPowerW)
	}

	// SC2: the TESA optimizer with its thermal and leakage models cut out.
	sc2, err := cfg.RunSC2(ctx, corner)
	if err != nil {
		log.Fatal(err)
	}
	if sc2.Found {
		a := sc2.Actual
		fmt.Printf("SC2 (sizing w/o thermal): %v, %v grid\n", a.Point, a.Mesh)
		state := fmt.Sprintf("peak %.1f C", a.PeakTempC)
		if a.Runaway {
			state = "THERMAL RUNAWAY"
		}
		fmt.Printf("  actually runs at %s\n", state)
	}

	// TESA itself.
	row, err := cfg.RunCornerContext(ctx, corner)
	if err != nil {
		log.Fatal(err)
	}
	if !row.Found {
		fmt.Println("TESA: no feasible MCM at this corner")
		return
	}
	b := row.Eval
	fmt.Printf("TESA:                     %v, %v grid\n", b.Point, b.Mesh)
	fmt.Printf("  peak %.1f C, %.1f W — feasible by construction\n\n", b.PeakTempC, b.TotalPowerW)

	if sc1.Found {
		fmt.Printf("savings vs SC1: MCM cost %.0f%%, DRAM power %.0f%%\n",
			100*(1-b.MCMCost.Total/sc1.Actual.MCMCost.Total),
			100*(1-b.DRAMPowerW/sc1.Actual.DRAMPowerW))
	}
	if sc2.Found {
		fmt.Printf("vs SC2: MCM cost %+.0f%%, DRAM power %+.0f%%\n",
			100*(b.MCMCost.Total/sc2.Actual.MCMCost.Total-1),
			100*(b.DRAMPowerW/sc2.Actual.DRAMPowerW-1))
	}
}
