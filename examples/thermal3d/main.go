// 2-D vs 3-D study: evaluate the same chiplet configuration as planar
// chiplets and as two-tier SRAM-under-array stacks, then let TESA size
// each technology for the 85 C budget and compare OPS, cost, and DRAM
// power — the paper's Sec. IV-B.3, with thermal maps.
//
// Run with:
//
//	go run ./examples/thermal3d
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"tesa"
)

func evaluator(tech tesa.Tech, budgetC float64) *tesa.Evaluator {
	opts := tesa.DefaultOptions()
	opts.Tech = tech
	opts.FreqHz = 400e6
	opts.Grid = 44
	cons := tesa.DefaultConstraints()
	cons.TempBudgetC = budgetC
	ev, err := tesa.NewEvaluator(tesa.ARVRWorkload(), opts, cons, tesa.Models{})
	if err != nil {
		log.Fatal(err)
	}
	return ev
}

func main() {
	// Iso-configuration comparison: the same design point in 2-D and 3-D.
	point := tesa.DesignPoint{ArrayDim: 216, ICSUM: 700}
	fmt.Printf("iso-configuration comparison at %v, 400 MHz:\n", point)
	for _, tech := range []tesa.Tech{tesa.Tech2D, tesa.Tech3D} {
		ev := evaluator(tech, 85)
		e, err := ev.EvaluateFullContext(context.Background(), point)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: %v grid, footprint %.2f mm2/chiplet, peak %.1f C, cost $%.2f, peak %.1f TOPS\n",
			tech, e.Mesh, e.Chiplet.FootprintMM2, e.PeakTempC, e.MCMCost.Total, e.PeakOPS/1e12)
	}
	fmt.Println()

	// Technology sizing: TESA per technology at the relaxed 85 C budget.
	space := tesa.Space{}
	for d := 160; d <= 256; d += 4 {
		space.ArrayDims = append(space.ArrayDims, d)
	}
	for ics := 0; ics <= 1000; ics += 100 {
		space.ICSUMs = append(space.ICSUMs, ics)
	}
	var results [2]*tesa.Evaluation
	for i, tech := range []tesa.Tech{tesa.Tech2D, tesa.Tech3D} {
		ev := evaluator(tech, 85)
		res, err := ev.OptimizeContext(context.Background(), space, 1, nil)
		if err != nil && !errors.Is(err, tesa.ErrNoFeasibleStart) {
			log.Fatal(err)
		}
		if !res.Found {
			fmt.Printf("%s: no feasible MCM\n", tech)
			return
		}
		// Re-evaluate fully for the thermal map.
		full, err := ev.EvaluateFullContext(context.Background(), res.Best.Point)
		if err != nil {
			log.Fatal(err)
		}
		results[i] = full
		fmt.Printf("TESA %s @ 85 C: %v, %v grid, peak %.1f C, $%.2f, DRAM %.1f W, peak %.1f TOPS\n",
			tech, full.Point, full.Mesh, full.PeakTempC, full.MCMCost.Total, full.DRAMPowerW, full.PeakOPS/1e12)
	}
	r2, r3 := results[0], results[1]
	fmt.Printf("\n3-D vs 2-D: OPS %+.0f%%, cost %+.0f%%, DRAM power %+.0f%%\n\n",
		100*(r3.PeakOPS/r2.PeakOPS-1),
		100*(r3.MCMCost.Total/r2.MCMCost.Total-1),
		100*(r3.DRAMPowerW/r2.DRAMPowerW-1))

	fmt.Print(tesa.ThermalMapASCII(r2))
	fmt.Println()
	fmt.Print(tesa.ThermalMapASCII(r3))
}
