// Quickstart: evaluate one MCM design point and then let TESA find a
// better one on a small design space.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"tesa"
)

func main() {
	// The paper's six-DNN AR/VR workload: handpose, segmentation,
	// detection, recognition, depth, and speech.
	workload := tesa.ARVRWorkload()

	// 2-D chiplets at 400 MHz under the paper's edge-device constraints:
	// 30 fps, 15 W, 75 C, on an 8x8 mm interposer.
	opts := tesa.DefaultOptions()
	opts.Grid = 32 // coarse thermal grid for a fast demo
	cons := tesa.DefaultConstraints()

	ev, err := tesa.NewEvaluator(workload, opts, cons, tesa.Models{})
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate the paper's Table V configuration: a 200x200 systolic
	// array (the SRAM capacity, 3x1,024 KB, and the 2x1 mesh are derived
	// from the array dimension and the 1,700 um spacing).
	point := tesa.DesignPoint{ArrayDim: 200, ICSUM: 1700}
	e, err := ev.EvaluateFullContext(context.Background(), point) // full: report thermals even if a constraint fails
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("manual point  %v\n", point)
	fmt.Printf("  mesh %v, peak %.1f C, power %.1f W, cost $%.2f, DRAM %.1f W\n",
		e.Mesh, e.PeakTempC, e.TotalPowerW, e.MCMCost.Total, e.DRAMPowerW)
	fmt.Printf("  latency %.1f ms (%.2fx of budget), feasible=%v %v\n\n",
		e.MakespanSec*1e3, e.LatencyFactor, e.Feasible, e.Violations)

	// Let the multi-start annealer search a reduced space (the full
	// Table II space works the same way, just slower).
	space := tesa.Space{}
	for d := 184; d <= 256; d += 8 {
		space.ArrayDims = append(space.ArrayDims, d)
	}
	for ics := 0; ics <= 1000; ics += 200 {
		space.ICSUMs = append(space.ICSUMs, ics)
	}
	res, err := ev.OptimizeContext(context.Background(), space, 1, nil)
	if err != nil && !errors.Is(err, tesa.ErrNoFeasibleStart) {
		log.Fatal(err)
	}
	if !res.Found {
		fmt.Println("no feasible MCM in this space")
		return
	}
	b := res.Best
	fmt.Printf("TESA's pick   %v\n", b.Point)
	fmt.Printf("  mesh %v, peak %.1f C, power %.1f W, cost $%.2f, DRAM %.1f W\n",
		b.Mesh, b.PeakTempC, b.TotalPowerW, b.MCMCost.Total, b.DRAMPowerW)
	fmt.Printf("  objective %.3f after exploring %d points\n", b.Objective, res.Explored)
}
