// Transient thermal study: how fast does a TESA MCM heat up after the
// workload starts? The paper's DSE uses steady-state analysis (the AR/VR
// workload runs continuously); this example uses the transient extension
// of the HotSpot-equivalent solver to show the steady state is reached
// within seconds — justifying the steady-state methodology — and reports
// the package thermal time constant.
//
// Run with:
//
//	go run ./examples/transient
package main

import (
	"context"
	"fmt"
	"log"

	"tesa"
	"tesa/internal/floorplan"
	"tesa/internal/thermal"
)

func main() {
	// Evaluate the paper's 2-D winner to get its converged power split.
	opts := tesa.DefaultOptions()
	opts.Grid = 44
	cons := tesa.DefaultConstraints()
	cons.FPS = 15
	ev, err := tesa.NewEvaluator(tesa.ARVRWorkload(), opts, cons, tesa.Models{})
	if err != nil {
		log.Fatal(err)
	}
	e, err := ev.EvaluateFullContext(context.Background(), tesa.DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MCM: %v, %v grid — steady-state peak %.2f C\n", e.Point, e.Mesh, e.PeakTempC)

	// Rebuild the hottest-phase stack's geometry and step it from
	// ambient. (EvaluateFullContext already retains the stack.)
	if e.HottestStack == nil {
		log.Fatal("no thermal stack retained; run EvaluateFullContext")
	}
	tr, err := e.HottestStack.SolveTransient(0.05, 120)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transient peak after %0.1f s: %.2f C (steady %.2f C)\n",
		tr.TimesSec[len(tr.TimesSec)-1], tr.PeakC[len(tr.PeakC)-1], e.PeakTempC)
	if t63, ok := tr.TimeToFractionSec(45, 0.63); ok {
		fmt.Printf("thermal time constant (63%% of rise): %.2f s\n", t63)
	}
	if t95, ok := tr.TimeToFractionSec(45, 0.95); ok {
		fmt.Printf("95%% of steady rise reached after:    %.2f s\n", t95)
	}

	fmt.Println("\nheating curve (peak C over time):")
	for i := 0; i < len(tr.TimesSec); i += 10 {
		bar := int((tr.PeakC[i] - 45) / (e.PeakTempC - 45) * 50)
		if bar < 0 {
			bar = 0
		}
		fmt.Printf("  %5.2f s |%-50s| %.1f C\n", tr.TimesSec[i], stars(bar), tr.PeakC[i])
	}

	// A fresh standalone demonstration: a single hot chiplet on the
	// interposer, stepped at fine resolution.
	pl, err := floorplan.Place(11, 3.8, 1.7, 0, floorplan.Mesh{Rows: 1, Cols: 1})
	if err != nil {
		log.Fatal(err)
	}
	grid := 32
	maps, err := pl.Rasterize(grid, []floorplan.ChipletPower{{ArrayWatts: 3, SRAMWatts: 1}}, false, 0.44)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := thermal.BuildStack2D(grid, 11e-3/float64(grid), pl.Coverage(grid), maps.Array, thermal.DefaultMaterials())
	if err != nil {
		log.Fatal(err)
	}
	tr2, err := stack.SolveTransient(0.01, 100)
	if err != nil {
		log.Fatal(err)
	}
	if t63, ok := tr2.TimeToFractionSec(45, 0.63); ok {
		fmt.Printf("\nsingle 4 W chiplet: time constant %.2f s, 1 s peak %.1f C\n", t63, tr2.PeakC[len(tr2.PeakC)-1])
	}
}

func stars(n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = '*'
	}
	return string(s)
}
