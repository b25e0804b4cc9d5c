// Command tesa-thermal evaluates one MCM design point with the full
// models and dumps its hottest-phase thermal map (the paper's Fig. 6) as
// ASCII art and optionally CSV.
//
// Usage:
//
//	tesa-thermal -dim 200 -ics 1700 [-tech 2d|3d] [-freq 400] [-fps 30]
//	             [-grid 88] [-csv out.csv]
//	             [-metrics] [-trace out.jsonl] [-pprof addr]
//	             [-metrics-addr addr] [-manifest run.jsonl]
//
// Observability: -metrics prints the per-stage latency breakdown of
// the single full-fidelity evaluation (the thermal solve dominates),
// -trace streams the pipeline's JSONL events, -pprof serves
// net/http/pprof, -metrics-addr serves the live exposition endpoints,
// and -manifest writes the run manifest — the same flags as the
// search commands.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tesa"
	"tesa/internal/cli"
)

func main() {
	var (
		dim     = flag.Int("dim", 200, "systolic array dimension")
		ics     = flag.Int("ics", 1700, "inter-chiplet spacing in micrometers")
		tech    = flag.String("tech", "2d", "integration technology: 2d or 3d")
		freqMHz = flag.Float64("freq", 400, "operating frequency in MHz")
		fps     = flag.Float64("fps", 30, "latency constraint in frames per second")
		tempC   = flag.Float64("temp", 75, "thermal budget in Celsius")
		grid    = flag.Int("grid", 88, "thermal grid cells per side")
		csvPath = flag.String("csv", "", "also write the temperature field as CSV")
		obs     = cli.ObservabilityFlags(flag.CommandLine)
	)
	flag.Parse()

	sess, err := obs.Setup("tesa-thermal", os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tel := sess.Tel

	opts := tesa.DefaultOptions()
	if strings.EqualFold(*tech, "3d") {
		opts.Tech = tesa.Tech3D
	}
	opts.FreqHz = *freqMHz * 1e6
	opts.Grid = *grid
	cons := tesa.DefaultConstraints()
	cons.FPS = *fps
	cons.TempBudgetC = *tempC

	ev, err := tesa.NewEvaluator(tesa.ARVRWorkload(), opts, cons, tesa.Models{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ev.Instrument(tel)
	sess.Manifest.Set("point", fmt.Sprintf("%dx%d@%d", *dim, *dim, *ics))
	e, err := ev.EvaluateFull(tesa.DesignPoint{ArrayDim: *dim, ICSUM: *ics})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		sess.Finish("error")
		os.Exit(1)
	}
	if !e.Fits {
		fmt.Printf("%v does not fit the %.0f mm interposer\n", e.Point, cons.InterposerMM)
		sess.Finish("no-fit")
		os.Exit(3)
	}
	fmt.Printf("%v: %v grid, peak %.2f C, power %.2f W (dyn %.2f + leak %.2f), feasible=%v %v\n",
		e.Point, e.Mesh, e.PeakTempC, e.TotalPowerW, e.DynamicPowerW, e.LeakageW, e.Feasible, e.Violations)
	if e.Runaway {
		fmt.Println("THERMAL RUNAWAY: the leakage-temperature fixed point diverges")
	}
	fmt.Println()
	fmt.Print(tesa.ThermalMapASCII(e))

	if *csvPath != "" {
		csv := tesa.ThermalMapCSV(e)
		if csv == "" {
			fmt.Fprintln(os.Stderr, "no thermal field available for CSV export")
			sess.Finish("error")
			os.Exit(1)
		}
		if err := os.WriteFile(*csvPath, []byte(csv), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			sess.Finish("error")
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	sess.Finish("ok")
}
