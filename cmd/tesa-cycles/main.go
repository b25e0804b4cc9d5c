// Command tesa-cycles cross-validates the analytical performance model
// against the fold-level cycle simulation (the SCALE-Sim analytical vs
// cycle-accurate relationship) and quantifies where the paper's
// stall-free assumption holds for a given chiplet configuration.
//
// Usage:
//
//	tesa-cycles [-dim 200] [-freq 400] [-channels 0 (auto)]
//	            [-metrics] [-trace out.jsonl] [-pprof addr]
//	            [-metrics-addr addr] [-manifest run.jsonl]
//
// Observability: -metrics prints per-network simulation latency
// percentiles, -trace streams one JSONL event per simulated network,
// -pprof serves net/http/pprof, -metrics-addr serves the live
// exposition endpoints, and -manifest writes the run manifest — the
// same flags as the search commands.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"tesa"
	"tesa/internal/cli"
	"tesa/internal/core"
	"tesa/internal/dram"
	"tesa/internal/systolic"
)

func main() {
	var (
		dim      = flag.Int("dim", 200, "systolic array dimension")
		freqMHz  = flag.Float64("freq", 400, "operating frequency in MHz")
		channels = flag.Int("channels", 0, "DRAM channels (0 = provision from peak bandwidth)")
		obs      = cli.ObservabilityFlags(flag.CommandLine)
	)
	flag.Parse()

	sess, err := obs.Setup("tesa-cycles", os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tel := sess.Tel
	sess.Manifest.Set("dim", *dim)

	sramKB := core.SRAMKBForArray(*dim)
	a := systolic.Array{
		Rows: *dim, Cols: *dim,
		Dataflow:  systolic.OutputStationary,
		SRAMBytes: int64(sramKB) * 1024,
	}
	ddr := dram.DefaultDDR4()
	freqHz := *freqMHz * 1e6

	fmt.Printf("array %dx%d, %d KB per SRAM, %.0f MHz\n", *dim, *dim, sramKB, *freqMHz)
	fmt.Printf("%-14s %12s %12s %8s %9s %8s %s\n",
		"network", "analytic cyc", "sim cyc", "stall%", "traffic", "ratio", "channels")

	w := tesa.ARVRWorkload()
	for i := range w.Networks {
		n := &w.Networks[i]
		span := tel.StartSpan("cycles.network")
		ana, err := systolic.SimulateNetwork(a, n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			sess.Finish("error")
			os.Exit(1)
		}
		ch := *channels
		if ch == 0 {
			ch = ddr.ChannelsFor(ana.PeakDRAMBw * freqHz)
		}
		bytesPerCycle := float64(ch) * ddr.SustainedBytesPerSec() / freqHz
		cyc, err := systolic.SimulateNetworkCycles(a, n, bytesPerCycle)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			sess.Finish("error")
			os.Exit(1)
		}
		free, err := systolic.SimulateNetworkCycles(a, n, math.Inf(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			sess.Finish("error")
			os.Exit(1)
		}
		span.End()
		tel.Emit("cycles.network", map[string]any{
			"network": n.Name, "analytic": ana.Cycles, "sim": cyc.TotalCycles(),
			"stall": cyc.StallFraction(), "channels": ch,
		})
		if free.ComputeCycles != ana.Cycles {
			fmt.Fprintf(os.Stderr, "%s: analytic/cycle divergence: %d vs %d\n", n.Name, ana.Cycles, free.ComputeCycles)
			sess.Finish("divergence")
			os.Exit(2)
		}
		fmt.Printf("%-14s %12d %12d %7.1f%% %8.1fMB %8.2f %8d\n",
			n.Name, ana.Cycles, cyc.TotalCycles(),
			100*cyc.StallFraction(),
			float64(cyc.DRAMBytes)/1e6,
			float64(cyc.DRAMBytes)/float64(ana.DRAMBytes), ch)
	}
	fmt.Println("\nanalytic cyc == stall-free sim cyc for every network (validated above);")
	fmt.Println("stall% shows how close the provisioned channels come to the stall-free assumption.")
	sess.Finish("ok")
}
