package main

import (
	"context"
	"fmt"
	"math"

	"tesa"
	"tesa/internal/cli"
	"tesa/internal/core"
	"tesa/internal/dram"
	"tesa/internal/systolic"
)

// cyclesCmd is `tesa cycles`: the analytical performance model checked
// against the fold-level cycle simulation for every network of the
// AR/VR workload.
func cyclesCmd(c *command) func(ctx context.Context) error {
	dim := c.fs.Int("dim", 200, "systolic array dimension")
	freqMHz := c.fs.Float64("freq", 400, "operating frequency in MHz")
	channels := c.fs.Int("channels", 0, "DRAM channels (0 = provision from peak bandwidth)")
	c.obs = cli.ObservabilityFlags(c.fs)

	return func(ctx context.Context) error {
		switch {
		case *dim <= 0:
			return usageError{fmt.Errorf("-dim %d: want a positive array dimension", *dim)}
		case !(*freqMHz > 0) || math.IsInf(*freqMHz, 1):
			return usageError{fmt.Errorf("-freq %g: want a positive frequency in MHz", *freqMHz)}
		case *channels < 0:
			return usageError{fmt.Errorf("-channels %d: want a non-negative channel count", *channels)}
		}
		if err := c.setup(); err != nil {
			return err
		}
		tel := c.sess.Tel
		c.sess.Manifest.Set("dim", *dim)

		sramKB := core.SRAMKBForArray(*dim)
		a := systolic.Array{
			Rows: *dim, Cols: *dim,
			Dataflow:  systolic.OutputStationary,
			SRAMBytes: int64(sramKB) * 1024,
		}
		ddr := dram.DefaultDDR4()
		freqHz := *freqMHz * 1e6

		p := func(format string, args ...any) { fmt.Fprintf(c.stdout, format, args...) }
		p("array %dx%d, %d KB per SRAM, %.0f MHz\n", *dim, *dim, sramKB, *freqMHz)
		p("%-14s %12s %12s %8s %9s %8s %s\n",
			"network", "analytic cyc", "sim cyc", "stall%", "traffic", "ratio", "channels")

		w := tesa.ARVRWorkload()
		for i := range w.Networks {
			n := &w.Networks[i]
			span := tel.StartSpan("cycles.network")
			ana, err := systolic.SimulateNetwork(a, n)
			if err != nil {
				return err
			}
			ch := *channels
			if ch == 0 {
				ch = ddr.ChannelsFor(ana.PeakDRAMBw * freqHz)
			}
			bytesPerCycle := float64(ch) * ddr.SustainedBytesPerSec() / freqHz
			cyc, err := systolic.SimulateNetworkCycles(a, n, bytesPerCycle)
			if err != nil {
				return err
			}
			free, err := systolic.SimulateNetworkCycles(a, n, math.Inf(1))
			if err != nil {
				return err
			}
			span.End()
			tel.Emit("cycles.network", map[string]any{
				"network": n.Name, "analytic": ana.Cycles, "sim": cyc.TotalCycles(),
				"stall": cyc.StallFraction(), "channels": ch,
			})
			if free.ComputeCycles != ana.Cycles {
				fmt.Fprintf(c.stderr, "%s: analytic/cycle divergence: %d vs %d\n", n.Name, ana.Cycles, free.ComputeCycles)
				return &exitError{3, "divergence"}
			}
			p("%-14s %12d %12d %7.1f%% %8.1fMB %8.2f %8d\n",
				n.Name, ana.Cycles, cyc.TotalCycles(),
				100*cyc.StallFraction(),
				float64(cyc.DRAMBytes)/1e6,
				float64(cyc.DRAMBytes)/float64(ana.DRAMBytes), ch)
		}
		fmt.Fprintln(c.stdout, "\nanalytic cyc == stall-free sim cyc for every network (validated above);")
		fmt.Fprintln(c.stdout, "stall% shows how close the provisioned channels come to the stall-free assumption.")
		return nil
	}
}
