package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"tesa"
	"tesa/internal/cli"
	"tesa/internal/jobspec"
)

// optimizeCmd is `tesa optimize`: the multi-start annealer for one
// constraint corner, printing the winning MCM.
func optimizeCmd(c *command) func(ctx context.Context) error {
	f := c.jobFlags(30, 75, 32, true)
	power := c.fs.Float64("power", 15, "power budget in watts")
	interposer := c.fs.Float64("interposer", 8, "interposer side in mm")
	alpha := c.fs.Float64("alpha", 1, "Eq. 6 weight on MCM cost")
	beta := c.fs.Float64("beta", 1, "Eq. 6 weight on DRAM power")
	dataflow := c.fs.String("dataflow", "os", "systolic dataflow: os or ws")
	workload := c.fs.String("workload", "", "JSON workload file (default: the built-in AR/VR workload)")
	c.operational(true)
	deadline := c.fs.Duration("deadline", 0, "abort the search after this duration (0 = none; overrides deadline_sec)")

	return func(ctx context.Context) error {
		r, err := c.resolve(func() (*jobspec.Spec, error) {
			s := f.spec(jobspec.KindOptimize)
			s.Options.Alpha, s.Options.Beta, s.Options.Dataflow = alpha, beta, dataflow
			s.Constraints.PowerW, s.Constraints.InterposerMM = power, interposer
			s.WorkloadFile = *workload
			return s, nil
		})
		if err != nil {
			return err
		}
		c.fs.Visit(func(fl *flag.Flag) {
			if fl.Name == "deadline" {
				r.Deadline = *deadline
			}
		})
		if err := c.start(r); err != nil {
			return err
		}
		w, opts, cons, space := r.Workload, r.Opts, r.Cons, r.Space
		fmt.Fprintf(c.stdout, "TESA: %s MCM at %.0f MHz for the %d-DNN %s workload\n", opts.Tech, opts.FreqHz/1e6, len(w.Networks), w.Name)
		fmt.Fprintf(c.stdout, "constraints: %.0f fps, %.0f W, %.0f C, %.0fx%.0f mm interposer\n\n",
			cons.FPS, cons.PowerBudgetW, cons.TempBudgetC, cons.InterposerMM, cons.InterposerMM)

		start := time.Now()
		out, err := c.execute(ctx, r, c.runtime())
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		res := out.Optimize
		defer cli.FailureSummary(c.stderr, res.Poisoned)
		if !res.Found {
			fmt.Fprintf(c.stdout, "SOLUTION DOES NOT EXIST under these constraints\n")
			fmt.Fprintf(c.stdout, "(explored %d of %d design vectors in %.1fs)\n", res.Explored, space.Size(), elapsed.Seconds())
			fmt.Fprintln(c.stdout, "remedial options: relax the thermal budget, reduce frequency, or enlarge the interposer")
			return errNoSolution
		}

		best := res.Best
		p := func(format string, args ...any) { fmt.Fprintf(c.stdout, format, args...) }
		p("winning MCM:  %v\n", best.Point)
		p("mesh:         %v (%d chiplets)\n", best.Mesh, best.Mesh.Count())
		p("chiplet:      %.2f x %.2f mm (array %.2f mm2, SRAM %.2f mm2)\n",
			best.Chiplet.WidthMM, best.Chiplet.HeightMM, best.Chiplet.ArrayMM2, best.Chiplet.SRAMMM2)
		p("peak temp:    %.2f C (budget %.0f C)\n", best.PeakTempC, cons.TempBudgetC)
		p("power:        %.2f W total (%.2f dynamic + %.2f leakage; budget %.0f W)\n",
			best.TotalPowerW, best.DynamicPowerW, best.LeakageW, cons.PowerBudgetW)
		p("latency:      %.1f ms makespan (%.2fx of the %.0f fps budget)\n",
			best.MakespanSec*1e3, best.LatencyFactor, cons.FPS)
		p("MCM cost:     $%.2f (dies $%.2f, interposer $%.2f, bonding $%.2f, stacking $%.2f)\n",
			best.MCMCost.Total, best.MCMCost.ChipletDies, best.MCMCost.Interposer, best.MCMCost.Bonding, best.MCMCost.Stacking)
		p("DRAM power:   %.2f W over %d channels\n", best.DRAMPowerW, best.DRAMChannels)
		p("throughput:   %.2f TOPS effective, %.2f TOPS peak\n", best.OPS/1e12, best.PeakOPS/1e12)
		p("objective:    %.4f (Eq. 6, alpha=%.2g beta=%.2g)\n\n", best.Objective, opts.Alpha, opts.Beta)

		p("schedule (non-preemptive, corner-first):\n")
		for ch, dnns := range best.Schedule.ChipletDNNs {
			p("  chiplet %d:", ch)
			for _, d := range dnns {
				p(" %s", w.Networks[d].Name)
			}
			p("\n")
		}
		p("\nsearch: %d evaluations, %d distinct points (%.1f%% of the space, %.1f%% cache hits), %.1fs\n",
			res.Evaluations, res.Explored, 100*float64(res.Explored)/float64(space.Size()),
			100*res.CacheHitRate, elapsed.Seconds())
		p("\n%s", tesa.FloorplanASCII(best))
		return quarantined(res.Quarantined)
	}
}
