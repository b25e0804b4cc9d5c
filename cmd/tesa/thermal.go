package main

import (
	"context"
	"errors"
	"fmt"
	"os"

	"tesa"
	"tesa/internal/cli"
	"tesa/internal/jobspec"
)

// thermalCmd is `tesa thermal`: one design point evaluated with the full
// models, printing its hottest-phase thermal map (the paper's Fig. 6).
func thermalCmd(c *command) func(ctx context.Context) error {
	f := c.pointFlags(30, 75, 88)
	dim := c.fs.Int("dim", 200, "systolic array dimension")
	ics := c.fs.Int("ics", 1700, "inter-chiplet spacing in micrometers")
	csvPath := c.fs.String("csv", "", "also write the temperature field as CSV")
	c.obs = cli.ObservabilityFlags(c.fs)

	return func(ctx context.Context) error {
		if *dim <= 0 || *ics < 0 {
			return usageError{fmt.Errorf("-dim %d -ics %d: want a positive array dimension and a non-negative spacing", *dim, *ics)}
		}
		r, err := f.spec(jobspec.KindOptimize).Resolve("")
		if err != nil {
			return usageError{err}
		}
		if err := c.setup(); err != nil {
			return err
		}
		ev, err := tesa.NewEvaluator(r.Workload, r.Opts, r.Cons, tesa.Models{})
		if err != nil {
			return err
		}
		ev.Instrument(c.sess.Tel)
		c.sess.Manifest.Set("point", fmt.Sprintf("%dx%d@%d", *dim, *dim, *ics))
		e, err := ev.EvaluateFullContext(ctx, tesa.DesignPoint{ArrayDim: *dim, ICSUM: *ics})
		if err != nil {
			return err
		}
		if !e.Fits {
			fmt.Fprintf(c.stdout, "%v does not fit the %.0f mm interposer\n", e.Point, r.Cons.InterposerMM)
			return &exitError{3, "no-fit"}
		}
		fmt.Fprintf(c.stdout, "%v: %v grid, peak %.2f C, power %.2f W (dyn %.2f + leak %.2f), feasible=%v %v\n",
			e.Point, e.Mesh, e.PeakTempC, e.TotalPowerW, e.DynamicPowerW, e.LeakageW, e.Feasible, e.Violations)
		if e.Runaway {
			fmt.Fprintln(c.stdout, "THERMAL RUNAWAY: the leakage-temperature fixed point diverges")
		}
		fmt.Fprintln(c.stdout)
		fmt.Fprint(c.stdout, tesa.ThermalMapASCII(e))
		if *csvPath == "" {
			return nil
		}
		csv := tesa.ThermalMapCSV(e)
		if csv == "" {
			return errors.New("no thermal field available for CSV export")
		}
		if err := os.WriteFile(*csvPath, []byte(csv), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "\nwrote %s\n", *csvPath)
		return nil
	}
}
