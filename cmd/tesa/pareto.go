package main

import (
	"context"
	"fmt"

	"tesa"
	"tesa/internal/cli"
	"tesa/internal/jobspec"
)

// paretoCmd is `tesa pareto`: the Eq. (6) weight sweep or the exact
// front of a full sweep, as CSV on stdout.
func paretoCmd(c *command) func(ctx context.Context) error {
	f := c.jobFlags(30, 75, 32, true)
	front := c.fs.String("front", "weights", "front engine: weights (Eq. 6 sweep) or exact (non-dominated cost/DRAM/peak front of a full sweep)")
	points := c.fs.Int("points", 9, "number of weight settings to sweep (weights front)")
	c.operational(true)
	// The summaries go to stderr so the CSV on stdout stays clean.
	c.sum = c.stderr

	return func(ctx context.Context) error {
		r, err := c.resolve(func() (*jobspec.Spec, error) {
			s := f.spec(jobspec.KindPareto)
			s.Pareto = &jobspec.Pareto{Front: *front}
			if *front != "exact" {
				s.Pareto.Points = *points
			}
			return s, nil
		})
		if err != nil {
			return err
		}
		if err := c.start(r); err != nil {
			return err
		}
		c.sess.Manifest.Set("front", r.ParetoFront)
		out, err := c.execute(ctx, r, c.runtime())
		if r.ParetoFront == "exact" {
			if err != nil {
				return err
			}
			return c.printExact(out)
		}

		// Rows for the settings swept before an interruption stay valid.
		fmt.Fprintln(c.stdout, "alpha,beta,arrayDim,sramKBper,icsUM,meshRows,meshCols,peakC,powerW,costUSD,dramW")
		seen := map[tesa.DesignPoint]bool{}
		for _, w := range out.Weights {
			if !w.Res.Found {
				fmt.Fprintf(c.stderr, "alpha=%.2f beta=%.2f: no solution\n", w.Alpha, w.Beta)
				continue
			}
			b := w.Res.Best
			marker := ""
			if seen[b.Point] {
				marker = " (dup)"
			}
			seen[b.Point] = true
			fmt.Fprintf(c.stdout, "%.3f,%.3f,%d,%d,%d,%d,%d,%.2f,%.2f,%.2f,%.2f%s\n",
				w.Alpha, w.Beta, b.Point.ArrayDim, b.Point.SRAMKB(), b.Point.ICSUM,
				b.Mesh.Rows, b.Mesh.Cols, b.PeakTempC, b.TotalPowerW, b.MCMCost.Total, b.DRAMPowerW, marker)
		}
		if err != nil {
			return err
		}
		ledger := out.Poisoned()
		cli.FailureSummary(c.stderr, ledger)
		return quarantined(len(ledger))
	}
}

// printExact prints the exact non-dominated front over cost, DRAM
// power and peak temperature as CSV, in front order.
func (c *command) printExact(out *jobspec.Outcome) error {
	ledger := out.Poisoned()
	if len(out.Sweep.Front) == 0 {
		fmt.Fprintln(c.stderr, "no feasible configuration: the front is empty")
		cli.FailureSummary(c.stderr, ledger)
		return nil
	}
	fmt.Fprintln(c.stdout, "arrayDim,sramKBper,icsUM,meshRows,meshCols,peakC,powerW,costUSD,dramW")
	for _, b := range out.Sweep.Front {
		fmt.Fprintf(c.stdout, "%d,%d,%d,%d,%d,%.2f,%.2f,%.2f,%.2f\n",
			b.Point.ArrayDim, b.Point.SRAMKB(), b.Point.ICSUM,
			b.Mesh.Rows, b.Mesh.Cols, b.PeakTempC, b.TotalPowerW, b.MCMCost.Total, b.DRAMPowerW)
	}
	cli.FailureSummary(c.stderr, ledger)
	return quarantined(len(ledger))
}
