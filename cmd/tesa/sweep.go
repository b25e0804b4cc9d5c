package main

import (
	"context"
	"fmt"
	"time"

	"tesa/internal/cli"
	"tesa/internal/jobspec"
)

// sweepCmd is `tesa sweep`: the exhaustive sweep of a design space,
// checked against the multi-start annealer (Sec. IV-A).
func sweepCmd(c *command) func(ctx context.Context) error {
	f := c.jobFlags(15, 85, 32, true)
	full := c.fs.Bool("full", false, "sweep the full Table II space instead of the validation space")
	c.operational(true)

	return func(ctx context.Context) error {
		r, err := c.resolve(func() (*jobspec.Spec, error) {
			s := f.spec(jobspec.KindSweep)
			if *full {
				s.Space = &jobspec.Space{Preset: "default"}
			}
			return s, nil
		})
		if err != nil {
			return err
		}
		// The deadline bounds both the sweep and the annealer run.
		if r.Deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, r.Deadline)
			defer cancel()
		}
		if err := c.start(r); err != nil {
			return err
		}
		return c.runSweep(ctx, r)
	}
}

// runSweep runs the exhaustive sweep, then the annealer over the
// memo store the sweep filled, and reports whether they agree.
func (c *command) runSweep(ctx context.Context, r *jobspec.Resolved) error {
	p := func(format string, args ...any) { fmt.Fprintf(c.stdout, format, args...) }
	p("exhaustive sweep: %d design vectors (%s, %.0f MHz, %.0f fps, %.0f C)\n",
		r.Space.Size(), r.Opts.Tech, r.Opts.FreqHz/1e6, r.Cons.FPS, r.Cons.TempBudgetC)
	start := time.Now()
	out, err := c.execute(ctx, r, c.runtime())
	if err != nil {
		return err
	}
	ex := out.Sweep
	p("  %d feasible of %d (%.1f%%), %.1fs\n", ex.Feasible, ex.Total,
		100*float64(ex.Feasible)/float64(ex.Total), time.Since(start).Seconds())
	cli.FailureSummary(c.stdout, ex.Poisoned)
	if ex.Best != nil {
		p("  global optimum: %v, %v grid, objective %.4f\n", ex.Best.Point, ex.Best.Mesh, ex.Best.Objective)
	} else {
		p("  no feasible configuration in this space\n")
	}

	// The annealer runs the same job as an optimize job on the same
	// store: its evaluations are served from the sweep's results.
	anneal := *r
	anneal.Kind = jobspec.KindOptimize
	start = time.Now()
	if out, err = c.execute(ctx, &anneal, c.runtime()); err != nil {
		return err
	}
	op := out.Optimize
	p("\nmulti-start annealer: explored %d points (%.1f%% of the space, %.1f%% cache hits), %.1fs\n",
		op.Explored, 100*float64(op.Explored)/float64(r.Space.Size()), 100*op.CacheHitRate, time.Since(start).Seconds())
	var verdict error
	switch {
	case !op.Found && ex.Best == nil:
		p("  agreement: both report no feasible configuration\n")
	case op.Found && ex.Best != nil:
		p("  MSA optimum:    %v, objective %.4f\n", op.Best.Point, op.Best.Objective)
		if op.Best.Objective <= ex.Best.Objective*(1+1e-9) {
			p("  agreement: 100%% — the annealer matched the global optimum\n")
		} else {
			p("  DISAGREEMENT: annealer %.4f vs global %.4f\n", op.Best.Objective, ex.Best.Objective)
			verdict = &exitError{3, "disagreement"}
		}
	default:
		p("  DISAGREEMENT: one side found a solution, the other did not\n")
		verdict = &exitError{3, "disagreement"}
	}
	cli.FailureSummary(c.stdout, op.Poisoned)
	if verdict != nil {
		return verdict
	}
	return quarantined(ex.Quarantined + op.Quarantined)
}
