package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tesa"
	"tesa/internal/cli"
	"tesa/internal/core"
)

// reportCmd is `tesa report`: the paper's tables and figures, each
// printed next to the quantity the paper reports.
func reportCmd(c *command) func(ctx context.Context) error {
	table := c.fs.Int("table", 0, "regenerate Table 3, 4, or 5")
	fig := c.fs.Int("fig", 0, "regenerate Figure 1, 5, or 6")
	headline := c.fs.Bool("headline", false, "regenerate the Sec. IV-B headline comparison")
	validate := c.fs.Bool("validate", false, "run the Sec. IV-A optimizer validation")
	all := c.fs.Bool("all", false, "regenerate everything")
	grid := c.fs.Int("grid", 32, "search-time thermal grid")
	reportGrid := c.fs.Int("report-grid", 88, "reporting thermal grid (125 um cells)")
	seed := c.fs.Int64("seed", 1, "optimizer seed")
	c.obs = cli.ObservabilityFlags(c.fs)

	return func(ctx context.Context) error {
		switch {
		case *table != 0 && *table != 3 && *table != 4 && *table != 5:
			return usageError{fmt.Errorf("-table %d: want 3, 4 or 5", *table)}
		case *fig != 0 && *fig != 1 && *fig != 5 && *fig != 6:
			return usageError{fmt.Errorf("-fig %d: want 1, 5 or 6", *fig)}
		case *grid <= 0:
			return usageError{fmt.Errorf("-grid %d: want a positive thermal grid", *grid)}
		case *reportGrid <= 0:
			return usageError{fmt.Errorf("-report-grid %d: want a positive thermal grid", *reportGrid)}
		case *table == 0 && *fig == 0 && !*headline && !*validate && !*all:
			return usageError{errors.New("nothing to regenerate: give -table, -fig, -headline, -validate or -all")}
		}
		if err := c.setup(); err != nil {
			return err
		}
		cfg := core.DefaultExperimentConfig()
		cfg.Grid = *grid
		cfg.ReportGrid = *reportGrid
		cfg.Seed = *seed
		cfg.Telemetry = c.sess.Tel
		m := c.sess.Manifest
		m.Set("space", cfg.Space.Fingerprint())
		m.Set("seed", *seed)
		m.Set("workload", cfg.Workload.Name)

		p := func(format string, args ...any) { fmt.Fprintf(c.stdout, format, args...) }
		// section runs one selected section after the earlier ones
		// succeeded: its banner, its body, then its wall time. An
		// interrupt stops the report at the next section.
		var err error
		section := func(on bool, name string, body func() error) {
			if err != nil || !(on || *all) {
				return
			}
			if err = ctx.Err(); err != nil {
				return
			}
			start := time.Now()
			p("==== %s ====\n", name)
			if err = body(); err == nil {
				p("(%.1fs)\n\n", time.Since(start).Seconds())
			}
		}
		section(*table == 5, "Table V: TESA outputs across constraint corners", func() error {
			rows, err := cfg.TableV(ctx)
			if err == nil {
				p("%s", core.FormatTableV(rows))
			}
			return err
		})
		section(*table == 4, "Table IV: SC2 (chiplet sizing without temperature)", func() error {
			rows, err := cfg.TableIV(ctx)
			if err == nil {
				p("%s", core.FormatTableIV(rows))
			}
			return err
		})
		section(*table == 3, "Table III: W1/W2 adoptions vs TESA (500 MHz, 3-D)", func() error {
			res, err := cfg.TableIII(ctx)
			if err == nil {
				p("%s", cfg.FormatTableIII(res))
			}
			return err
		})
		section(*fig == 1, "Fig. 1: motivation scenarios (a)-(d)", func() error {
			ss, err := cfg.Fig1(ctx)
			if err == nil {
				p("%s", core.FormatFig1(ss, tesa.DefaultConstraints()))
			}
			return err
		})
		section(*fig == 5, "Fig. 5: SC1 temperature-unaware max parallelism", func() error {
			rs, err := cfg.Fig5(ctx)
			if err != nil {
				return err
			}
			p("%s", core.FormatFig5(rs, tesa.DefaultConstraints()))
			for _, r := range rs {
				if r.Result.Found {
					p("%s", core.ThermalMapASCII(r.Result.Actual))
				}
			}
			return nil
		})
		section(*fig == 6, "Fig. 6: thermal maps of TESA outputs", func() error {
			for _, corner := range []core.Corner{
				{Tech: tesa.Tech2D, FreqMHz: 400, FPS: 30, BudgetC: 75},
				{Tech: tesa.Tech3D, FreqMHz: 400, FPS: 30, BudgetC: 75},
				{Tech: tesa.Tech3D, FreqMHz: 500, FPS: 15, BudgetC: 85},
			} {
				row, err := cfg.RunCornerContext(ctx, corner)
				if err != nil {
					return err
				}
				if !row.Found {
					p("%v: solution does not exist\n", corner)
					continue
				}
				p("%v:\n%s\n", corner, core.ThermalMapASCII(row.Eval))
			}
			return nil
		})
		section(*headline, "Headline: TESA vs baselines, 2-D vs 3-D", func() error {
			h, err := cfg.RunHeadline(ctx)
			if err == nil {
				p("%s", h.Format())
			}
			return err
		})
		section(*validate, "Sec. IV-A: optimizer validation vs exhaustive search", func() error {
			for _, corner := range []core.Corner{
				{Tech: tesa.Tech2D, FreqMHz: 400, FPS: 15, BudgetC: 85},
				{Tech: tesa.Tech2D, FreqMHz: 500, FPS: 15, BudgetC: 85},
			} {
				v, err := cfg.ValidateOptimizerContext(ctx, corner)
				if err != nil {
					return err
				}
				p("%v: space=%d feasible=%d explored=%.1f%% cache-hits=%.1f%% memo-hits=%.1f%% agreement=%v\n",
					corner, v.SpaceSize, v.FeasibleCount, 100*v.ExploredFraction, 100*v.CacheHitRate, 100*v.MemoHitRate, v.Agreement)
				if v.ExhaustiveFound {
					p("  global optimum: %v (objective %.4f)\n", v.ExhaustiveBest.Point, v.ExhaustiveBest.Objective)
				}
				if v.OptFound {
					p("  MSA optimum:    %v (objective %.4f)\n", v.OptimizerBest.Point, v.OptimizerBest.Objective)
				}
			}
			return nil
		})
		return err
	}
}
