// Command tesa-report regenerates the paper's tables and figures.
//
// Usage:
//
//	tesa-report [-table 3|4|5] [-fig 5|6] [-headline] [-validate] [-all]
//	            [-grid 32] [-report-grid 88] [-seed 1]
//	            [-metrics] [-trace out.jsonl] [-pprof addr]
//	            [-metrics-addr addr] [-manifest run.jsonl]
//
// Every experiment prints its reproduction next to the quantity the paper
// reports; see EXPERIMENTS.md for the recorded comparison.
//
// Observability: the standard flag set of the search commands. One hub
// instruments every evaluator the experiments create, so the -metrics
// summary aggregates stage timings across all regenerated tables and
// figures, -metrics-addr serves the live exposition endpoints while
// the (long) report runs, and -manifest records which sections ran.
//
// Every evaluator of the run shares one content-addressed memo store,
// which changes only wall-clock time, not the reproduced numbers. The
// -validate lines report the store's hit rate next to the optimizer's
// cache-hit rate.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tesa"
	"tesa/internal/cli"
	"tesa/internal/core"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate Table 3, 4, or 5")
		fig        = flag.Int("fig", 0, "regenerate Figure 1, 5, or 6")
		headline   = flag.Bool("headline", false, "regenerate the Sec. IV-B headline comparison")
		validate   = flag.Bool("validate", false, "run the Sec. IV-A optimizer validation")
		all        = flag.Bool("all", false, "regenerate everything")
		grid       = flag.Int("grid", 32, "search-time thermal grid")
		reportGrid = flag.Int("report-grid", 88, "reporting thermal grid (125 um cells)")
		seed       = flag.Int64("seed", 1, "optimizer seed")
		obs        = cli.ObservabilityFlags(flag.CommandLine)
	)
	flag.Parse()

	sess, err := obs.Setup("tesa-report", os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := core.DefaultExperimentConfig()
	cfg.Grid = *grid
	cfg.ReportGrid = *reportGrid
	cfg.Seed = *seed
	cfg.Telemetry = sess.Tel
	sess.Manifest.Set("space", cfg.Space.Fingerprint())
	sess.Manifest.Set("seed", *seed)
	sess.Manifest.Set("workload", cfg.Workload.Name)

	ran := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		sess.Finish("error")
		os.Exit(1)
	}
	section := func(name string) func() {
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		return func() { fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds()) }
	}

	if *all || *table == 5 {
		ran = true
		done := section("Table V: TESA outputs across constraint corners")
		rows, err := cfg.TableV()
		if err != nil {
			fail(err)
		}
		fmt.Print(core.FormatTableV(rows))
		done()
	}
	if *all || *table == 4 {
		ran = true
		done := section("Table IV: SC2 (chiplet sizing without temperature)")
		rows, err := cfg.TableIV()
		if err != nil {
			fail(err)
		}
		fmt.Print(core.FormatTableIV(rows))
		done()
	}
	if *all || *table == 3 {
		ran = true
		done := section("Table III: W1/W2 adoptions vs TESA (500 MHz, 3-D)")
		res, err := cfg.TableIII()
		if err != nil {
			fail(err)
		}
		fmt.Print(cfg.FormatTableIII(res))
		done()
	}
	if *all || *fig == 1 {
		ran = true
		done := section("Fig. 1: motivation scenarios (a)-(d)")
		ss, err := cfg.Fig1()
		if err != nil {
			fail(err)
		}
		fmt.Print(core.FormatFig1(ss, tesa.DefaultConstraints()))
		done()
	}
	if *all || *fig == 5 {
		ran = true
		done := section("Fig. 5: SC1 temperature-unaware max parallelism")
		rs, err := cfg.Fig5()
		if err != nil {
			fail(err)
		}
		fmt.Print(core.FormatFig5(rs, tesa.DefaultConstraints()))
		for _, r := range rs {
			if r.Result.Found {
				fmt.Print(core.ThermalMapASCII(r.Result.Actual))
			}
		}
		done()
	}
	if *all || *fig == 6 {
		ran = true
		done := section("Fig. 6: thermal maps of TESA outputs")
		for _, c := range []core.Corner{
			{Tech: tesa.Tech2D, FreqMHz: 400, FPS: 30, BudgetC: 75},
			{Tech: tesa.Tech3D, FreqMHz: 400, FPS: 30, BudgetC: 75},
			{Tech: tesa.Tech3D, FreqMHz: 500, FPS: 15, BudgetC: 85},
		} {
			row, err := cfg.RunCorner(c)
			if err != nil {
				fail(err)
			}
			if !row.Found {
				fmt.Printf("%v: solution does not exist\n", c)
				continue
			}
			fmt.Printf("%v:\n%s\n", c, core.ThermalMapASCII(row.Eval))
		}
		done()
	}
	if *all || *headline {
		ran = true
		done := section("Headline: TESA vs baselines, 2-D vs 3-D")
		h, err := cfg.RunHeadline()
		if err != nil {
			fail(err)
		}
		fmt.Print(h.Format())
		done()
	}
	if *all || *validate {
		ran = true
		done := section("Sec. IV-A: optimizer validation vs exhaustive search")
		for _, c := range []core.Corner{
			{Tech: tesa.Tech2D, FreqMHz: 400, FPS: 15, BudgetC: 85},
			{Tech: tesa.Tech2D, FreqMHz: 500, FPS: 15, BudgetC: 85},
		} {
			v, err := cfg.ValidateOptimizer(c)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%v: space=%d feasible=%d explored=%.1f%% cache-hits=%.1f%% memo-hits=%.1f%% agreement=%v\n",
				c, v.SpaceSize, v.FeasibleCount, 100*v.ExploredFraction, 100*v.CacheHitRate, 100*v.MemoHitRate, v.Agreement)
			if v.ExhaustiveFound {
				fmt.Printf("  global optimum: %v (objective %.4f)\n", v.ExhaustiveBest.Point, v.ExhaustiveBest.Objective)
			}
			if v.OptFound {
				fmt.Printf("  MSA optimum:    %v (objective %.4f)\n", v.OptimizerBest.Point, v.OptimizerBest.Objective)
			}
		}
		done()
	}

	if !ran {
		flag.Usage()
		sess.Finish("usage")
		os.Exit(2)
	}
	sess.Finish("ok")
}
