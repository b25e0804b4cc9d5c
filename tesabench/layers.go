package main

import (
	"tesa/internal/memo"
	"tesa/internal/telemetry"
)

// Stage spans of the evaluation pipeline other than thermal; their sum
// is stage.nonthermal_s.
var nonThermalStages = []string{"stage.systolic", "stage.floorplan", "stage.sched", "stage.dram", "stage.cost"}

// layerMetrics derives the per-layer metrics of one traced round from
// its telemetry snapshot (the program's own stage spans and counters
// plus the benchmark's spans around each public call), its job records
// and its memo store. A layer the workload never reaches reports 0.
func layerMetrics(snap telemetry.MetricsSnapshot, recs []jobRecord, store *memo.Store) map[string]metric {
	m := map[string]metric{}
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	hist := func(name string) telemetry.HistogramStats { return snap.Histograms[name] }
	ctr := func(name string) float64 { return float64(snap.Counters[name]) }

	// jobspec: Parse+Resolve of one spec, around the benchmark's own calls.
	m["jobspec.resolve_us"] = metric{hist(spanParseResolve).P50 * 1e6, "us"}

	// server: lifecycle timestamps of served jobs, against the client's view.
	var queue, runs, overhead []float64
	for _, r := range recs {
		if st := r.status; st != nil && !st.Finished.IsZero() {
			queue = append(queue, st.Started.Sub(st.Created).Seconds()*1e3)
			runs = append(runs, st.Finished.Sub(st.Started).Seconds()*1e3)
			overhead = append(overhead, r.latency.Seconds()*1e3-st.Finished.Sub(st.Created).Seconds()*1e3)
		}
	}
	m["server.queue_ms_p50"] = metric{quantile(queue, 0.5), "ms"}
	m["server.run_ms_p50"] = metric{quantile(runs, 0.5), "ms"}
	m["server.run_ms_p95"] = metric{quantile(runs, 0.95), "ms"}
	m["server.overhead_ms_p50"] = metric{quantile(overhead, 0.5), "ms"}

	// core engine: distinct points evaluated and evaluator lookups, as
	// the engines report them in each result (sweeps evaluate each point
	// once), and the engines' own spans.
	var explored, evaluations float64
	for _, r := range recs {
		if res := r.result; res != nil {
			explored += float64(res.Explored + res.Evaluated)
			evaluations += float64(res.Evaluations + res.Evaluated)
		}
	}
	engineS := hist("optimize.total").Sum + hist("sweep.total").Sum
	pipe := hist("pipeline.total")
	count("engine.explored", explored)
	count("engine.evaluations", evaluations)
	m["engine.evals_per_s"] = metric{ratio(float64(pipe.Count), engineS), "1/s"}
	m["engine.optimize_s"] = metric{hist("optimize.total").Sum, "s"}
	m["engine.sweep_s"] = metric{hist("sweep.total").Sum, "s"}
	m["evaluator.cache_hit_rate"] = metric{ratio(ctr("evaluator.cache.hit"), ctr("evaluator.cache.hit")+ctr("evaluator.cache.miss")), "ratio"}

	// anneal: move outcomes over every chain.
	for _, k := range []string{"accepted", "rejected", "uphill", "infeasible"} {
		count("anneal."+k, ctr("anneal."+k))
	}

	// memo: the store's own traffic counters.
	var st memo.Stats
	if store != nil {
		st = store.Stats()
		count("memo.entries", float64(store.Len()))
	} else {
		count("memo.entries", 0)
	}
	for _, k := range []string{"eval", "cov", "profiles", "sched"} {
		m["memo."+k+"_hit_rate"] = metric{st.Kinds[k].HitRate(), "ratio"}
	}
	count("memo.misses", float64(st.Misses))

	// pipeline stages.
	th := hist("stage.thermal")
	var nonThermal float64
	for _, s := range nonThermalStages {
		nonThermal += hist(s).Sum
	}
	count("pipeline.evals", float64(pipe.Count))
	count("stage.thermal_calls", float64(th.Count))
	m["stage.thermal_s"] = metric{th.Sum, "s"}
	m["stage.thermal_ms_p50"] = metric{th.P50 * 1e3, "ms"}
	m["stage.thermal_ms_p95"] = metric{th.P95 * 1e3, "ms"}
	m["stage.thermal_share"] = metric{ratio(th.Sum, pipe.Sum), "ratio"}
	m["stage.nonthermal_s"] = metric{nonThermal, "s"}

	// steady-state thermal solver: CG iterations, and time per iteration
	// so kernel speed shows apart from iteration count.
	iters := ctr("thermal.solve.iterations")
	count("thermal.cg_iters", iters)
	count("thermal.cg_iters_per_call", ratio(iters, float64(th.Count)))
	m["thermal.us_per_cg_iter"] = metric{ratio(th.Sum*1e6, iters), "us"}

	// des + transient thermal.
	simRun := hist("sim.run")
	steps := ctr("sim.steps")
	count("sim.runs", float64(simRun.Count))
	count("sim.steps", steps)
	m["sim.step_ms"] = metric{ratio(simRun.Sum*1e3, steps), "ms"}
	count("sim.requests", ctr("sim.requests"))
	count("sim.sla_violations", ctr("sim.sla_violations"))
	count("sim.throttle_events", ctr("sim.throttle_events"))
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
