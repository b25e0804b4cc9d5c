package main

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"tesa/internal/jobspec"
	"tesa/internal/telemetry"
)

// TestServeSpecsDeterministic pins the serve-closed generator: one seed
// gives a byte-identical job list, another seed a different one, and
// every generated spec parses and resolves with the documented mix.
func TestServeSpecsDeterministic(t *testing.T) {
	a, err := serveSpecs(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serveSpecs(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := serveSpecs(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != serveJobs {
		t.Fatalf("%d specs, want %d", len(a), serveJobs)
	}
	if !bytes.Equal(bytes.Join(a, nil), bytes.Join(b, nil)) {
		t.Error("seed 1 generated two different job lists")
	}
	if bytes.Equal(bytes.Join(a, nil), bytes.Join(c, nil)) {
		t.Error("seeds 1 and 2 generated the same job list")
	}
	kinds := map[string]int{}
	for i, raw := range a {
		spec, err := jobspec.Parse(raw)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		r, err := spec.Resolve("")
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		kinds[r.Kind]++
		if n := len(r.Space.ArrayDims); n < 3 || n > 5 || len(r.Space.ICSUMs) != 3 || r.Opts.Grid != 16 {
			t.Errorf("spec %d: %d dims, %d ICS values, grid %d", i, n, len(r.Space.ICSUMs), r.Opts.Grid)
		}
	}
	want := map[string]int{jobspec.KindOptimize: serveJobs / 2, jobspec.KindSweep: serveJobs * 3 / 10, jobspec.KindPareto: serveJobs / 5}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("%d %s jobs, want %d", kinds[k], k, n)
		}
	}
}

// TestServedMatchesRun checks the jobspec contract once for the
// benchmark's own inputs: generated jobs served over HTTP, by two
// closed-loop clients at once, return the same bytes as jobspec.Run of
// the same spec in the same runtime.
func TestServedMatchesRun(t *testing.T) {
	w, err := lookupWorkload("serve-closed")
	if err != nil {
		t.Fatal(err)
	}
	raws, err := w.specs(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	// The first two jobs of each kind.
	var picked [][]byte
	seen := map[string]int{}
	for _, raw := range raws {
		spec, err := jobspec.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if seen[spec.Kind] < 2 {
			seen[spec.Kind]++
			picked = append(picked, raw)
		}
	}
	e, err := setUp(w, picked, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	})
	served := e.(*servedEnv)
	ctx := context.Background()
	recs := served.round(ctx, func(j *job, res *jobspec.Result) error { return checkResult(j.resolved, res) })
	for i, rec := range recs {
		j := served.jobs[i]
		if rec.err != nil {
			t.Fatalf("%s job %d: %v", j.resolved.Kind, i, rec.err)
		}
		// Same engine configuration as the server's: Parallel 0 keeps the
		// legacy start-order tie-break, so only Parallel > 0 compares.
		want, err := jobspec.Run(ctx, j.resolved, jobspec.Runtime{Parallel: servedParallel})
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := json.Marshal(rec.result)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s job %d: served %s\nrun    %s", j.resolved.Kind, i, gb, wb)
		}
	}
}

// countMetrics are the per-layer metrics that must repeat exactly
// between two traced runs of one seed, so a later change can claim a
// change in any of them by name.
var countMetrics = []string{
	"thermal.cg_iters", "engine.explored",
	"anneal.accepted", "anneal.rejected", "anneal.uphill", "anneal.infeasible",
	"memo.misses", "sim.steps", "sim.requests", "sim.throttle_events",
}

// TestTracedCountsRepeat runs one traced round of optimize-grid32 and of
// sim-throttle twice each with the default seed and requires identical
// exact counts. It takes about a minute on two cores.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two optimize-grid32 and two sim-throttle rounds")
	}
	nproc := runtime.NumCPU()
	for _, name := range []string{"optimize-grid32", "sim-throttle"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		raws, err := w.specs(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]map[string]metric
		for i := range runs {
			out, err := runRound(context.Background(), w, defaultSeed, raws, nproc, telemetry.New(nil))
			if err != nil {
				t.Fatal(err)
			}
			if out.stats.Failed > 0 {
				t.Fatalf("%s: %v", name, out.stats.Errors)
			}
			runs[i] = out.layers
		}
		for _, k := range countMetrics {
			if a, b := runs[0][k].Value, runs[1][k].Value; a != b {
				t.Errorf("%s: %s = %g then %g", name, k, a, b)
			}
		}
		t.Logf("%s: cg_iters %g explored %g memo misses %g sim steps %g", name,
			runs[0]["thermal.cg_iters"].Value, runs[0]["engine.explored"].Value,
			runs[0]["memo.misses"].Value, runs[0]["sim.steps"].Value)
	}
}
