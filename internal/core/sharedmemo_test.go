package core

import (
	"context"
	"sync"
	"testing"

	"tesa/internal/dnn"
	"tesa/internal/memo"
)

// memoJob is one "server request": a corner (distinct constraints) to be
// optimized over tinySpace with its own seed.
type memoJob struct {
	fps, budgetC float64
	seed         int64
}

// sharedMemoJobs are four corners that are all feasible on midSpace and
// differ only in constraints, so they share the performance fingerprint
// (and with it the profiles/systolic/sram keys) but never the
// constraint-bound whole-point eval keys — exactly the traffic mix a
// long-running tesa-server sees.
func sharedMemoJobs() []memoJob {
	return []memoJob{
		{fps: 15, budgetC: 85, seed: 1},
		{fps: 15, budgetC: 90, seed: 2},
		{fps: 10, budgetC: 85, seed: 3},
		{fps: 12, budgetC: 95, seed: 4},
	}
}

// sumKinds aggregates per-kind stats across isolated stores.
func sumKinds(stats []memo.Stats) map[string]memo.KindStats {
	out := make(map[string]memo.KindStats)
	for _, st := range stats {
		for k, ks := range st.Kinds {
			agg := out[k]
			agg.Hits += ks.Hits
			agg.Misses += ks.Misses
			agg.Deduped += ks.Deduped
			out[k] = agg
		}
	}
	return out
}

// lookups is the total number of store lookups a KindStats records:
// every lookup increments exactly one of Hits, Misses, or Deduped.
func lookups(ks memo.KindStats) int64 { return ks.Hits + ks.Misses + ks.Deduped }

// TestSharedMemoConcurrentJobs is the DSE-as-a-service sharing contract:
// one process-wide memo store serving concurrent OptimizeContext jobs
// with DISTINCT constraints must (a) be race-free under -race, (b) leave
// every job's winner bit-identical to the same job run against its own
// isolated store, and (c) account computes exactly: for the job-unique
// "eval" kind the shared store computes exactly the sum of the isolated
// legs, no kind's compute count may grow under sharing, and for the
// config-shared "profiles" kind it MUST shrink — cross-job warmth is
// the point of sharing.
func TestSharedMemoConcurrentJobs(t *testing.T) {
	jobs := sharedMemoJobs()
	space := midSpace()

	mkEvaluator := func(j memoJob, store *memo.Store) *Evaluator {
		opts := DefaultOptions()
		opts.FreqHz = 400e6
		opts.Grid = 24
		cons := DefaultConstraints()
		cons.FPS = j.fps
		cons.TempBudgetC = j.budgetC
		e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
		if err != nil {
			t.Fatal(err)
		}
		e.UseMemo(store)
		return e
	}

	// Reference leg: each job sequentially against its own private store.
	isolated := make([]*OptimizeResult, len(jobs))
	isoStats := make([]memo.Stats, len(jobs))
	for i, j := range jobs {
		store := memo.NewStore()
		res, err := mkEvaluator(j, store).OptimizeContext(context.Background(), space, j.seed, nil)
		if err != nil {
			t.Fatalf("isolated job %d: %v", i, err)
		}
		if !res.Found {
			t.Fatalf("isolated job %d found nothing on a feasible corner", i)
		}
		isolated[i] = res
		isoStats[i] = store.Stats()
	}

	// Shared leg: the same jobs concurrently against one store, as the
	// server's worker pool runs them. Evaluators are built before the
	// goroutines launch so t.Fatal stays on the test goroutine.
	shared := memo.NewStore()
	evs := make([]*Evaluator, len(jobs))
	for i, j := range jobs {
		evs[i] = mkEvaluator(j, shared)
	}
	results := make([]*OptimizeResult, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			results[i], errs[i] = evs[i].OptimizeContext(context.Background(), space, seed, nil)
		}(i, j.seed)
	}
	wg.Wait()

	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("shared job %d: %v", i, errs[i])
		}
		got, want := results[i], isolated[i]
		if got.Found != want.Found {
			t.Fatalf("job %d: Found=%v shared vs %v isolated", i, got.Found, want.Found)
		}
		if a, b := recordJSON(t, got.Best), recordJSON(t, want.Best); a != b {
			t.Errorf("job %d: winner diverged under the shared store:\nshared   %s\nisolated %s", i, a, b)
		}
		if got.Explored != want.Explored || got.Evaluations != want.Evaluations {
			t.Errorf("job %d: trajectory diverged: explored/evals %d/%d shared vs %d/%d isolated",
				i, got.Explored, got.Evaluations, want.Explored, want.Evaluations)
		}
	}

	// Accounting. Lookup counts (Hits+Misses+Deduped) can wobble by a
	// few when chains race past the evaluator's local cache, but the
	// compute count cannot: single-flight runs each distinct key's
	// compute exactly once, so Misses is the number of distinct keys —
	// deterministic. Eval keys bind the constraints, so they never
	// alias across jobs and the shared store must compute exactly the
	// sum of the isolated legs.
	sh := shared.Stats()
	iso := sumKinds(isoStats)
	if got, want := sh.Kinds["eval"].Misses, iso["eval"].Misses; got != want {
		t.Errorf("eval computes: %d shared, want %d (sum of isolated legs)", got, want)
	}
	for _, kind := range []string{"eval", "profiles"} {
		if lookups(sh.Kinds[kind]) == 0 {
			t.Errorf("%s saw no traffic on the shared store", kind)
		}
	}
	for kind, ks := range sh.Kinds {
		if ks.Misses > iso[kind].Misses {
			t.Errorf("%s computes grew under sharing: %d shared > %d summed isolated", kind, ks.Misses, iso[kind].Misses)
		}
	}
	// Cross-job warmth: the jobs share perfFP, so distinct profiles keys
	// overlap across jobs and the shared store must compute fewer
	// bundles than the four isolated stores did together.
	if sh.Kinds["profiles"].Misses >= iso["profiles"].Misses {
		t.Errorf("no cross-job profile sharing: %d computes shared vs %d summed isolated",
			sh.Kinds["profiles"].Misses, iso["profiles"].Misses)
	}
	if sh.Hits+sh.Misses+sh.Deduped == 0 {
		t.Fatal("shared store saw no traffic")
	}
}
