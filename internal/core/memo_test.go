package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tesa/internal/memo"
	"tesa/internal/telemetry"
)

// recordJSON canonicalizes every scalar a DSE consumer reads (via the
// persisted-record encoding, whose jf wrapper makes NaN/Inf
// comparable) so two evaluations can be checked for bit-identity.
func recordJSON(t *testing.T, ev *Evaluation) string {
	t.Helper()
	raw, err := json.Marshal(newEvalRecord(ev))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// freshEvaluation evaluates p (DSE mode, or reporting mode when full)
// on a brand-new evaluator, so nothing it computes was served by a store
// entry another point or evaluator filled: the reference every
// store-served path must match.
func freshEvaluation(t *testing.T, p DesignPoint, full bool) (*Evaluation, error) {
	t.Helper()
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	if full {
		return e.EvaluateFullContext(context.Background(), p)
	}
	return e.EvaluateContext(context.Background(), p)
}

// TestMemoEvaluationsBitIdentical: every evaluation served through a
// memo store is bit-identical to a fresh evaluator's — one evaluator
// whose store is warm with every earlier point's stage results, a peer
// served whole evaluations from that store, and a store replayed from
// disk — all scalars (compared through the NaN-safe record encoding)
// and, where the evaluation carries them, the structural outputs
// (schedule, placement), in both DSE and reporting mode.
func TestMemoEvaluationsBitIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "memo")
	store := memo.NewStore()
	closeDisk, err := LoadMemoDir(store, dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := testEvaluator(t, Tech2D, 400, 15, 85)
	warm.UseMemo(store)
	pts := midSpace().Enumerate()
	refs := make(map[DesignPoint]*Evaluation, len(pts))
	for _, p := range pts {
		rev, rerr := freshEvaluation(t, p, false)
		wev, werr := warm.EvaluateContext(context.Background(), p)
		if (rerr == nil) != (werr == nil) {
			t.Fatalf("%v: error disagreement: fresh %v, warm store %v", p, rerr, werr)
		}
		if rerr != nil {
			continue
		}
		refs[p] = rev
		if a, b := recordJSON(t, rev), recordJSON(t, wev); a != b {
			t.Errorf("%v: DSE evaluation diverged:\nfresh %s\nwarm  %s", p, a, b)
		}
		if !reflect.DeepEqual(rev.Schedule, wev.Schedule) {
			t.Errorf("%v: schedule diverged", p)
		}
		if !reflect.DeepEqual(rev.Placement, wev.Placement) {
			t.Errorf("%v: placement diverged", p)
		}
	}
	if err := closeDisk(); err != nil {
		t.Fatal(err)
	}
	// Stage-level sharing must have fired across the sweep.
	if st := warm.MemoStats(); st.Hits == 0 {
		t.Fatalf("store never hit: %+v", st)
	}

	// A second evaluator sharing the store is served whole evaluations.
	p := pts[0]
	peer := testEvaluator(t, Tech2D, 400, 15, 85)
	peer.UseMemo(store)
	before := store.Stats().Kinds["eval"].Hits
	pev, err := peer.EvaluateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats().Kinds["eval"].Hits == before {
		t.Error("peer evaluation did not hit the eval store")
	}
	if rev := refs[p]; rev != nil && recordJSON(t, pev) != recordJSON(t, rev) {
		t.Error("store-served evaluation diverged from the fresh one")
	}

	// A store replayed from disk serves compact records carrying the
	// same scalars.
	replayed := memo.NewStore()
	closeReplay, err := LoadMemoDir(replayed, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeReplay()
	disk := testEvaluator(t, Tech2D, 400, 15, 85)
	disk.UseMemo(replayed)
	for p, rev := range refs {
		dev, err := disk.EvaluateContext(context.Background(), p)
		if err != nil {
			t.Fatalf("%v: replayed evaluation failed: %v", p, err)
		}
		if !dev.Compact() {
			t.Errorf("%v: not served from the replayed record", p)
		}
		if a, b := recordJSON(t, rev), recordJSON(t, dev); a != b {
			t.Errorf("%v: replayed evaluation diverged:\nfresh %s\ndisk  %s", p, a, b)
		}
	}

	// Reporting mode: full evaluations agree too, and upgrade the store
	// entry rather than being served by a DSE record.
	rfull, err := freshEvaluation(t, p, true)
	if err != nil {
		t.Fatal(err)
	}
	wfull, err := warm.EvaluateFullContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := recordJSON(t, rfull), recordJSON(t, wfull); a != b {
		t.Errorf("full evaluation diverged:\nfresh %s\nwarm  %s", a, b)
	}
	if wfull.Compact() || !wfull.Full {
		t.Error("full evaluation served by a DSE record")
	}
}

// TestMemoOptimizeIdenticalTrajectory: the optimizer's whole trajectory
// — winner, objective, evaluation and exploration counts, and every
// per-start result — is identical on a fresh evaluator, with pooled
// parallel chains, on a store another run already filled, and on a
// store a sweep filled with an eval record for every point. The last
// runs at a corner (2-D 500 MHz, 15 fps, 75 C over the default space)
// where start sampling leaves most survivors unevaluated, so a screen
// that read eval records would explore fewer points there.
func TestMemoOptimizeIdenticalTrajectory(t *testing.T) {
	space := tinySpace()
	ref := testEvaluator(t, Tech2D, 400, 15, 85)
	refRes, err := ref.OptimizeContext(context.Background(), space, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !refRes.Found {
		t.Fatal("reference optimizer found nothing on a feasible space")
	}
	corner := startCorner{"sweep-filled", Tech2D, 500, 15, 75, DefaultSpace()}
	swept := corner.evaluator(t)
	if _, err := swept.ExhaustiveContext(context.Background(), corner.space, nil); err != nil {
		t.Fatal(err)
	}

	runs := []struct {
		name   string
		store  *memo.Store
		opt    *OptimizeOptions
		corner *startCorner // nil: tinySpace, like the reference above
	}{
		{"parallel", nil, &OptimizeOptions{Parallel: 4}, nil},
		{"warm store", ref.Memo(), nil, nil},
		{"warm store+parallel", ref.Memo(), &OptimizeOptions{Parallel: 4}, nil},
		{"sweep-filled store", swept.Memo(), nil, &corner},
	}
	for _, run := range runs {
		e, space, refRes := testEvaluator(t, Tech2D, 400, 15, 85), space, refRes
		if run.corner != nil {
			e, space = run.corner.evaluator(t), run.corner.space
			if refRes, err = run.corner.evaluator(t).OptimizeContext(context.Background(), space, 3, nil); err != nil {
				t.Fatal(err)
			}
		}
		if run.store != nil {
			e.UseMemo(run.store)
		}
		res, err := e.OptimizeContext(context.Background(), space, 3, run.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("%s: found nothing", run.name)
		}
		if res.Best.Point != refRes.Best.Point || res.Best.Objective != refRes.Best.Objective {
			t.Errorf("%s: winner changed: %v obj %v, want %v obj %v", run.name,
				res.Best.Point, res.Best.Objective, refRes.Best.Point, refRes.Best.Objective)
		}
		if res.Evaluations != refRes.Evaluations || res.Explored != refRes.Explored {
			t.Errorf("%s: trajectory changed: %d evaluations / %d explored, want %d / %d",
				run.name, res.Evaluations, res.Explored, refRes.Evaluations, refRes.Explored)
		}
		if len(res.PerStart) != len(refRes.PerStart) {
			t.Fatalf("%s: %d starts, want %d", run.name, len(res.PerStart), len(refRes.PerStart))
		}
		for i, ps := range res.PerStart {
			want := refRes.PerStart[i]
			if ps.Found != want.Found || ps.BestObj != want.BestObj || ps.Best != want.Best ||
				ps.Evaluations != want.Evaluations || ps.Accepted != want.Accepted ||
				ps.Uphill != want.Uphill || ps.Levels != want.Levels {
				t.Errorf("%s: start %d diverged: %+v, want %+v", run.name, i, ps, want)
			}
		}
	}
}

// TestMemoFaultMatrixTrajectory: an evaluator with a fault-injection
// plan armed takes the exact same trajectory whether or not a shared
// store (warm from a clean run) is attached — the plan forces a private
// store, so injection decisions fire at this evaluator's stage
// boundaries and the quarantine ledgers match — across a stack of fault
// specs and both chain schedules.
func TestMemoFaultMatrixTrajectory(t *testing.T) {
	space := tinySpace()
	clean := testEvaluator(t, Tech2D, 400, 15, 85)
	if _, err := clean.OptimizeContext(context.Background(), space, 3, nil); err != nil {
		t.Fatal(err)
	}
	shared := clean.Memo()
	for _, spec := range []string{
		"panic@sched:dim=184",
		"nan@thermal:dim=192,ics=0",
		"panic@systolic:rate=0.05,seed=7;error@cost:rate=0.05,seed=11",
	} {
		ref := testEvaluator(t, Tech2D, 400, 15, 85)
		ref.InjectFaults(injectPlan(t, spec))
		refRes, rerr := ref.OptimizeContext(context.Background(), space, 3, nil)

		for _, parallel := range []int{0, 4} {
			e := testEvaluator(t, Tech2D, 400, 15, 85)
			e.UseMemo(shared)
			e.InjectFaults(injectPlan(t, spec))
			res, err := e.OptimizeContext(context.Background(), space, 3, &OptimizeOptions{Parallel: parallel})
			if (rerr == nil) != (err == nil) {
				t.Fatalf("%q/parallel=%d: error disagreement: private %v, shared %v", spec, parallel, rerr, err)
			}
			if res.Found != refRes.Found {
				t.Fatalf("%q/parallel=%d: found disagreement", spec, parallel)
			}
			if refRes.Found && (res.Best.Point != refRes.Best.Point || res.Best.Objective != refRes.Best.Objective) {
				t.Errorf("%q/parallel=%d: winner changed under faults", spec, parallel)
			}
			if res.Evaluations != refRes.Evaluations || res.Quarantined != refRes.Quarantined {
				t.Errorf("%q/parallel=%d: %d evaluations / %d quarantined, want %d / %d",
					spec, parallel, res.Evaluations, res.Quarantined, refRes.Evaluations, refRes.Quarantined)
			}
			if !reflect.DeepEqual(res.Poisoned, refRes.Poisoned) {
				t.Errorf("%q/parallel=%d: quarantine ledger diverged:\nshared  %v\nprivate %v",
					spec, parallel, res.Poisoned, refRes.Poisoned)
			}
		}
	}
}

// TestFaultPlanKeepsSharedStoreClean: a clean evaluator fills a shared
// store with point p; a second evaluator attached to the same store with
// a panic@cost plan armed on p must still run p's pipeline, fire the
// fault and quarantine p, and the shared store's entry for p — and the
// store as a whole — must be unchanged afterwards.
func TestFaultPlanKeepsSharedStoreClean(t *testing.T) {
	p := DesignPoint{ArrayDim: 192, ICSUM: 500}
	store := memo.NewStore()
	clean := testEvaluator(t, Tech2D, 400, 15, 85)
	clean.UseMemo(store)
	ev, err := clean.EvaluateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Fits {
		t.Fatalf("%v does not fit: the cost stage would never run", p)
	}
	key := clean.evalKey(p)
	before, ok := store.Get(key)
	if !ok {
		t.Fatal("clean evaluation left no store entry")
	}
	entries := store.Len()

	faulty := testEvaluator(t, Tech2D, 400, 15, 85)
	faulty.UseMemo(store)
	faulty.InjectFaults(injectPlan(t, fmt.Sprintf("panic@cost:dim=%d,ics=%d", p.ArrayDim, p.ICSUM)))
	_, err = faulty.EvaluateContext(context.Background(), p)
	ee, ok := asEvalError(err)
	if !ok || !errors.Is(err, ErrStagePanic) || ee.Stage != stageCost {
		t.Fatalf("err = %v, want an injected panic at the cost stage", err)
	}
	if n := faulty.QuarantinedCount(); n != 1 {
		t.Errorf("quarantined %d, want 1", n)
	}
	after, ok := store.Get(key)
	if !ok || after != before {
		t.Error("the faulty run replaced the shared store's entry")
	}
	if recordJSON(t, after.(*Evaluation)) != recordJSON(t, ev) {
		t.Error("the shared store's entry changed")
	}
	if n := store.Len(); n != entries {
		t.Errorf("shared store grew from %d to %d entries during the faulty run", entries, n)
	}
}

// TestMemoDiskWarmOptimize: a second process (modeled by a fresh store
// and evaluator over the same -memo-dir) reloads the first run's
// records and re-derives the identical winner from disk. Its only
// pipeline run is the upgrade of the compact winning record to a full
// evaluation before reporting it.
func TestMemoDiskWarmOptimize(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "memo")
	space := tinySpace()

	cold := testEvaluator(t, Tech2D, 400, 15, 85)
	coldStore := memo.NewStore()
	closeCold, err := LoadMemoDir(coldStore, dir)
	if err != nil {
		t.Fatal(err)
	}
	cold.UseMemo(coldStore)
	coldRes, err := cold.OptimizeContext(context.Background(), space, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !coldRes.Found {
		t.Fatal("cold run found nothing")
	}
	if err := closeCold(); err != nil {
		t.Fatal(err)
	}

	warm := testEvaluator(t, Tech2D, 400, 15, 85)
	warmStore := memo.NewStore()
	closeWarm, err := LoadMemoDir(warmStore, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWarm()
	if loaded := warmStore.Stats().Loaded; loaded == 0 {
		t.Fatal("warm store loaded nothing from disk")
	}
	warm.UseMemo(warmStore)
	tel := telemetry.New(nil)
	warm.Instrument(tel)
	warmRes, err := warm.OptimizeContext(context.Background(), space, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warmRes.Found {
		t.Fatal("warm run found nothing")
	}
	if warmRes.Best.Point != coldRes.Best.Point || warmRes.Best.Objective != coldRes.Best.Objective {
		t.Errorf("warm winner %v obj %v, want %v obj %v",
			warmRes.Best.Point, warmRes.Best.Objective, coldRes.Best.Point, coldRes.Best.Objective)
	}
	w, c := warmRes.Best, coldRes.Best
	if w.MCMCost.Total != c.MCMCost.Total || w.MakespanSec != c.MakespanSec || w.PeakTempC != c.PeakTempC {
		t.Errorf("warm winner cost/makespan/peak %v/%v/%v, want %v/%v/%v",
			w.MCMCost.Total, w.MakespanSec, w.PeakTempC, c.MCMCost.Total, c.MakespanSec, c.PeakTempC)
	}
	if n := tel.Registry().Histogram("pipeline.total").Snapshot().Count; n != 1 {
		t.Errorf("warm run made %d pipeline evaluations, want 1 (the winner's upgrade)", n)
	}
	if warmRes.Evaluations != coldRes.Evaluations || warmRes.Explored != coldRes.Explored {
		t.Errorf("warm trajectory changed: %d/%d, want %d/%d",
			warmRes.Evaluations, warmRes.Explored, coldRes.Evaluations, coldRes.Explored)
	}
	// The winner served from a compact disk record must have been
	// upgraded for reporting.
	if warmRes.Best.Compact() {
		t.Error("reported winner is still a compact record")
	}
	if warmRes.Best.Schedule == nil {
		t.Error("reported winner lost its schedule")
	}
	if hits := tel.Registry().Counter("memo.hit.eval").Value(); hits == 0 {
		t.Error("warm run never hit the persisted eval records")
	}
}

// TestMemoSharedStoreConcurrentEvaluators: two evaluators share one
// store while optimizing concurrently with pooled chains — the -race
// target for the cross-evaluator single-flight path — and both land on
// the reference result.
func TestMemoSharedStoreConcurrentEvaluators(t *testing.T) {
	space := tinySpace()
	ref := testEvaluator(t, Tech2D, 400, 15, 85)
	refRes, err := ref.OptimizeContext(context.Background(), space, 3, nil)
	if err != nil {
		t.Fatal(err)
	}

	store := memo.NewStore()
	evs := []*Evaluator{
		testEvaluator(t, Tech2D, 400, 15, 85),
		testEvaluator(t, Tech2D, 400, 15, 85),
	}
	results := make([]*OptimizeResult, 2)
	errs := make([]error, 2)
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		evs[i].UseMemo(store)
		go func(i int) {
			defer func() { done <- i }()
			res, err := evs[i].OptimizeContext(context.Background(), space, 3, &OptimizeOptions{Parallel: 3})
			results[i], errs[i] = res, err
		}(i)
	}
	for i := 0; i < 2; i++ {
		<-done
	}
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		res := results[i]
		if !res.Found || res.Best.Point != refRes.Best.Point || res.Best.Objective != refRes.Best.Objective {
			t.Errorf("evaluator %d: winner %v obj %v, want %v obj %v",
				i, res.Best.Point, res.Best.Objective, refRes.Best.Point, refRes.Best.Objective)
		}
		if res.Evaluations != refRes.Evaluations {
			t.Errorf("evaluator %d: %d evaluations, want %d", i, res.Evaluations, refRes.Evaluations)
		}
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Errorf("shared store never hit: %+v", st)
	}
}

// TestLoadMemoDirTornTail: a torn trailing segment record (crash
// mid-write) must be skipped, not abort the load, and the records
// before it must still load.
func TestLoadMemoDirTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "memo")
	space := midSpace()

	// First process: sweep the space with persistence on, so the disk
	// holds one eval record per point.
	writer := testEvaluator(t, Tech2D, 400, 15, 85)
	writerStore := memo.NewStore()
	closeWriter, err := LoadMemoDir(writerStore, dir)
	if err != nil {
		t.Fatal(err)
	}
	writer.UseMemo(writerStore)
	if _, err := writer.ExhaustiveContext(context.Background(), space, nil); err != nil {
		t.Fatal(err)
	}
	if err := closeWriter(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record in half, as a crash mid-append would.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	// Second process: the load must succeed, skipping only the torn
	// tail.
	store := memo.NewStore()
	closeStore, err := LoadMemoDir(store, dir)
	if err != nil {
		t.Fatalf("torn tail aborted the load: %v", err)
	}
	defer closeStore()
	if store.Stats().Loaded == 0 {
		t.Fatal("nothing loaded from disk")
	}
}
