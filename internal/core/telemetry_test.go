package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"tesa/internal/telemetry"
)

// TestEvaluatorHitRateAccessors: Evaluations counts every call,
// CacheHitRate the fraction that did not run the pipeline.
func TestEvaluatorHitRateAccessors(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 30, 85)
	if e.Evaluations() != 0 || e.CacheHitRate() != 0 {
		t.Fatal("fresh evaluator reports prior traffic")
	}
	p := DesignPoint{ArrayDim: 100, ICSUM: 500}
	for i := 0; i < 4; i++ {
		if _, err := e.EvaluateContext(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Evaluations(); got != 4 {
		t.Errorf("evaluations = %d, want 4", got)
	}
	if got := e.CacheHitRate(); got != 0.75 {
		t.Errorf("hit rate = %g, want 0.75", got)
	}
}

// TestPipelineTelemetry: an instrumented evaluator records per-stage
// timings, cache counters and thermal solve counters; an uninstrumented
// one records nothing and still works.
func TestPipelineTelemetry(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 30, 85)
	tel := telemetry.New(nil)
	e.Instrument(tel)
	if e.Telemetry() != tel {
		t.Fatal("Telemetry() does not return the attached hub")
	}
	p := DesignPoint{ArrayDim: 100, ICSUM: 500}
	if _, err := e.EvaluateContext(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvaluateContext(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	reg := tel.Registry()
	for _, h := range []string{"pipeline.total", "stage.systolic", "stage.floorplan", "stage.sched"} {
		if n := reg.Histogram(h).Snapshot().Count; n != 1 {
			t.Errorf("%s count = %d, want 1", h, n)
		}
	}
	if hit := reg.Counter("evaluator.cache.hit").Value(); hit != 1 {
		t.Errorf("cache.hit = %d, want 1", hit)
	}
	if miss := reg.Counter("evaluator.cache.miss").Value(); miss != 1 {
		t.Errorf("cache.miss = %d, want 1", miss)
	}
	// A full evaluation of 250x250 arrays at ICS 900 um solves one stack
	// ten times over its phases' leakage loops; the projection alone
	// finishes two of the nine solves after the first.
	e = testEvaluator(t, Tech2D, 400, 30, 85)
	tel = telemetry.New(nil)
	e.Instrument(tel)
	if _, err := e.EvaluateFullContext(context.Background(), DesignPoint{ArrayDim: 250, ICSUM: 900}); err != nil {
		t.Fatal(err)
	}
	reg = tel.Registry()
	if n := reg.Counter("thermal.solve.count").Value(); n != 10 {
		t.Errorf("thermal.solve.count = %d, want 10", n)
	}
	if n := reg.Counter("thermal.solve.projected").Value(); n != 2 {
		t.Errorf("thermal.solve.projected = %d, want 2", n)
	}
	if n := reg.Counter("thermal.solve.iterations").Value(); n <= 0 {
		t.Errorf("thermal.solve.iterations = %d, want > 0", n)
	}
}

// TestOptimizeEmitsTrace: an Optimize run on the validation space
// streams annealer start/level/done and an optimize.done JSONL record.
func TestOptimizeEmitsTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("optimize run in -short mode")
	}
	var buf bytes.Buffer
	tel := telemetry.New(telemetry.NewJSONLSink(&buf))
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	e.Instrument(tel)
	res, err := e.OptimizeContext(context.Background(), ValidationSpace(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Flush(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line not JSON (%v): %q", err, line)
		}
		counts[rec.Event]++
	}
	if counts["anneal.start"] != 3 || counts["anneal.done"] != 3 {
		t.Errorf("lifecycle events %v, want 3 starts and 3 dones", counts)
	}
	if counts["anneal.level"] == 0 {
		t.Error("no per-level events in the trace")
	}
	if counts["optimize.done"] != 1 {
		t.Errorf("optimize.done count %d, want 1", counts["optimize.done"])
	}
	if res.Duration <= 0 {
		t.Errorf("optimize duration %v not populated", res.Duration)
	}
	if res.CacheHitRate <= 0 || res.CacheHitRate >= 1 {
		t.Errorf("optimize cache hit rate %g out of (0,1)", res.CacheHitRate)
	}
	for i, r := range res.PerStart {
		if r.Levels <= 0 || r.Duration <= 0 {
			t.Errorf("per-start %d summary not self-contained: %+v", i, r)
		}
	}
}
