// Package telemetry is TESA's zero-dependency observability layer: a
// thread-safe metrics registry (counters, gauges, timing histograms
// with p50/p95/p99), a structured JSONL event sink for traces, and a
// Span/Hook API that the evaluation pipeline and the annealers report
// through.
//
// The design constraint is that *disabled* telemetry must cost
// approximately nothing: every entry point is nil-safe, so code holds a
// possibly-nil *Telemetry and calls it unconditionally. A nil hub hands
// out zero Spans and nil metric handles whose methods are single
// nil-check no-ops — no time.Now, no locks, no allocation on the hot
// path (see BenchmarkOptimizeTelemetryOff/On at the repo root).
//
// Metric and event names used by the TESA pipeline:
//
//	pipeline.total            histogram, seconds per design-point evaluation
//	stage.systolic            histogram, performance-model stage
//	stage.floorplan           histogram, area + mesh + placement stage
//	stage.sched               histogram, scheduler stage
//	stage.dram                histogram, DRAM channel/power stage
//	stage.cost                histogram, MCM cost stage
//	stage.thermal             histogram, leakage/thermal stage
//	evaluator.cache.hit/.miss counters, memoized vs pipeline evaluations
//	evaluator.feasible/.infeasible counters, pipeline verdicts
//	anneal.accepted/.uphill/.rejected counters, annealer move outcomes
//	anneal.start/.level/.done, optimize.done  trace events
package telemetry

import (
	"sync"
	"time"
)

// Hook observes every completed span (name and duration). Hooks see
// per-stage latencies as they happen, without touching the pipeline
// code. Hooks run synchronously on the emitting goroutine and
// must be cheap and concurrency-safe.
type Hook func(name string, d time.Duration)

// Telemetry bundles a metrics registry with an optional trace sink. The
// zero *Telemetry (nil) is the disabled state; all methods are nil-safe.
type Telemetry struct {
	reg  *Registry
	sink EventSink

	mu    sync.Mutex
	hooks []Hook
}

// New returns an enabled hub. sink may be nil for metrics-only
// operation (the CLIs' -metrics without -trace).
func New(sink EventSink) *Telemetry {
	return &Telemetry{reg: NewRegistry(), sink: sink}
}

// Enabled reports whether the hub collects anything at all.
func (t *Telemetry) Enabled() bool { return t != nil }

// Tracing reports whether trace events reach a sink.
func (t *Telemetry) Tracing() bool { return t != nil && t.sink != nil }

// Registry returns the metrics registry (nil when disabled, which is
// itself a valid no-op registry).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// AddHook registers a span observer.
func (t *Telemetry) AddHook(h Hook) {
	if t == nil || h == nil {
		return
	}
	t.mu.Lock()
	t.hooks = append(t.hooks, h)
	t.mu.Unlock()
}

// Emit forwards a trace event to the sink, if any. Callers on hot paths
// should guard field-map construction with Tracing().
func (t *Telemetry) Emit(event string, fields map[string]any) {
	if t == nil || t.sink == nil {
		return
	}
	t.sink.Emit(event, fields)
}

// Span measures one timed section. The zero Span (from a nil hub) is a
// no-op whose End costs a single nil check.
type Span struct {
	t     *Telemetry
	hist  *Histogram
	name  string
	start time.Time
}

// StartSpan opens a span whose End records into the histogram named
// name.
func (t *Telemetry) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, hist: t.reg.Histogram(name), name: name, start: time.Now()}
}

// End closes the span: the duration lands in the span's histogram and
// every registered Hook.
func (s Span) End() {
	if s.t == nil {
		return
	}
	d := time.Since(s.start)
	s.hist.Observe(d.Seconds())
	s.t.mu.Lock()
	hooks := s.t.hooks
	s.t.mu.Unlock()
	for _, h := range hooks {
		h(s.name, d)
	}
}

// Flush drains the trace sink, if any.
func (t *Telemetry) Flush() error {
	if t == nil || t.sink == nil {
		return nil
	}
	return t.sink.Flush()
}
