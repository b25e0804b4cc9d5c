package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent: G goroutines x N increments land exactly; run
// under -race this also proves the counter is data-race free.
func TestCounterConcurrent(t *testing.T) {
	const goroutines, perG = 16, 1000
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mix of first-use lookups and increments exercises the
			// registry's create-on-first-use path concurrently too.
			for i := 0; i < perG; i++ {
				r.Counter("moves").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("moves").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge stored")
	}
	h := r.Histogram("z")
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram recorded")
	}
	if r.Summary() != "" {
		t.Error("nil registry produced a summary")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("temp")
	g.Set(19.5)
	g.Set(0.5)
	if v := g.Value(); v != 0.5 {
		t.Errorf("gauge = %g, want 0.5", v)
	}
	if r.Gauge("temp") != g {
		t.Error("same name returned a different gauge")
	}
}

// TestHistogramQuantiles: a known distribution yields the expected
// order statistics.
func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("count/min/max = %d/%g/%g", s.Count, s.Min, s.Max)
	}
	if m := s.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("mean = %g, want 50.5", m)
	}
	// R-7 interpolation: position q*(n-1) between the order statistics.
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50.5}, {0.95, 95.05}, {0.99, 99.01}, {1.0, 100},
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("q%.2f = %g, want %g", tc.q, got, tc.want)
		}
	}
}

// TestQuantileSmallSampleDistinct is the small-N regression: with 12
// samples, nearest-rank p95, p99, and max all landed on the last order
// statistic; interpolation keeps them distinct and
// strictly ordered.
func TestQuantileSmallSampleDistinct(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 12; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	p50, p95, p99, max := s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99), s.Quantile(1)
	if !(p50 < p95 && p95 < p99 && p99 < max) {
		t.Errorf("small-N quantiles collapsed: p50=%g p95=%g p99=%g max=%g", p50, p95, p99, max)
	}
	if max != 12 {
		t.Errorf("q1 = %g, want the max sample", max)
	}
}

// TestHistogramConcurrent: concurrent observers never lose counts, and
// the reservoir stays bounded with sane quantiles.
func TestHistogramConcurrent(t *testing.T) {
	const goroutines, perG = 8, 2000 // 16000 > reservoirSize
	h := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("count = %d, want %d", s.Count, goroutines*perG)
	}
	if len(s.sorted) != reservoirSize {
		t.Errorf("reservoir = %d samples, want %d", len(s.sorted), reservoirSize)
	}
	if p50, p99 := s.Quantile(0.5), s.Quantile(0.99); p50 > p99 || p99 > s.Max {
		t.Errorf("quantiles disordered: p50=%g p99=%g max=%g", p50, p99, s.Max)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := &Histogram{}
	h.ObserveDuration(250 * time.Millisecond)
	if s := h.Snapshot(); math.Abs(s.Sum-0.25) > 1e-9 {
		t.Errorf("sum = %g, want 0.25", s.Sum)
	}
}

func TestSummaryContent(t *testing.T) {
	tel := New(nil)
	reg := tel.Registry()
	reg.Histogram("pipeline.total").Observe(0.010)
	reg.Counter("evaluator.cache.hit").Add(3)
	reg.Counter("evaluator.cache.miss").Add(1)
	reg.Gauge("anneal.temperature").Set(0.5)
	out := tel.Summary()
	for _, want := range []string{
		"pipeline.total", "evaluator.cache.hit", "anneal.temperature",
		"p95", "cache hit rate 75.0%", "pipeline evals",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	var nilTel *Telemetry
	if nilTel.Summary() != "" {
		t.Error("nil telemetry produced a summary")
	}
}
