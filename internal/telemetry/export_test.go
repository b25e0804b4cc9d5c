package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestHistogramDropsNonFinite(t *testing.T) {
	h := &Histogram{}
	h.Observe(1)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(3)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2 (non-finite observations must be dropped)", s.Count)
	}
	if s.Sum != 4 {
		t.Fatalf("sum = %v, want 4", s.Sum)
	}
	if m := s.Mean(); m != 2 {
		t.Fatalf("mean = %v, want 2", m)
	}
}

func TestEmptySnapshotNeverNaN(t *testing.T) {
	var s HistogramSnapshot
	if m := s.Mean(); m != 0 || math.IsNaN(m) {
		t.Fatalf("empty Mean = %v, want 0", m)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1, math.NaN()} {
		if v := s.Quantile(q); v != 0 || math.IsNaN(v) {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, v)
		}
	}
}

func TestSummaryEmptyHistogramNoNaN(t *testing.T) {
	r := NewRegistry()
	r.Histogram("stage.empty") // registered but never observed
	r.Gauge("bad").Set(math.NaN())
	out := r.Summary()
	if strings.Contains(out, "NaN") {
		t.Fatalf("summary contains NaN:\n%s", out)
	}
}

func TestExportMarshalsToValidJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("evaluator.cache.hit").Add(7)
	r.Gauge("anneal.temp").Set(math.Inf(1)) // must be clamped, not break JSON
	r.Histogram("stage.thermal").Observe(0.25)
	r.Histogram("stage.empty")
	snap := r.Export()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("Export must always marshal: %v", err)
	}
	if strings.Contains(string(raw), "NaN") {
		t.Fatalf("exported JSON contains NaN: %s", raw)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Counters["evaluator.cache.hit"] != 7 {
		t.Fatalf("counter lost in round-trip: %+v", back.Counters)
	}
	if back.Gauges["anneal.temp"] != 0 {
		t.Fatalf("Inf gauge should export as 0, got %v", back.Gauges["anneal.temp"])
	}
	h := back.Histograms["stage.thermal"]
	if h.Count != 1 || h.Sum != 0.25 || h.P99 != 0.25 {
		t.Fatalf("histogram stats wrong: %+v", h)
	}
}

func TestExportNilRegistry(t *testing.T) {
	var r *Registry
	snap := r.Export()
	if snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Fatalf("nil registry must export empty snapshot: %+v", snap)
	}
}

func TestPromNameEscaping(t *testing.T) {
	cases := map[string]string{
		"stage.thermal":           "tesa_stage_thermal",
		"thermal.fidelity.full":   "tesa_thermal_fidelity_full",
		"evaluator.cache.hit":     "tesa_evaluator_cache_hit",
		"weird-name with spaces!": "tesa_weird_name_with_spaces_",
		"already_ok:subsystem":    "tesa_already_ok:subsystem",
		"0starts.with.digit":      "tesa_0starts_with_digit", // prefix makes leading digit legal
		"unicode\u00e9.metric":    "tesa_unicode___metric",   // é is 2 bytes, each escaped
		"":                        "tesa_",
		"UPPER.case":              "tesa_UPPER_case",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// promNameRe mirrors the Prometheus metric-name grammar.
func validPromName(s string) bool {
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("evaluator.cache.hit").Add(3)
	r.Counter("eval.quarantined").Inc()
	r.Gauge("sweep.done").Set(42)
	h := r.Histogram("pipeline.total")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// Every non-comment line must be "name[{labels}] value" with a valid
	// metric name and a parseable finite value.
	seenType := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			seenType[parts[2]] = parts[3]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced labels: %q", line)
			}
			name = name[:i]
		}
		if !validPromName(name) {
			t.Fatalf("invalid metric name %q in line %q", name, line)
		}
		if strings.ContainsAny(line[sp+1:], "NI") { // NaN / Inf
			t.Fatalf("non-finite sample value: %q", line)
		}
	}
	for name, typ := range map[string]string{
		"tesa_evaluator_cache_hit": "counter",
		"tesa_eval_quarantined":    "counter",
		"tesa_sweep_done":          "gauge",
		"tesa_pipeline_total":      "summary",
		"tesa_uptime_seconds":      "gauge",
	} {
		if seenType[name] != typ {
			t.Errorf("metric %s: TYPE = %q, want %q\n%s", name, seenType[name], typ, out)
		}
	}
	for _, want := range []string{
		"tesa_evaluator_cache_hit 3",
		"tesa_pipeline_total{quantile=\"0.5\"} 0.5",
		"tesa_pipeline_total_count 100",
		"tesa_pipeline_total_sum 50.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "tesa_uptime_seconds 0") {
		t.Fatalf("nil registry output: %q", b.String())
	}
}
