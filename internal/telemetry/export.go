package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// HistogramStats is the export-friendly summary of one timing
// histogram. Every float field is guaranteed finite (never NaN or Inf),
// so the struct marshals to valid JSON unconditionally.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// MetricsSnapshot is a point-in-time copy of a registry's metrics in a
// JSON-marshalable shape: the payload of /debug/vars, the metrics
// section of a run manifest, and the input of the `tesa trace` analyzer.
// All float values are finite.
type MetricsSnapshot struct {
	// UptimeSec is the registry's age when the snapshot was taken.
	UptimeSec  float64                   `json:"uptime_sec"`
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Export takes a consistent snapshot of every metric in the registry.
// A nil registry exports an empty snapshot.
func (r *Registry) Export() MetricsSnapshot {
	snap := MetricsSnapshot{}
	if r == nil {
		return snap
	}
	counters, gauges, hists := r.copyMaps()
	snap.UptimeSec = r.Elapsed().Seconds()
	if len(counters) > 0 {
		snap.Counters = make(map[string]int64, len(counters))
		for name, c := range counters {
			snap.Counters[name] = c.Value()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(gauges))
		for name, g := range gauges {
			snap.Gauges[name] = finiteOr0(g.Value())
		}
	}
	if len(hists) > 0 {
		snap.Histograms = make(map[string]HistogramStats, len(hists))
		for name, h := range hists {
			s := h.Snapshot()
			snap.Histograms[name] = HistogramStats{
				Count: s.Count,
				Sum:   finiteOr0(s.Sum),
				Min:   finiteOr0(s.Min),
				Max:   finiteOr0(s.Max),
				Mean:  s.Mean(),
				P50:   s.Quantile(0.50),
				P95:   s.Quantile(0.95),
				P99:   s.Quantile(0.99),
			}
		}
	}
	return snap
}

// copyMaps snapshots the metric handle maps under the registry lock so
// exporters iterate without racing concurrent metric creation.
func (r *Registry) copyMaps() (map[string]*Counter, map[string]*Gauge, map[string]*Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	return counters, gauges, hists
}

// promNamespace prefixes every exposed metric so TESA's series never
// collide with other exporters scraped by the same Prometheus.
const promNamespace = "tesa_"

// PromName converts an internal metric name ("stage.thermal",
// "thermal.solve.count") into a valid Prometheus metric name:
// the tesa_ namespace plus the name with every byte outside
// [a-zA-Z0-9_:] replaced by '_'. The namespace prefix also makes a
// leading digit legal. Deterministic, so the same internal name always
// exposes the same series.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(promNamespace) + len(name) + 1)
	b.WriteString(promNamespace)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float in Prometheus exposition syntax. Inputs are
// already finite (see MetricsSnapshot); the strconv shortest form keeps
// full float64 precision.
func promFloat(v float64) string {
	return strconv.FormatFloat(finiteOr0(v), 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as themselves,
// timing histograms as summaries with 0.5/0.95/0.99 quantiles plus
// _sum and _count series, and a tesa_uptime_seconds gauge. Metric
// families are emitted in sorted order so scrapes are diffable. A nil
// registry writes only the uptime gauge (value 0).
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Export()
	var b strings.Builder
	for _, name := range sortedKeys(snap.Counters) {
		pn := PromName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		pn := PromName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(snap.Gauges[name]))
	}
	for _, name := range sortedKeys(snap.Histograms) {
		pn := PromName(name)
		h := snap.Histograms[name]
		fmt.Fprintf(&b, "# TYPE %s summary\n", pn)
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %s\n", pn, promFloat(h.P50))
		fmt.Fprintf(&b, "%s{quantile=\"0.95\"} %s\n", pn, promFloat(h.P95))
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %s\n", pn, promFloat(h.P99))
		fmt.Fprintf(&b, "%s_sum %s\n", pn, promFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", pn, h.Count)
	}
	fmt.Fprintf(&b, "# TYPE %suptime_seconds gauge\n%suptime_seconds %s\n",
		promNamespace, promNamespace, promFloat(snap.UptimeSec))
	_, err := io.WriteString(w, b.String())
	return err
}

// sortedKeys returns the sorted keys of a map with string keys.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
