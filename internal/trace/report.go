package trace

import (
	"fmt"
	"io"
	"sort"
)

// WriteReport renders a run summary as the human-readable per-stage
// report: identity, outcome, the stage latency table (p50/p95/p99,
// self vs cumulative share), effectiveness rates, simulation tallies,
// quarantines, and event counts.
func WriteReport(w io.Writer, s *Summary) {
	if s.Path != "" {
		fmt.Fprintf(w, "%s\n", s.Path)
	}
	if s.Command != "" || s.RunID != "" {
		fmt.Fprintf(w, "run %s  command %s  started %s\n", orDash(s.RunID), orDash(s.Command), orDash(s.Started))
	}
	if !s.HasManifest() {
		fmt.Fprintln(w, "no finalized run.manifest record: stage and effectiveness analysis unavailable")
		fmt.Fprintln(w, "(rerun the command with -manifest or -trace so the manifest lands in the stream)")
		writeEventCounts(w, s)
		return
	}
	fmt.Fprintf(w, "status %s  wall %.2fs  cpu %.2fs user + %.2fs sys\n\n",
		s.Status, s.WallSec, s.CPUUserSec, s.CPUSysSec)

	stages := s.Stages()
	if len(stages) > 0 {
		fmt.Fprintf(w, "%-11s %9s %9s %9s %9s %9s %6s %6s\n",
			"stage", "count", "p50", "p95", "p99", "total", "self%", "cum%")
		for _, st := range stages {
			fmt.Fprintf(w, "%-11s %9d %9s %9s %9s %9s %5.1f%% %5.1f%%\n",
				st.Name, st.Stats.Count,
				fmtLatency(st.Stats.P50), fmtLatency(st.Stats.P95), fmtLatency(st.Stats.P99),
				fmtLatency(st.Stats.Sum), 100*st.SelfFrac, 100*st.CumFrac)
		}
		if pipe, ok := s.Metrics.Histograms["pipeline.total"]; ok {
			fmt.Fprintf(w, "%-11s %9d %9s %9s %9s %9s\n",
				"pipeline", pipe.Count, fmtLatency(pipe.P50), fmtLatency(pipe.P95), fmtLatency(pipe.P99), fmtLatency(pipe.Sum))
		}
		fmt.Fprintln(w)
	}

	if eff := s.Effectiveness(); len(eff) > 0 {
		for _, r := range eff {
			fmt.Fprintf(w, "%-22s %6.1f%%  (%d of %d)\n", r.Name, 100*r.Frac, r.Hits, r.Total)
		}
		fmt.Fprintln(w)
	}
	if sim := s.SimTallies(); len(sim) > 0 {
		fmt.Fprint(w, "dynamic simulation:")
		for _, r := range sim {
			fmt.Fprintf(w, "  %s=%d", r.Name, r.Hits)
		}
		fmt.Fprintln(w)
	}
	if n := len(s.Quarantined); n > 0 {
		byStage := map[string]int{}
		for _, q := range s.Quarantined {
			byStage[q.Stage]++
		}
		fmt.Fprintf(w, "quarantined: %d", n)
		for _, stage := range sortedCountKeys(byStage) {
			fmt.Fprintf(w, "  %s=%d", stage, byStage[stage])
		}
		fmt.Fprintln(w)
	}
	writeEventCounts(w, s)
}

// writeEventCounts prints the stream's event histogram, busiest first.
func writeEventCounts(w io.Writer, s *Summary) {
	if len(s.Events) == 0 {
		return
	}
	fmt.Fprint(w, "events:")
	for _, name := range sortedCountKeys(s.Events) {
		fmt.Fprintf(w, "  %s=%d", orDash(name), s.Events[name])
	}
	fmt.Fprintln(w)
}

// sortedCountKeys orders a count map's keys by descending count, then
// name, for stable output.
func sortedCountKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// fmtLatency renders a duration in seconds with a unit that keeps three
// significant figures across the ns..s range the stages span.
func fmtLatency(sec float64) string {
	switch {
	case sec <= 0:
		return "0"
	case sec < 1e-6:
		return fmt.Sprintf("%.0fns", sec*1e9)
	case sec < 1e-3:
		return fmt.Sprintf("%.1fus", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.2fs", sec)
	}
}

// orDash substitutes "-" for an empty field in report output.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
