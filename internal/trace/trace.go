// Package trace analyzes the JSONL streams the tesa commands emit —
// event traces and run manifests — into per-run
// summaries, human-readable per-stage latency reports, and A/B diffs
// between two runs. It is the reading half of internal/telemetry: what
// the Manifest and the sinks write, this package loads back.
//
// The unit of analysis is the run: one "run.manifest" start/end record
// pair plus whatever trace events landed in the same stream. The end
// manifest carries the run's final metrics snapshot (counters and
// histogram percentiles), which is where the per-stage latency
// breakdowns and the cache/memo effectiveness rates come from; the raw
// events only contribute occurrence counts.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tesa/internal/telemetry"
)

// Summary is everything the analyzer extracts from one run's JSONL
// stream(s): identity from the start manifest, outcome and final
// metrics from the end manifest, and event counts from the trace.
type Summary struct {
	// Path is the file the summary was loaded from ("" for readers).
	Path string
	// RunID, Command, and Started identify the run (from the manifest;
	// empty when the stream carried none).
	RunID   string
	Command string
	Started string
	// Status is the end manifest's exit status ("" when the run never
	// finalized — a crash, or a stream with only a start record).
	Status string
	// WallSec, CPUUserSec and CPUSysSec are the end manifest's timings.
	WallSec    float64
	CPUUserSec float64
	CPUSysSec  float64
	// Metrics is the final metrics snapshot from the end manifest.
	Metrics telemetry.MetricsSnapshot
	// Events counts every event name seen in the stream.
	Events map[string]int
	// Quarantined lists the "eval.quarantined" records (stage plus
	// reason per failed point), preserving stream order.
	Quarantined []QuarantineRecord
}

// QuarantineRecord is one quarantined evaluation as recorded in a
// trace stream.
type QuarantineRecord struct {
	Stage  string
	Reason string
	// Trace is the flight-recorder dump, when the record carried one.
	Trace []string
}

// HasManifest reports whether the stream carried a finalized manifest —
// the precondition for latency and effectiveness analysis.
func (s *Summary) HasManifest() bool { return s.Status != "" }

// Load reads and summarizes one JSONL file.
func Load(path string) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.Path = path
	return s, nil
}

// Read summarizes a JSONL stream. Unknown events are counted but
// otherwise ignored, and a torn final line (the tail of a killed run)
// is tolerated; any other malformed line is an error.
func Read(r io.Reader) (*Summary, error) {
	s := &Summary{Events: map[string]int{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var badLine error
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(strings.TrimSpace(string(raw))) == 0 {
			continue
		}
		if badLine != nil {
			return nil, badLine // garbage followed by more records
		}
		var rec map[string]any
		if err := json.Unmarshal(raw, &rec); err != nil {
			badLine = fmt.Errorf("line %d: %v", line, err)
			continue
		}
		event, _ := rec["event"].(string)
		s.Events[event]++
		switch event {
		case telemetry.ManifestEvent:
			s.mergeManifest(rec)
		case "eval.quarantined":
			q := QuarantineRecord{}
			q.Stage, _ = rec["stage"].(string)
			q.Reason, _ = rec["reason"].(string)
			if arr, ok := rec["trace"].([]any); ok {
				for _, v := range arr {
					if str, ok := v.(string); ok {
						q.Trace = append(q.Trace, str)
					}
				}
			}
			s.Quarantined = append(s.Quarantined, q)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// mergeManifest folds one run.manifest record into the summary: the
// start record contributes identity, the end record outcome and
// metrics. Later records win, so a stream with several runs appended
// (two runs sharing one -manifest file) reports the last one.
func (s *Summary) mergeManifest(rec map[string]any) {
	if v, ok := rec["run"].(string); ok && v != "" {
		s.RunID = v
	}
	if v, ok := rec["command"].(string); ok && v != "" {
		s.Command = v
	}
	if v, ok := rec["started"].(string); ok && v != "" {
		s.Started = v
	}
	phase, _ := rec["phase"].(string)
	if phase != "end" {
		return
	}
	s.Status, _ = rec["status"].(string)
	s.WallSec, _ = rec["wall_sec"].(float64)
	s.CPUUserSec, _ = rec["cpu_user_sec"].(float64)
	s.CPUSysSec, _ = rec["cpu_sys_sec"].(float64)
	if m, ok := rec["metrics"]; ok {
		// Round-trip through JSON: the snapshot arrived as a generic
		// map, and MetricsSnapshot's tags define the schema.
		if raw, err := json.Marshal(m); err == nil {
			var snap telemetry.MetricsSnapshot
			if json.Unmarshal(raw, &snap) == nil {
				s.Metrics = snap
			}
		}
	}
}

// StageStats is one pipeline stage's latency contribution within a run.
type StageStats struct {
	// Name is the stage ("systolic", "thermal", ...) without the
	// "stage." metric prefix. Simulation spans keep their full "sim."
	// name ("sim.run", "sim.distribution") so dynamic-workload time is
	// distinguishable from the evaluation pipeline's stages.
	Name string
	// Stats is the stage's latency histogram (seconds).
	Stats telemetry.HistogramStats
	// SelfFrac is the stage's share of the summed self time of all
	// stages; CumFrac is its share of the end-to-end total its stage
	// family belongs to (they differ when stages overlap cached
	// evaluations, or when the total was never observed — CumFrac is
	// then 0). Evaluation stages report against pipeline.total;
	// simulation spans run outside the evaluation pipeline, so they
	// report against the summed "sim." span time instead — each family
	// sums to at most 1 against its own total.
	SelfFrac float64
	CumFrac  float64
}

// stagePrefix is the metric namespace of the per-stage histograms;
// simPrefix is the namespace of the dynamic-workload simulation spans
// (sim.run, sim.distribution) emitted by tesa sim and sim jobs.
const (
	stagePrefix = "stage."
	simPrefix   = "sim."
)

// Stages extracts the per-stage latency breakdown from the summary's
// final metrics, ordered by descending self time. Simulation spans are
// included under their full "sim." names; their counters (requests,
// throttle events) are a separate axis — see SimTallies.
func (s *Summary) Stages() []StageStats {
	var out []StageStats
	var selfSum, simSum float64
	for name, h := range s.Metrics.Histograms {
		switch {
		case strings.HasPrefix(name, stagePrefix):
			out = append(out, StageStats{Name: strings.TrimPrefix(name, stagePrefix), Stats: h})
		case strings.HasPrefix(name, simPrefix):
			out = append(out, StageStats{Name: name, Stats: h})
			simSum += h.Sum
		default:
			continue
		}
		selfSum += h.Sum
	}
	pipeSum := s.Metrics.Histograms["pipeline.total"].Sum
	for i := range out {
		if selfSum > 0 {
			out[i].SelfFrac = out[i].Stats.Sum / selfSum
		}
		// Sim spans are not part of the evaluation pipeline — a share of
		// pipeline.total would exceed 100% and mean nothing — so they
		// report against their own family's summed span time.
		if strings.HasPrefix(out[i].Name, simPrefix) {
			if simSum > 0 {
				out[i].CumFrac = out[i].Stats.Sum / simSum
			}
		} else if pipeSum > 0 {
			out[i].CumFrac = out[i].Stats.Sum / pipeSum
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stats.Sum != out[j].Stats.Sum {
			return out[i].Stats.Sum > out[j].Stats.Sum
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Rate is a hit/total effectiveness ratio extracted from counters.
type Rate struct {
	Name  string
	Hits  int64
	Total int64
	// Frac is Hits/Total, 0 when nothing was counted.
	Frac float64
}

// rate builds a Rate from hit and miss counter values.
func rate(name string, hits, misses int64) Rate {
	r := Rate{Name: name, Hits: hits, Total: hits + misses}
	if r.Total > 0 {
		r.Frac = float64(r.Hits) / float64(r.Total)
	}
	return r
}

// Effectiveness summarizes the caching counters of a run: evaluator
// cache, start screening (a "hit" is a start-sampling draw that never
// needed a full evaluation, a "miss" one that did), thermal memo (a
// "hit" is a DSE thermal stage served by a record that another
// constraint set, weight setting, job or process solved), and
// cross-point memo (aggregated over result kinds, thermal included).
func (s *Summary) Effectiveness() []Rate {
	c := s.Metrics.Counters
	var memoHit, memoMiss int64
	for name, v := range c {
		if strings.HasPrefix(name, "memo.hit.") {
			memoHit += v
		}
		if strings.HasPrefix(name, "memo.miss.") {
			memoMiss += v
		}
	}
	rates := []Rate{
		rate("evaluator cache", c["evaluator.cache.hit"], c["evaluator.cache.miss"]),
		rate("start screening", c["start.screened"]-c["start.thermal"], c["start.thermal"]),
		rate("thermal memo", c["memo.hit.thermal"], c["memo.miss.thermal"]),
		rate("memo store", memoHit, memoMiss),
	}
	out := rates[:0]
	for _, r := range rates {
		if r.Total > 0 {
			out = append(out, r)
		}
	}
	return out
}

// SimTallies returns the dynamic-workload simulation counters
// (sim.requests, sim.sla_violations, sim.throttle_events, sim.steps,
// and any per-reason sim failure counters), sorted by descending count
// then name. Empty for runs that never simulated.
func (s *Summary) SimTallies() []Rate {
	var out []Rate
	for name, v := range s.Metrics.Counters {
		if rest, ok := strings.CutPrefix(name, simPrefix); ok {
			out = append(out, Rate{Name: rest, Hits: v, Total: v, Frac: 1})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].Name < out[j].Name
	})
	return out
}
