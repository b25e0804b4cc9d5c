package trace

import (
	"bytes"
	"strings"
	"testing"

	"tesa/internal/telemetry"
)

// synthesizeRun writes a realistic trace stream — start manifest, some
// events, end manifest with metrics — through the real telemetry
// writers, so the reader is tested against what production emits.
func synthesizeRun(t *testing.T, thermalSec, systolicSec float64, cacheHits int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	tel := telemetry.New(sink)
	reg := tel.Registry()
	for i := 0; i < 10; i++ {
		reg.Histogram("stage.thermal").Observe(thermalSec)
		reg.Histogram("stage.systolic").Observe(systolicSec)
		reg.Histogram("pipeline.total").Observe(thermalSec + systolicSec)
	}
	reg.Counter("evaluator.cache.hit").Add(cacheHits)
	reg.Counter("evaluator.cache.miss").Add(10)
	reg.Counter("start.screened").Add(1200)
	reg.Counter("start.thermal").Add(60)

	m := telemetry.NewManifest("tesa-test", []string{"-x"})
	tel.Emit(telemetry.ManifestEvent, m.Snapshot())
	tel.Emit("eval.quarantined", map[string]any{
		"stage": "thermal", "reason": "solver-diverged",
		"trace": []string{"+0s stage.systolic", "+1ms stage.thermal"},
	})
	tel.Emit(telemetry.ManifestEvent, m.Finalize(reg, "ok"))
	if err := tel.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadRoundTrip(t *testing.T) {
	data := synthesizeRun(t, 0.010, 0.001, 90)
	s, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasManifest() || s.Status != "ok" || s.Command != "tesa-test" {
		t.Fatalf("manifest not recovered: %+v", s)
	}
	if len(s.RunID) != 16 {
		t.Errorf("run id %q not recovered", s.RunID)
	}
	if s.Events[telemetry.ManifestEvent] != 2 || s.Events["eval.quarantined"] != 1 {
		t.Errorf("event counts %v", s.Events)
	}
	if len(s.Quarantined) != 1 || s.Quarantined[0].Stage != "thermal" || len(s.Quarantined[0].Trace) != 2 {
		t.Errorf("quarantine records %+v", s.Quarantined)
	}

	stages := s.Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %+v, want thermal+systolic", stages)
	}
	if stages[0].Name != "thermal" {
		t.Errorf("stage order: dominant stage is %q, want thermal", stages[0].Name)
	}
	if got := stages[0].Stats.P95; got != 0.010 {
		t.Errorf("thermal p95 = %v", got)
	}
	// thermal self share: 10*10ms of 10*11ms total stage time.
	if got := stages[0].SelfFrac; got < 0.89 || got > 0.93 {
		t.Errorf("thermal self fraction = %v, want ~0.909", got)
	}
	// And ~the same of the end-to-end pipeline time here.
	if got := stages[0].CumFrac; got < 0.89 || got > 0.93 {
		t.Errorf("thermal cumulative fraction = %v", got)
	}

	eff := map[string]Rate{}
	for _, r := range s.Effectiveness() {
		eff[r.Name] = r
	}
	if r := eff["evaluator cache"]; r.Total != 100 || r.Frac != 0.90 {
		t.Errorf("cache rate %+v", r)
	}
	if r := eff["start screening"]; r.Hits != 1140 || r.Total != 1200 || r.Frac != 0.95 {
		t.Errorf("start screening rate %+v", r)
	}
	if _, ok := eff["memo store"]; ok {
		t.Error("memo rate reported with no memo counters")
	}
}

// TestReadSimRun: a tesa-sim style stream — sim.* spans and counters —
// surfaces in Stages under full "sim." names and in SimTallies, and the
// report prints the dynamic-simulation line.
func TestReadSimRun(t *testing.T) {
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	tel := telemetry.New(sink)
	reg := tel.Registry()
	reg.Histogram("stage.thermal").Observe(0.004)
	reg.Histogram("pipeline.total").Observe(0.004)
	reg.Histogram("sim.run").Observe(0.120)
	reg.Histogram("sim.distribution").Observe(0.360)
	reg.Counter("sim.requests").Add(135)
	reg.Counter("sim.sla_violations").Add(7)
	reg.Counter("sim.throttle_events").Add(2)
	reg.Counter("sim.steps").Add(40)
	m := telemetry.NewManifest("tesa-sim", nil)
	tel.Emit(telemetry.ManifestEvent, m.Snapshot())
	tel.Emit("sim.completed", map[string]any{"requests": 135})
	tel.Emit(telemetry.ManifestEvent, m.Finalize(reg, "ok"))
	if err := tel.Flush(); err != nil {
		t.Fatal(err)
	}

	s, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	stages := s.Stages()
	names := map[string]bool{}
	for _, st := range stages {
		names[st.Name] = true
	}
	if !names["sim.run"] || !names["sim.distribution"] || !names["thermal"] {
		t.Fatalf("stages missed sim spans: %+v", stages)
	}
	if stages[0].Name != "sim.distribution" {
		t.Errorf("dominant span is %q, want sim.distribution", stages[0].Name)
	}
	// Sim spans report against their own summed span time (0.48 s
	// total), never against pipeline.total — a share of the evaluation
	// pipeline would exceed 100% and mean nothing.
	for _, st := range stages {
		switch st.Name {
		case "sim.run":
			if st.CumFrac < 0.249 || st.CumFrac > 0.251 {
				t.Errorf("sim.run CumFrac = %v, want 0.25 of the sim total", st.CumFrac)
			}
		case "sim.distribution":
			if st.CumFrac < 0.749 || st.CumFrac > 0.751 {
				t.Errorf("sim.distribution CumFrac = %v, want 0.75 of the sim total", st.CumFrac)
			}
		case "thermal":
			if st.CumFrac != 1 {
				t.Errorf("thermal CumFrac = %v, want 1", st.CumFrac)
			}
		}
	}

	sim := map[string]int64{}
	for _, r := range s.SimTallies() {
		sim[r.Name] = r.Hits
	}
	if sim["requests"] != 135 || sim["sla_violations"] != 7 || sim["throttle_events"] != 2 {
		t.Errorf("sim tallies %v", sim)
	}
	if s.Events["sim.completed"] != 1 {
		t.Errorf("sim.completed event not counted: %v", s.Events)
	}

	var out bytes.Buffer
	WriteReport(&out, s)
	if !strings.Contains(out.String(), "dynamic simulation:") ||
		!strings.Contains(out.String(), "requests=135") {
		t.Errorf("report missing the dynamic-simulation line:\n%s", out.String())
	}
}

func TestReadToleratesTornTail(t *testing.T) {
	data := synthesizeRun(t, 0.010, 0.001, 90)
	torn := append(bytes.TrimRight(data, "\n"), []byte("\n{\"event\":\"run.man")...)
	s, err := Read(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if s.Status != "ok" {
		t.Error("records before the torn tail were lost")
	}
	// But garbage mid-stream is an error.
	bad := append([]byte("{\"event\":\"x\"\n"), data...)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("mid-stream corruption accepted")
	}
}

func TestReadNoManifest(t *testing.T) {
	s, err := Read(strings.NewReader(`{"event":"anneal.level","temp":1.5}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.HasManifest() {
		t.Error("manifest reported for a stream without one")
	}
	if len(s.Stages()) != 0 || len(s.Effectiveness()) != 0 {
		t.Error("analysis fabricated without a manifest")
	}
	var out bytes.Buffer
	WriteReport(&out, s) // must not panic, must mention the gap
	if !strings.Contains(out.String(), "no finalized run.manifest") {
		t.Errorf("report did not flag the missing manifest:\n%s", out.String())
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	before, err := Read(bytes.NewReader(synthesizeRun(t, 0.010, 0.001, 90)))
	if err != nil {
		t.Fatal(err)
	}
	// Thermal 2x slower, systolic unchanged, cache rate collapses.
	after, err := Read(bytes.NewReader(synthesizeRun(t, 0.020, 0.001, 5)))
	if err != nil {
		t.Fatal(err)
	}
	d := Compare(before, after, 0.10)
	byName := map[string]StageDelta{}
	for _, sd := range d.Stages {
		byName[sd.Name] = sd
	}
	th := byName["thermal"]
	if !th.Regression || th.P95Delta < 0.9 || th.P95Delta > 1.1 {
		t.Errorf("thermal delta %+v, want ~+100%% regression", th)
	}
	if sy := byName["systolic"]; sy.Regression || sy.Improvement {
		t.Errorf("systolic flagged with no change: %+v", sy)
	}
	var cache RateDelta
	for _, rd := range d.Rates {
		if rd.Name == "evaluator cache" {
			cache = rd
		}
	}
	// 90/100 → 5/15 hit rate: far below any threshold.
	if !cache.Regression {
		t.Errorf("cache-rate collapse not flagged: %+v", cache)
	}
	if d.Regressions < 2 {
		t.Errorf("Regressions = %d, want thermal + cache", d.Regressions)
	}

	var out bytes.Buffer
	WriteDiff(&out, d)
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("diff output missing REGRESSION flag:\n%s", out.String())
	}

	// The reverse comparison is an improvement, not a regression.
	rev := Compare(after, before, 0.10)
	revByName := map[string]StageDelta{}
	for _, sd := range rev.Stages {
		revByName[sd.Name] = sd
	}
	if th := revByName["thermal"]; th.Regression || !th.Improvement {
		t.Errorf("reverse thermal delta %+v, want improvement", th)
	}
}

func TestCompareStageOnlyInOneRun(t *testing.T) {
	before, _ := Read(bytes.NewReader(synthesizeRun(t, 0.010, 0.001, 90)))
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	tel := telemetry.New(sink)
	tel.Registry().Histogram("stage.thermal").Observe(0.010)
	tel.Registry().Histogram("stage.dram").Observe(0.002)
	m := telemetry.NewManifest("tesa-test", nil)
	tel.Emit(telemetry.ManifestEvent, m.Finalize(tel.Registry(), "ok"))
	if err := tel.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d := Compare(before, after, 0.10)
	got := map[string]string{}
	for _, sd := range d.Stages {
		got[sd.Name] = sd.OnlyIn
	}
	if got["dram"] != "after" || got["systolic"] != "before" || got["thermal"] != "" {
		t.Errorf("OnlyIn classification %v", got)
	}
	for _, sd := range d.Stages {
		if sd.Name == "dram" && !sd.Regression {
			t.Error("new-in-B stage not flagged as regression")
		}
	}
}

func TestRelDeltaGuards(t *testing.T) {
	if got := relDelta(0, 5); got != 0 {
		t.Errorf("relDelta(0,5) = %v, want 0 (no baseline signal)", got)
	}
	if got := relDelta(2, 3); got != 0.5 {
		t.Errorf("relDelta(2,3) = %v", got)
	}
}
