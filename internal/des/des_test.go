package des

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// recorder captures delivered events in order.
type recorder struct {
	got []Event
}

func (r *recorder) Handle(s *Simulator, e Event) { r.got = append(r.got, e) }

// TestHeapOrderingProperty pushes random (time, seq) events and checks
// they pop in (AtSec, Seq) order — the deterministic tie-break rule.
func TestHeapOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var q eventQueue
		n := 1 + rng.Intn(64)
		for i := 0; i < n; i++ {
			// Coarse times force plenty of ties.
			at := float64(rng.Intn(8))
			heap.Push(&q, Event{AtSec: at, Seq: uint64(i + 1)})
		}
		var prev Event
		for i := 0; q.Len() > 0; i++ {
			e := heap.Pop(&q).(Event)
			if i > 0 {
				if e.AtSec < prev.AtSec {
					t.Fatalf("trial %d: time order violated: %g after %g", trial, e.AtSec, prev.AtSec)
				}
				if e.AtSec == prev.AtSec && e.Seq < prev.Seq {
					t.Fatalf("trial %d: tie-break violated: seq %d after %d at t=%g", trial, e.Seq, prev.Seq, e.AtSec)
				}
			}
			prev = e
		}
	}
}

// TestSimulatorDelivery checks clock advance, horizon semantics, and
// tie-breaking through the public API.
func TestSimulatorDelivery(t *testing.T) {
	s := NewSimulator()
	r := &recorder{}
	s.Schedule(2, "b", r, nil)
	s.Schedule(2, "c", r, nil) // same instant, scheduled later
	s.Schedule(1, "a", r, nil)
	s.Schedule(9, "late", r, nil) // beyond horizon
	if err := s.Run(5); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var kinds []string
	for _, e := range r.got {
		kinds = append(kinds, e.Kind)
	}
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("delivery order %v, want %v", kinds, want)
	}
	if s.NowSec() != 5 {
		t.Fatalf("clock %g after Run(5)", s.NowSec())
	}
	if s.Processed() != 3 {
		t.Fatalf("processed %d, want 3", s.Processed())
	}
}

// TestScheduleGuards rejects bad delays and nil modules.
func TestScheduleGuards(t *testing.T) {
	for _, delay := range []float64{math.NaN(), math.Inf(1), -1} {
		s := NewSimulator()
		if err := s.Schedule(delay, "x", &recorder{}, nil); err == nil {
			t.Errorf("Schedule(%g) accepted", delay)
		}
		if err := s.Run(1); err == nil {
			t.Errorf("Run after Schedule(%g) did not surface the error", delay)
		}
	}
	s := NewSimulator()
	if err := s.Schedule(1, "x", nil, nil); err == nil {
		t.Error("Schedule to nil module accepted")
	}
}

// constStepper is an analytic thermal model for engine tests: the
// temperature is ambient plus gain times total power of the last step.
type constStepper struct {
	ambientC float64
	gain     float64
	steps    int
}

func (c *constStepper) Step(dtSec float64, power []ChipletPowerW) (float64, error) {
	if dtSec <= 0 {
		return 0, fmt.Errorf("bad dt %g", dtSec)
	}
	total := 0.0
	for _, p := range power {
		total += p.ArrayW + p.SRAMW
	}
	c.steps++
	return c.ambientC + c.gain*total, nil
}

func testScenario(seed int64) (Scenario, Platform) {
	sc := Scenario{
		Seed:         seed,
		DurationSec:  20,
		ThermalDtSec: 0.25,
		Tenants: []Tenant{
			{Name: "ar", Arrival: ArrivalSpec{Kind: ArrivalDiurnal, RateRPS: 6, PeriodSec: 10}, SLASec: 0.5},
			{Name: "vr", Arrival: ArrivalSpec{Kind: ArrivalMMPP, RateRPS: 2}, SLASec: 0.4},
		},
		Throttle: Throttle{TripC: 80},
	}
	pl := Platform{
		Chiplets:   2,
		Chiplet:    []int{0, 1},
		ServiceSec: []float64{0.08, 0.12},
		ArrayW:     []float64{9, 14},
		SRAMW:      []float64{3, 5},
	}
	return sc, pl
}

// TestEngineDeterminism runs the same seeded scenario twice and demands
// bit-identical event logs and envelopes (the CI sim smoke re-checks
// this end to end through tesa sim).
func TestEngineDeterminism(t *testing.T) {
	run := func() (*Result, []byte) {
		sc, pl := testScenario(42)
		var log bytes.Buffer
		res, err := Run(sc, pl, &constStepper{ambientC: 45, gain: 2.2}, &log)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res, log.Bytes()
	}
	r1, log1 := run()
	r2, log2 := run()
	if !bytes.Equal(log1, log2) {
		t.Fatal("event logs differ between identically-seeded runs")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("results differ between identically-seeded runs:\n%+v\n%+v", r1, r2)
	}
	if len(log1) == 0 {
		t.Fatal("empty event log")
	}
	if !reflect.DeepEqual(r1.Envelope.TimesSec, r2.Envelope.TimesSec) || !reflect.DeepEqual(r1.Envelope.PeakC, r2.Envelope.PeakC) {
		t.Fatal("envelopes differ between identically-seeded runs")
	}
	// Different seeds must actually change the trace.
	sc, pl := testScenario(43)
	r3, err := Run(sc, pl, &constStepper{ambientC: 45, gain: 2.2}, nil)
	if err != nil {
		t.Fatalf("Run seed 43: %v", err)
	}
	if r3.Requests == r1.Requests && reflect.DeepEqual(r3.Envelope.PeakC, r1.Envelope.PeakC) {
		t.Fatal("seed change did not alter the run")
	}
}

// TestEngineAccounting sanity-checks conservation laws of one run.
func TestEngineAccounting(t *testing.T) {
	sc, pl := testScenario(1)
	res, err := Run(sc, pl, &constStepper{ambientC: 45, gain: 2.2}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Requests != res.Completed+res.QueuedAtEnd {
		t.Fatalf("requests %d != completed %d + queued %d", res.Requests, res.Completed, res.QueuedAtEnd)
	}
	if res.Requests == 0 || res.Steps != 80 {
		t.Fatalf("requests=%d steps=%d (want >0 and 80 ticks over 20s at 0.25s)", res.Requests, res.Steps)
	}
	if len(res.Envelope.TimesSec) != res.Steps || len(res.Envelope.PeakC) != res.Steps {
		t.Fatalf("envelope length %d/%d, want %d", len(res.Envelope.TimesSec), len(res.Envelope.PeakC), res.Steps)
	}
	var completed, viol int64
	for _, ts := range res.Tenants {
		completed += ts.Completed
		viol += ts.SLAViolations
	}
	if completed != res.Completed {
		t.Fatalf("tenant completions %d != total %d", completed, res.Completed)
	}
	if viol > res.SLAViolations {
		t.Fatalf("tenant violations %d exceed total %d", viol, res.SLAViolations)
	}
	for c, u := range res.Utilization {
		if u < 0 || u > 1+1e-9 {
			t.Fatalf("chiplet %d utilization %g out of [0,1]", c, u)
		}
	}
	if res.PeakTempC <= 45 {
		t.Fatalf("peak temp %g never rose above ambient", res.PeakTempC)
	}
}

// TestEngineThrottles drives an overloaded burst scenario through a hot
// stepper and expects the governor to throttle and SLAs to blow.
func TestEngineThrottles(t *testing.T) {
	sc := Scenario{
		Seed:         7,
		DurationSec:  10,
		ThermalDtSec: 0.25,
		Tenants: []Tenant{{
			Name:    "burst",
			Arrival: ArrivalSpec{Kind: ArrivalMMPP, RateRPS: 4, BurstRPS: 40, MeanBurstSec: 2, MeanCalmSec: 1},
			SLASec:  0.2,
		}},
		Throttle: Throttle{TripC: 70},
	}
	pl := Platform{Chiplets: 1, Chiplet: []int{0}, ServiceSec: []float64{0.09}, ArrayW: []float64{20}, SRAMW: []float64{8}}
	res, err := Run(sc, pl, &constStepper{ambientC: 45, gain: 1.5}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ThrottleEvents == 0 || res.ThrottledSec == 0 {
		t.Fatalf("expected throttling, got %d events / %g s", res.ThrottleEvents, res.ThrottledSec)
	}
	if res.MinFreqFactor >= 1 {
		t.Fatalf("min freq factor %g never dropped", res.MinFreqFactor)
	}
	if res.SLAViolations == 0 {
		t.Fatal("overloaded burst scenario reported no SLA violations")
	}
}

// TestEngineStepperError propagates stepper failures as run errors.
func TestEngineStepperError(t *testing.T) {
	sc, pl := testScenario(3)
	bad := stepperFunc(func(float64, []ChipletPowerW) (float64, error) {
		return 0, fmt.Errorf("diverged")
	})
	if _, err := Run(sc, pl, bad, nil); err == nil {
		t.Fatal("stepper error not propagated")
	}
}

// stepperFunc adapts a function to ThermalStepper.
type stepperFunc func(float64, []ChipletPowerW) (float64, error)

func (f stepperFunc) Step(dt float64, p []ChipletPowerW) (float64, error) { return f(dt, p) }

// TestScenarioValidate covers the validation guards.
func TestScenarioValidate(t *testing.T) {
	sc, pl := testScenario(1)
	if err := sc.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := sc
	bad.DurationSec = math.NaN()
	if bad.Validate() == nil {
		t.Error("NaN duration accepted")
	}
	bad = sc
	bad.ThermalDtSec = 30
	if bad.Validate() == nil {
		t.Error("tick beyond horizon accepted")
	}
	bad = sc
	bad.Tenants = nil
	if bad.Validate() == nil {
		t.Error("tenantless scenario accepted")
	}
	bad = sc
	bad.Throttle.Levels = []float64{1, 1.2}
	if bad.Validate() == nil {
		t.Error("ascending throttle levels accepted")
	}
	badPl := pl
	badPl.Chiplet = []int{0, 5}
	if badPl.Validate(2) == nil {
		t.Error("out-of-range chiplet assignment accepted")
	}
	if (Platform{}).Validate(1) == nil {
		t.Error("empty platform accepted")
	}
}
