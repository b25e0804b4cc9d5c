package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"tesa/internal/des"
	"tesa/internal/faults"
	"tesa/internal/thermal"
)

// simTestEvaluation evaluates the paper's 2-D winning point fully, the
// structure-bearing evaluation scenarios run against.
func simTestEvaluation(t *testing.T) (*Evaluator, *Evaluation) {
	t.Helper()
	return simTestEvaluationTech(t, Tech2D)
}

// simTestEvaluationTech is simTestEvaluation in either technology.
func simTestEvaluationTech(t *testing.T, tech Tech) (*Evaluator, *Evaluation) {
	t.Helper()
	e := testEvaluator(t, tech, 400, 15, 75)
	ev, err := e.EvaluateFullContext(context.Background(), DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible {
		t.Fatalf("anchor point infeasible: %v", ev.Violations)
	}
	return e, ev
}

// diurnalScenario is a gentle 2-tenant mix for determinism checks.
func diurnalScenario(seed int64) des.Scenario {
	return des.Scenario{
		Seed:         seed,
		DurationSec:  2,
		ThermalDtSec: 0.1,
		Tenants: []des.Tenant{
			{Name: "ar", Network: "MobileNet", Arrival: des.ArrivalSpec{Kind: des.ArrivalDiurnal, RateRPS: 10, PeriodSec: 1}, SLASec: 0.1},
			{Name: "vr", Network: "ResNet-50", Arrival: des.ArrivalSpec{Kind: des.ArrivalPoisson, RateRPS: 5}, SLASec: 0.1},
		},
		Throttle: des.Throttle{TripC: 85},
	}
}

// TestSimulateDeterminism: two identically-seeded runs through the full
// core coupling (leakage + rasterization + transient CG) produce
// bit-identical event logs and envelopes.
func TestSimulateDeterminism(t *testing.T) {
	e, ev := simTestEvaluation(t)
	run := func() (*des.Result, []byte) {
		var log bytes.Buffer
		res, err := e.Simulate(context.Background(), ev, diurnalScenario(42), &log)
		if err != nil {
			t.Fatal(err)
		}
		return res, log.Bytes()
	}
	r1, log1 := run()
	r2, log2 := run()
	if !bytes.Equal(log1, log2) {
		t.Fatal("event logs differ between identically-seeded runs")
	}
	if !reflect.DeepEqual(r1.Envelope, r2.Envelope) {
		t.Fatal("temperature envelopes differ between identically-seeded runs")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("results differ between identically-seeded runs")
	}
	if r1.Steps != 20 || r1.Requests == 0 {
		t.Fatalf("steps=%d requests=%d, want 20 ticks and traffic", r1.Steps, r1.Requests)
	}
	if r1.PeakTempC <= e.Models.Materials.AmbientC {
		t.Fatalf("peak %g C never rose above ambient", r1.PeakTempC)
	}
}

// TestSimulateBurstFlagsWhatStaticMisses is the issue's acceptance
// scenario: the statically-feasible anchor point, hit with a burst
// trace whose burst-state rate exceeds the chiplet's service capacity,
// must report SLA violations (and/or throttling) that the steady-state
// evaluation cannot see.
func TestSimulateBurstFlagsWhatStaticMisses(t *testing.T) {
	e, ev := simTestEvaluation(t)
	if len(ev.Violations) != 0 {
		t.Fatalf("static evaluation already flags %v", ev.Violations)
	}
	// Derive the tenant's service time so the burst provably overloads:
	// burst rate = 3x the service rate.
	probe := des.Scenario{
		Seed: 1, DurationSec: 1, ThermalDtSec: 1,
		Tenants: []des.Tenant{{Name: "x", Network: "U-Net", Arrival: des.ArrivalSpec{Kind: des.ArrivalPoisson, RateRPS: 1}, SLASec: 1}},
	}
	pl, err := e.platformFor(ev, probe)
	if err != nil {
		t.Fatal(err)
	}
	svc := pl.ServiceSec[0]
	sc := des.Scenario{
		Seed:         7,
		DurationSec:  4,
		ThermalDtSec: 0.2,
		Tenants: []des.Tenant{{
			Name: "burst", Network: "U-Net",
			Arrival: des.ArrivalSpec{
				Kind: des.ArrivalMMPP, RateRPS: 0.2 / svc, BurstRPS: 3 / svc,
				MeanBurstSec: 1.5, MeanCalmSec: 0.5,
			},
			SLASec: 2 * svc,
		}},
		Throttle: des.Throttle{TripC: e.Cons.TempBudgetC},
	}
	res, err := e.Simulate(context.Background(), ev, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLAViolations == 0 && res.ThrottleEvents == 0 {
		t.Fatalf("burst run flagged nothing dynamic: %+v", res)
	}
	if res.SLAViolations == 0 {
		t.Fatal("overloaded burst produced no SLA violations")
	}
}

// TestSimulateDistribution: the N-draw score is deterministic under a
// fixed base seed and feeds a combined objective that separates designs
// by dynamic behavior.
func TestSimulateDistribution(t *testing.T) {
	e, ev := simTestEvaluation(t)
	sc := diurnalScenario(9)
	_, s1, err := e.SimulateDistribution(context.Background(), ev, sc, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := e.SimulateDistribution(context.Background(), ev, sc, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("distribution scores differ:\n%+v\n%+v", s1, s2)
	}
	if s1.Draws != 3 || s1.MeanPeakC <= 0 || s1.MaxPeakC < s1.MeanPeakC-1e-9 {
		t.Fatalf("implausible score %+v", s1)
	}
	if got := s1.CombinedObjective(2); got < 2 {
		t.Fatalf("combined objective %g below static 2", got)
	}
	if s1.DynamicPenalty() > 0 && s1.CombinedObjective(2) == 2 {
		t.Fatal("nonzero penalty did not move the combined objective")
	}
}

// TestSimulateGuards: structural and spec preconditions.
func TestSimulateGuards(t *testing.T) {
	e, ev := simTestEvaluation(t)
	ctx := context.Background()
	if _, err := e.Simulate(ctx, nil, diurnalScenario(1), nil); err == nil {
		t.Error("nil evaluation accepted")
	}
	hollow := &Evaluation{Point: ev.Point}
	if _, err := e.Simulate(ctx, hollow, diurnalScenario(1), nil); err == nil {
		t.Error("structureless evaluation accepted")
	}
	bad := diurnalScenario(1)
	bad.Tenants[0].Network = "NoSuchNet"
	if _, err := e.Simulate(ctx, ev, bad, nil); err == nil {
		t.Error("unknown network accepted")
	}
	none := diurnalScenario(1)
	none.Tenants = nil
	if _, err := e.Simulate(ctx, ev, none, nil); err == nil {
		t.Error("tenantless scenario accepted")
	}
	if _, _, err := e.SimulateDistribution(ctx, ev, diurnalScenario(1), 0, 0, nil); err == nil {
		t.Error("zero draws accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.Simulate(cancelled, ev, diurnalScenario(1), nil); err == nil {
		t.Error("cancelled context not honored")
	}
}

// sequentialDistribution is the reference SimulateDistribution is held
// to: each draw an independent Simulate call on an operator of its own,
// one after another, with draw 0's event log, folded in draw order.
func sequentialDistribution(t *testing.T, e *Evaluator, ev *Evaluation, sc des.Scenario, draws int) ([]*des.Result, *SimScore, []byte) {
	t.Helper()
	var log bytes.Buffer
	results := make([]*des.Result, draws)
	score := &SimScore{Draws: draws}
	for i := 0; i < draws; i++ {
		draw := sc
		draw.Seed = sc.Seed + int64(i)*simSeedStride
		var w io.Writer
		if i == 0 {
			w = &log
		}
		res, err := e.Simulate(context.Background(), ev, draw, w)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
		rate := res.SLARate()
		score.MeanSLARate += rate / float64(draws)
		if rate > score.MaxSLARate {
			score.MaxSLARate = rate
		}
		score.MeanThrottledFrac += res.ThrottledSec / res.DurationSec / float64(draws)
		score.ThrottleEvents += res.ThrottleEvents
		score.MeanPeakC += res.PeakTempC / float64(draws)
		if res.PeakTempC > score.MaxPeakC {
			score.MaxPeakC = res.PeakTempC
		}
		for _, ts := range res.Tenants {
			if ts.P99Sec > score.WorstP99Sec {
				score.WorstP99Sec = ts.P99Sec
			}
		}
	}
	return results, score, log.Bytes()
}

// TestSimulateDistributionMatchesSequential: the draws run concurrently
// on one shared operator reproduce independent sequential Simulate calls
// bit for bit: every draw's result, draw 0's event log, the base run
// (draw 0) and the score, at GOMAXPROCS workers and at one worker per
// draw. Run it under -race with -cpu 1,2,4.
func TestSimulateDistributionMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, tech := range []Tech{Tech2D, Tech3D} {
		e, ev := simTestEvaluationTech(t, tech)
		sc := diurnalScenario(5)
		sc.DurationSec = 1
		sc.Throttle.TripC = 46.5 // below the base run's peak, so it throttles
		for _, draws := range []int{1, 3, 4, 7} {
			t.Run(fmt.Sprintf("%v/draws%d", tech, draws), func(t *testing.T) {
				want, wantScore, wantLog := sequentialDistribution(t, e, ev, sc, draws)
				var log bytes.Buffer
				got, err := e.simulateDraws(ctx, ev, sc, draws, 0, &log)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("draw %d differs from its sequential run:\n%+v\n%+v", i, got[i], want[i])
					}
				}
				if !bytes.Equal(log.Bytes(), wantLog) {
					t.Error("draw 0's event log differs from the sequential base run's")
				}
				log.Reset()
				base, score, err := e.SimulateDistribution(ctx, ev, sc, draws, draws, &log)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base, want[0]) {
					t.Errorf("base run differs from draw 0:\n%+v\n%+v", base, want[0])
				}
				if !reflect.DeepEqual(score, wantScore) {
					t.Errorf("score differs from the sequential fold:\n%+v\n%+v", score, wantScore)
				}
				if !bytes.Equal(log.Bytes(), wantLog) {
					t.Error("SimulateDistribution's event log differs from the sequential base run's")
				}
				if want[0].ThrottleEvents == 0 {
					t.Errorf("the base run never throttled (peak %g C)", want[0].PeakTempC)
				}
			})
		}
	}
}

// TestSimulateDistributionFaults: a draw that panics fails the call with
// an EvalError at stage sim wrapping ErrStagePanic, whichever goroutine
// ran it, and the process survives; an injected error returns draw 0's,
// the lowest-index failing draw.
func TestSimulateDistributionFaults(t *testing.T) {
	for _, draws := range []int{1, 4} {
		for _, c := range []struct {
			spec string
			want error
		}{{"panic@sim", ErrStagePanic}, {"error@sim", faults.ErrInjected}} {
			t.Run(fmt.Sprintf("%s/draws%d", c.spec, draws), func(t *testing.T) {
				e := testEvaluator(t, Tech2D, 400, 15, 75)
				plan, err := faults.Parse(c.spec)
				if err != nil {
					t.Fatal(err)
				}
				e.InjectFaults(plan)
				ev, err := e.EvaluateFullContext(context.Background(), DesignPoint{ArrayDim: 200, ICSUM: 1700})
				if err != nil {
					t.Fatal(err)
				}
				_, _, err = e.SimulateDistribution(context.Background(), ev, diurnalScenario(3), draws, 0, nil)
				var ee *EvalError
				if !errors.As(err, &ee) || ee.Stage != stageSim || !errors.Is(err, c.want) {
					t.Fatalf("got %v, want an EvalError at stage sim wrapping %v", err, c.want)
				}
				if !strings.Contains(err.Error(), "scenario draw 0 (seed 3)") {
					t.Errorf("error %q is not draw 0's", err)
				}
			})
		}
	}
}

// TestTransientStepZeroAlloc: the sim stepper's tick (leakage,
// rasterization, transient step, per-chiplet peaks) allocates nothing
// after the first, on the first stepper and on a fork, in both
// technologies.
func TestTransientStepZeroAlloc(t *testing.T) {
	for _, tech := range []Tech{Tech2D, Tech3D} {
		e, ev := simTestEvaluationTech(t, tech)
		first, err := e.newSimStepper(ev, 0.1, thermal.NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		power := make([]des.ChipletPowerW, ev.Mesh.Count())
		for c := range power {
			power[c] = des.ChipletPowerW{ArrayW: 1.5, SRAMW: 0.4}
		}
		for name, s := range map[string]*simStepper{"first": first, "fork": first.fork()} {
			step := func() {
				if _, err := s.Step(0.1, power); err != nil {
					t.Fatal(err)
				}
			}
			step()
			if allocs := testing.AllocsPerRun(10, step); allocs > 0 {
				t.Errorf("%v %s: a sim step allocated %.0f times, want 0", tech, name, allocs)
			}
		}
	}
}
