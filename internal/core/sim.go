package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"tesa/internal/des"
	"tesa/internal/floorplan"
	"tesa/internal/sram"
	"tesa/internal/systolic"
	"tesa/internal/thermal"
)

// stageSim is the pipeline-stage name of the dynamic-scenario
// co-simulation (EvalError.Stage, and — prefixed "sim." — the telemetry
// span names, which `tesa trace` folds into its stage table next to the
// "stage." spans).
const stageSim = "sim"

// simSeedStride separates the per-draw seeds of SimulateDistribution:
// draw i runs at Scenario.Seed + i*simSeedStride, a fixed, documented
// derivation so a distribution evaluation is as reproducible as a
// single run.
const simSeedStride = 0x9E3779B9

// simStepper adapts the transient thermal solver to des.ThermalStepper:
// each scenario tick it adds temperature-dependent leakage (evaluated
// at the previous step's per-chiplet peaks, the transient analogue of
// the steady-state fixed point) to the DES-supplied dynamic power,
// rasterizes the result onto the thermal grid, and advances one
// implicit-Euler step.
type simStepper struct {
	e          *Evaluator
	stk        *thermal.Stack
	ts         *thermal.TransientStepper
	place      *floorplan.Placement
	powerPlace *floorplan.Placement
	domainMM   float64
	grid       int
	est        sram.Estimate
	numPEs     int
	arrayFrac  float64
	threeD     bool
	tArr, tSrm []float64 // per-chiplet temps driving the leakage model
	leakW      float64   // leakage of the most recent step
}

// newSimStepper rebuilds the evaluation's thermal geometry (the same
// margin-extended domain as thermalAnalysis) with all-zero power maps
// and primes a TransientStepper on it in ws, starting from ambient.
func (e *Evaluator) newSimStepper(ev *Evaluation, dtSec float64, ws *thermal.Workspace) (*simStepper, error) {
	threeD := e.Opts.Tech == Tech3D
	arr := systolic.Array{
		Rows: ev.Point.ArrayDim, Cols: ev.Point.ArrayDim,
		Dataflow:  e.Opts.Dataflow,
		SRAMBytes: int64(ev.Point.SRAMKB()) * 1024,
	}
	bundle, err := e.profilesFor(arr, threeD)
	if err != nil {
		return nil, err
	}
	domainMM := e.Cons.InterposerMM + 2*packageMarginMM
	place, err := floorplan.Place(domainMM, ev.Placement.WidthMM, ev.Placement.HeightMM, ev.Placement.ICSmm, ev.Placement.Mesh)
	if err != nil {
		return nil, err
	}
	grid := e.Opts.Grid
	coverage := place.Coverage(grid)
	cell := domainMM * 1e-3 / float64(grid)
	zero := make([]float64, grid*grid)
	var stk *thermal.Stack
	if threeD {
		stk, err = thermal.BuildStack3D(grid, cell, coverage, zero, zero, ev.Chiplet.TSVCopperFraction, e.Models.Materials)
	} else {
		stk, err = thermal.BuildStack2D(grid, cell, coverage, zero, e.Models.Materials)
	}
	if err != nil {
		return nil, err
	}
	ts, err := stk.NewTransientStepper(dtSec, ws)
	if err != nil {
		return nil, err
	}
	n := ev.Mesh.Count()
	arrayFrac := ev.Chiplet.ArrayMM2 / ev.Chiplet.FootprintMM2
	if arrayFrac > 1 {
		arrayFrac = 1
	}
	ambient := e.Models.Materials.AmbientC
	return &simStepper{
		e: e, stk: stk, ts: ts,
		place: place, powerPlace: place.Inset(ev.Chiplet.ActiveInsetMM),
		domainMM: domainMM, grid: grid,
		est: bundle.est, numPEs: ev.Point.ArrayDim * ev.Point.ArrayDim,
		arrayFrac: arrayFrac, threeD: threeD,
		tArr: fill(n, ambient), tSrm: fill(n, ambient),
	}, nil
}

// Step implements des.ThermalStepper.
func (s *simStepper) Step(dtSec float64, power []des.ChipletPowerW) (float64, error) {
	if math.Abs(dtSec-s.ts.DtSec()) > 1e-12*s.ts.DtSec() {
		return 0, fmt.Errorf("%w: tick %g s against a stepper built for %g s", thermal.ErrInvalidStep, dtSec, s.ts.DtSec())
	}
	if len(power) != len(s.tArr) {
		return 0, fmt.Errorf("core: sim power trace has %d chiplets, placement %d", len(power), len(s.tArr))
	}
	e := s.e
	powers := make([]floorplan.ChipletPower, len(power))
	s.leakW = 0
	for c := range power {
		aLeak := e.leakage(e.Models.Power.ArrayLeakage(s.numPEs, e.Models.Power.RefTempC), s.tArr[c])
		sLeak := e.leakage(e.Models.Power.SRAMLeakage(s.est, e.Models.Power.RefTempC), s.tSrm[c])
		powers[c] = floorplan.ChipletPower{
			ArrayWatts: power[c].ArrayW + aLeak,
			SRAMWatts:  power[c].SRAMW + sLeak,
		}
		s.leakW += aLeak + sLeak
	}
	if math.IsNaN(s.leakW) || math.IsInf(s.leakW, 0) {
		// The exponential leakage model overflowed: transient runaway.
		return 0, fmt.Errorf("%w: leakage diverged at %g C", thermal.ErrNonFinitePower, maxOf(s.tArr))
	}
	maps, err := s.powerPlace.Rasterize(s.grid, powers, s.threeD, s.arrayFrac)
	if err != nil {
		return 0, err
	}
	if s.threeD {
		if err := s.ts.SetPower("array", maps.Array); err != nil {
			return 0, err
		}
		if err := s.ts.SetPower("sram", maps.SRAM); err != nil {
			return 0, err
		}
	} else if err := s.ts.SetPower("die", maps.Array); err != nil {
		return 0, err
	}
	res, err := s.ts.Step()
	if err != nil {
		return 0, err
	}
	if s.threeD {
		s.tArr = chipletPeaks(res.LayerTemps(s.stk, "array"), s.grid, s.domainMM, s.place.Chiplets)
		s.tSrm = chipletPeaks(res.LayerTemps(s.stk, "sram"), s.grid, s.domainMM, s.place.Chiplets)
	} else {
		die := chipletPeaks(res.LayerTemps(s.stk, "die"), s.grid, s.domainMM, s.place.Chiplets)
		s.tArr, s.tSrm = die, die
	}
	return res.PeakC, nil
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// platformFor derives the des.Platform of an evaluated design: each
// tenant's serving chiplet from the static schedule, its service time
// from the performance model, and its chiplet power split while
// running.
func (e *Evaluator) platformFor(ev *Evaluation, sc des.Scenario) (des.Platform, error) {
	var pl des.Platform
	threeD := e.Opts.Tech == Tech3D
	arr := systolic.Array{
		Rows: ev.Point.ArrayDim, Cols: ev.Point.ArrayDim,
		Dataflow:  e.Opts.Dataflow,
		SRAMBytes: int64(ev.Point.SRAMKB()) * 1024,
	}
	bundle, err := e.profilesFor(arr, threeD)
	if err != nil {
		return pl, err
	}
	// DNN index -> serving chiplet, from the static assignment.
	home := make(map[int]int, len(e.Workload.Networks))
	for c, dnns := range ev.Schedule.ChipletDNNs {
		for _, d := range dnns {
			home[d] = c
		}
	}
	n := len(sc.Tenants)
	pl = des.Platform{
		Chiplets:   ev.Mesh.Count(),
		Chiplet:    make([]int, n),
		ServiceSec: make([]float64, n),
		ArrayW:     make([]float64, n),
		SRAMW:      make([]float64, n),
	}
	for i, t := range sc.Tenants {
		if t.Network == "" {
			return pl, fmt.Errorf("core: sim tenant %s names no network", t.Name)
		}
		d := -1
		for j, net := range e.Workload.Networks {
			if net.Name == t.Network {
				d = j
				break
			}
		}
		if d < 0 {
			return pl, fmt.Errorf("core: sim tenant %s: network %q not in workload", t.Name, t.Network)
		}
		c, ok := home[d]
		if !ok {
			return pl, fmt.Errorf("core: sim tenant %s: network %q not scheduled on any chiplet", t.Name, t.Network)
		}
		pl.Chiplet[i] = c
		pl.ServiceSec[i] = bundle.profiles[d].stats.LatencySeconds(e.Opts.FreqHz)
		pl.ArrayW[i] = bundle.profiles[d].dyn.ArrayWatts
		pl.SRAMW[i] = bundle.profiles[d].dyn.SRAMWatts + bundle.profiles[d].dyn.TSVWatts
	}
	return pl, nil
}

// Simulate runs one seeded dynamic scenario against an evaluated design
// point, coupling the DES engine to the transient thermal solver. ev
// must be a structure-bearing evaluation (Fits, with Schedule and
// Placement — compact memo rebuilds must be re-run through
// EvaluateFull first). When logW is non-nil the deterministic event log
// is streamed to it. Failures are *EvalError at stage "sim", so the
// engines' quarantine taxonomy applies unchanged.
func (e *Evaluator) Simulate(ctx context.Context, ev *Evaluation, sc des.Scenario, logW io.Writer) (*des.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ev == nil || !ev.Fits || ev.Schedule == nil || ev.Placement == nil {
		return nil, fmt.Errorf("core: simulate needs a structure-bearing evaluation (EvaluateFull a fitting point first)")
	}
	if err := sc.Validate(); err != nil {
		return nil, failStage(stageSim, ev.Point, err)
	}
	began := time.Now()
	span := e.tel.StartSpan("sim.run")
	pl, err := e.platformFor(ev, sc)
	if err != nil {
		span.End()
		return nil, failStage(stageSim, ev.Point, err)
	}
	// The stepper keeps its solver arena for the whole run; the pool
	// gets it back once des.Run is done with the stepper.
	ws := e.workspace()
	defer e.wsPool.Put(ws)
	stepper, err := e.newSimStepper(ev, sc.ThermalDtSec, ws)
	if err != nil {
		span.End()
		return nil, failStage(stageSim, ev.Point, err)
	}
	res, err := des.Run(sc, pl, stepper, logW)
	span.End()
	if err != nil {
		return nil, failStage(stageSim, ev.Point, err)
	}
	if err := e.stageGuard(stageSim, ev.Point, began, res.PeakTempC, res.ThrottledSec); err != nil {
		return nil, err
	}
	reg := e.tel.Registry()
	reg.Counter("sim.requests").Add(res.Requests)
	reg.Counter("sim.sla_violations").Add(res.SLAViolations)
	reg.Counter("sim.throttle_events").Add(res.ThrottleEvents)
	reg.Counter("sim.steps").Add(int64(res.Steps))
	e.tel.Emit("sim.completed", map[string]any{
		"dim": ev.Point.ArrayDim, "ics": ev.Point.ICSUM,
		"seed": sc.Seed, "requests": res.Requests,
		"sla_violations": res.SLAViolations, "throttle_events": res.ThrottleEvents,
		"peak_c": res.PeakTempC,
	})
	return res, nil
}

// SimScore aggregates a design's behavior over a distribution of seeded
// scenario draws — the dynamic counterpart of the static Objective,
// letting sweeps and annealing rank designs on time-varying behavior
// instead of one corner. Deterministic under a fixed base seed: draw i
// uses Seed + i*simSeedStride.
type SimScore struct {
	// Draws is the number of scenario draws aggregated.
	Draws int `json:"draws"`
	// MeanSLARate and MaxSLARate are the mean and worst per-draw SLA
	// violation rates (violations over arrivals).
	MeanSLARate float64 `json:"mean_sla_rate"`
	MaxSLARate  float64 `json:"max_sla_rate"`
	// MeanThrottledFrac is the mean fraction of virtual time spent
	// below nominal frequency.
	MeanThrottledFrac float64 `json:"mean_throttled_frac"`
	// ThrottleEvents totals downward DVFS shifts across draws.
	ThrottleEvents int64 `json:"throttle_events"`
	// MeanPeakC and MaxPeakC summarize the envelope maxima.
	MeanPeakC float64 `json:"mean_peak_c"`
	MaxPeakC  float64 `json:"max_peak_c"`
	// WorstP99Sec is the worst per-tenant p99 latency seen in any draw.
	WorstP99Sec float64 `json:"worst_p99_sec"`
}

// DynamicPenalty folds the score into one scalar in [0, ~2]: the mean
// SLA-violation rate plus the mean throttled-time fraction. Zero for a
// design whose dynamic behavior never queues past SLA or throttles.
func (s SimScore) DynamicPenalty() float64 {
	return s.MeanSLARate + s.MeanThrottledFrac
}

// CombinedObjective returns the static objective inflated by the
// dynamic penalty — the ranking key for scenario-aware DSE:
// static * (1 + DynamicPenalty()). Designs identical at the static
// corner separate by their burst behavior.
func (s SimScore) CombinedObjective(static float64) float64 {
	return static * (1 + s.DynamicPenalty())
}

// SimulateDistribution scores ev over draws seeded scenario draws
// (Seed, Seed+stride, ...), feeding the evaluation-level view sweeps
// rank on. Cancellation is checked between draws.
func (e *Evaluator) SimulateDistribution(ctx context.Context, ev *Evaluation, sc des.Scenario, draws int) (*SimScore, error) {
	if draws <= 0 {
		return nil, fmt.Errorf("core: simulate distribution needs positive draws, got %d", draws)
	}
	span := e.tel.StartSpan("sim.distribution")
	defer span.End()
	score := &SimScore{Draws: draws}
	for i := 0; i < draws; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		draw := sc
		draw.Seed = sc.Seed + int64(i)*simSeedStride
		res, err := e.Simulate(ctx, ev, draw, nil)
		if err != nil {
			return nil, err
		}
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
	return score, nil
}
