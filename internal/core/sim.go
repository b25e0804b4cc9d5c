package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tesa/internal/des"
	"tesa/internal/floorplan"
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

// errDrawCancelled stops a draw whose outcome can no longer matter: a
// draw of lower index has failed, and its error is the one returned.
var errDrawCancelled = errors.New("core: sim draw cancelled")

// simStepper adapts the transient thermal solver to des.ThermalStepper:
// each scenario tick it adds temperature-dependent leakage (evaluated
// at the previous step's per-chiplet peaks, the transient analogue of
// the steady-state fixed point) to the DES-supplied dynamic power,
// rasterizes the result onto the thermal grid, and advances one
// implicit-Euler step. It steps into buffers of its own, so a step
// allocates nothing. One stepper runs one worker's draws; the workers'
// steppers share the geometry and the transient operator (see fork).
type simStepper struct {
	e          *Evaluator
	stk        *thermal.Stack
	ts         *thermal.TransientStepper
	place      *floorplan.Placement
	powerPlace *floorplan.Placement
	domainMM   float64
	grid       int
	arrayFrac  float64
	threeD     bool
	ambientC   float64
	// aRef and sRef are one chiplet's array and SRAM leakage at the
	// power model's reference temperature.
	aRef, sRef float64
	// tArr and tSrm are the per-chiplet temps driving the leakage model;
	// in 2-D both tiers are the die, and they are one slice.
	tArr, tSrm []float64
	leakW      float64 // leakage of the most recent step
	powers     []floorplan.ChipletPower
	maps       floorplan.PowerMaps
	res        thermal.Result
	// draw is the index of the draw the stepper runs, and failed (nil
	// outside simulateDraws) the lowest index of a failed draw: a step
	// of a later draw stops with errDrawCancelled.
	draw   int
	failed *atomic.Int64
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
	arrayFrac := ev.Chiplet.ArrayMM2 / ev.Chiplet.FootprintMM2
	if arrayFrac > 1 {
		arrayFrac = 1
	}
	pw := e.Models.Power
	s := &simStepper{
		e: e, stk: stk, ts: ts,
		place: place, powerPlace: place.Inset(ev.Chiplet.ActiveInsetMM),
		domainMM: domainMM, grid: grid,
		arrayFrac: arrayFrac, threeD: threeD,
		ambientC: e.Models.Materials.AmbientC,
		aRef:     pw.ArrayLeakage(ev.Point.ArrayDim*ev.Point.ArrayDim, pw.RefTempC),
		sRef:     pw.SRAMLeakage(bundle.est, pw.RefTempC),
	}
	s.alloc(ev.Mesh.Count())
	s.reset(0)
	return s, nil
}

// alloc gives s per-chiplet buffers of its own for n chiplets.
func (s *simStepper) alloc(n int) {
	s.powers = make([]floorplan.ChipletPower, n)
	s.maps, s.res = floorplan.PowerMaps{}, thermal.Result{}
	s.tArr = make([]float64, n)
	s.tSrm = s.tArr
	if s.threeD {
		s.tSrm = make([]float64, n)
	}
}

// fork returns a stepper on s's geometry and transient operator with a
// field and buffers of its own, for another worker's draws.
func (s *simStepper) fork() *simStepper {
	f := *s
	f.ts = s.ts.Fork()
	f.alloc(len(s.powers))
	f.reset(0)
	return &f
}

// reset prepares s to run draw from ambient.
func (s *simStepper) reset(draw int) {
	s.ts.Reset()
	for c := range s.tArr {
		s.tArr[c], s.tSrm[c] = s.ambientC, s.ambientC
	}
	s.leakW = 0
	s.draw = draw
}

// Step implements des.ThermalStepper.
func (s *simStepper) Step(dtSec float64, power []des.ChipletPowerW) (float64, error) {
	if s.failed != nil && int64(s.draw) > s.failed.Load() {
		return 0, errDrawCancelled
	}
	if math.Abs(dtSec-s.ts.DtSec()) > 1e-12*s.ts.DtSec() {
		return 0, fmt.Errorf("%w: tick %g s against a stepper built for %g s", thermal.ErrInvalidStep, dtSec, s.ts.DtSec())
	}
	if len(power) != len(s.tArr) {
		return 0, fmt.Errorf("core: sim power trace has %d chiplets, placement %d", len(power), len(s.tArr))
	}
	e := s.e
	s.leakW = 0
	for c := range power {
		aLeak := e.leakage(s.aRef, s.tArr[c])
		sLeak := e.leakage(s.sRef, s.tSrm[c])
		s.powers[c] = floorplan.ChipletPower{
			ArrayWatts: power[c].ArrayW + aLeak,
			SRAMWatts:  power[c].SRAMW + sLeak,
		}
		s.leakW += aLeak + sLeak
	}
	if math.IsNaN(s.leakW) || math.IsInf(s.leakW, 0) {
		// The exponential leakage model overflowed: transient runaway.
		return 0, fmt.Errorf("%w: leakage diverged at %g C", thermal.ErrNonFinitePower, maxOf(s.tArr))
	}
	if err := s.powerPlace.RasterizeInto(&s.maps, s.grid, s.powers, s.threeD, s.arrayFrac); err != nil {
		return 0, err
	}
	if s.threeD {
		if err := s.ts.SetPower("array", s.maps.Array); err != nil {
			return 0, err
		}
		if err := s.ts.SetPower("sram", s.maps.SRAM); err != nil {
			return 0, err
		}
	} else if err := s.ts.SetPower("die", s.maps.Array); err != nil {
		return 0, err
	}
	if err := s.ts.StepInto(&s.res); err != nil {
		return 0, err
	}
	if s.threeD {
		chipletPeaksInto(s.tArr, s.res.LayerTemps(s.stk, "array"), s.grid, s.domainMM, s.place.Chiplets)
		chipletPeaksInto(s.tSrm, s.res.LayerTemps(s.stk, "sram"), s.grid, s.domainMM, s.place.Chiplets)
	} else {
		chipletPeaksInto(s.tArr, s.res.LayerTemps(s.stk, "die"), s.grid, s.domainMM, s.place.Chiplets)
	}
	return s.res.PeakC, nil
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
// EvaluateFullContext first). When logW is non-nil the deterministic event log
// is streamed to it. Failures are *EvalError at stage "sim", so the
// engines' quarantine taxonomy applies unchanged. It is
// SimulateDistribution's draw 0 alone.
func (e *Evaluator) Simulate(ctx context.Context, ev *Evaluation, sc des.Scenario, logW io.Writer) (*des.Result, error) {
	results, err := e.simulateDraws(ctx, ev, sc, 1, 1, logW)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// simulateDraws runs draws seeded draws of sc against ev and returns
// their results in draw order: draw i runs at Seed + i*simSeedStride,
// and draw 0 streams its event log to logW when non-nil. The transient
// operator is assembled once, in one pooled workspace. The draws run on
// min(parallel, draws) workers (parallel <= 0 means GOMAXPROCS), the
// calling goroutine one of them; each worker steps a fork of the first
// stepper and resets it between its draws. A draw is a pure function of
// its seed, so the results do not depend on the width. The error of the
// lowest-index failing draw is returned, after the draws before it are
// reported; the draws after it are cancelled.
func (e *Evaluator) simulateDraws(ctx context.Context, ev *Evaluation, sc des.Scenario, draws, parallel int, logW io.Writer) ([]*des.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ev == nil || !ev.Fits || ev.Schedule == nil || ev.Placement == nil {
		return nil, fmt.Errorf("core: simulate needs a structure-bearing evaluation (EvaluateFull a fitting point first)")
	}
	if err := sc.Validate(); err != nil {
		return nil, failStage(stageSim, ev.Point, err)
	}
	pl, err := e.platformFor(ev, sc)
	if err != nil {
		return nil, failStage(stageSim, ev.Point, err)
	}
	// The steppers read the operator in ws until the last draw is done;
	// the pool gets it back after that.
	ws := e.workspace()
	defer e.wsPool.Put(ws)
	first, err := e.newSimStepper(ev, sc.ThermalDtSec, ws)
	if err != nil {
		return nil, failStage(stageSim, ev.Point, err)
	}
	width := parallel
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	width = min(width, draws)
	results := make([]*des.Result, draws)
	errs := make([]error, draws)
	var next atomic.Int64
	failed := new(atomic.Int64) // the lowest failing draw, draws while none
	failed.Store(int64(draws))
	work := func(s *simStepper) {
		s.failed = failed
		for {
			i := int(next.Add(1) - 1)
			if i >= draws || int64(i) > failed.Load() {
				return
			}
			err := ctx.Err()
			if err == nil {
				s.reset(i)
				var w io.Writer
				if i == 0 {
					w = logW
				}
				results[i], err = e.runDraw(ev, sc, pl, s, i, w)
			}
			if err == nil {
				continue
			}
			errs[i] = err
			for f := failed.Load(); int64(i) < f; f = failed.Load() {
				if failed.CompareAndSwap(f, int64(i)) {
					break
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < width; w++ {
		s := first.fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(s)
		}()
	}
	work(first)
	wg.Wait()
	f := int(failed.Load())
	e.reportDraws(ev, results[:f])
	if f < draws {
		return nil, errs[f]
	}
	return results, nil
}

// runDraw runs draw i of sc on s, which reset has prepared for it. A
// panic in the event engine or the stepper fails the draw with
// ErrStagePanic instead of the process, and every failure is an
// *EvalError at stage "sim" that names the draw and its seed.
func (e *Evaluator) runDraw(ev *Evaluation, sc des.Scenario, pl des.Platform, s *simStepper, i int, logW io.Writer) (res *des.Result, err error) {
	sc.Seed += int64(i) * simSeedStride
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrStagePanic, r)
		}
		if err != nil {
			stage := stageSim
			if ee, ok := asEvalError(err); ok {
				stage, err = ee.Stage, ee.Err
			}
			err = &EvalError{Stage: stage, Point: ev.Point,
				Err: fmt.Errorf("scenario draw %d (seed %d): %w", i, sc.Seed, err)}
		}
	}()
	began := time.Now()
	span := e.tel.StartSpan("sim.run")
	res, err = des.Run(sc, pl, s, logW)
	span.End()
	if err != nil {
		return nil, err
	}
	if err := e.stageGuard(stageSim, ev.Point, began, res.PeakTempC, res.ThrottledSec); err != nil {
		return nil, err
	}
	return res, nil
}

// reportDraws adds completed draws to the sim counters and emits their
// sim.completed events, in draw order whatever order they ran in.
func (e *Evaluator) reportDraws(ev *Evaluation, results []*des.Result) {
	reg := e.tel.Registry()
	for _, res := range results {
		reg.Counter("sim.requests").Add(res.Requests)
		reg.Counter("sim.sla_violations").Add(res.SLAViolations)
		reg.Counter("sim.throttle_events").Add(res.ThrottleEvents)
		reg.Counter("sim.steps").Add(int64(res.Steps))
		e.tel.Emit("sim.completed", map[string]any{
			"dim": ev.Point.ArrayDim, "ics": ev.Point.ICSUM,
			"seed": res.Seed, "requests": res.Requests,
			"sla_violations": res.SLAViolations, "throttle_events": res.ThrottleEvents,
			"peak_c": res.PeakTempC,
		})
	}
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
// rank on, and returns draw 0 with the score: draw 0 is the base run at
// sc's own seed, and streams its event log to logW when non-nil. The
// draws run on min(parallel, draws) workers (parallel <= 0 means
// GOMAXPROCS), the calling goroutine among them, on one shared transient
// operator; the base run and the score are bit-identical at any width.
// Cancellation is checked between draws. A failing draw fails the call
// with the error of the lowest-index failing draw, an *EvalError at
// stage "sim" naming that draw (wrapping ErrStagePanic if it panicked),
// and the draws after it are cancelled.
func (e *Evaluator) SimulateDistribution(ctx context.Context, ev *Evaluation, sc des.Scenario, draws, parallel int, logW io.Writer) (*des.Result, *SimScore, error) {
	if draws <= 0 {
		return nil, nil, fmt.Errorf("core: simulate distribution needs positive draws, got %d", draws)
	}
	span := e.tel.StartSpan("sim.distribution")
	defer span.End()
	results, err := e.simulateDraws(ctx, ev, sc, draws, parallel, logW)
	if err != nil {
		return nil, nil, err
	}
	return results[0], foldScore(results), nil
}

// foldScore aggregates the draws' results in draw order.
func foldScore(results []*des.Result) *SimScore {
	draws := len(results)
	score := &SimScore{Draws: draws}
	for _, res := range results {
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
	return score
}
