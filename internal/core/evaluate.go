package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tesa/internal/area"
	"tesa/internal/cost"
	"tesa/internal/dnn"
	"tesa/internal/faults"
	"tesa/internal/floorplan"
	"tesa/internal/memo"
	"tesa/internal/nop"
	"tesa/internal/power"
	"tesa/internal/sched"
	"tesa/internal/sram"
	"tesa/internal/systolic"
	"tesa/internal/telemetry"
	"tesa/internal/thermal"
)

// Pipeline stage names — the keys of the fault-injection hooks, the
// Stage field of EvalError, and (prefixed with "stage.") the telemetry
// span names.
const (
	stageSystolic  = "systolic"
	stageFloorplan = "floorplan"
	stageSched     = "sched"
	stageDRAM      = "dram"
	stageCost      = "cost"
	stageThermal   = "thermal"
)

// Evaluation is the full characterization of one MCM design point — the
// outputs of the Fig. 2b pipeline that the optimizer consumes plus
// everything the paper's tables report.
type Evaluation struct {
	Point DesignPoint

	// Feasible is true when every user-defined constraint holds.
	Feasible bool
	// Violations lists the violated constraints ("area", "latency",
	// "power", "temperature", "runaway").
	Violations []string
	// Fits is false when no chiplet mesh fits the interposer at all; the
	// remaining fields are then zero.
	Fits bool

	Mesh    floorplan.Mesh
	Chiplet area.Chiplet
	// MakespanSec is the workload completion time; the latency
	// constraint is MakespanSec <= 1/FPS.
	MakespanSec float64
	// LatencyFactor is MakespanSec * FPS: >1 means violation (the paper
	// reports "36x longer than 30 fps" style factors).
	LatencyFactor float64

	// PeakTempC is the maximum junction temperature across all execution
	// phases (NaN when thermal evaluation is disabled).
	PeakTempC float64
	// Runaway marks a diverging leakage-temperature fixed point.
	Runaway bool
	// LeakIters is the maximum leakage-temperature iterations over
	// phases.
	LeakIters int

	// TotalPowerW is the worst-phase chiplet power including leakage at
	// the converged temperature; DynamicPowerW is its dynamic part.
	TotalPowerW   float64
	DynamicPowerW float64
	LeakageW      float64

	MCMCost      cost.Breakdown
	DRAMPowerW   float64
	DRAMChannels int
	// OPS is the sustained operations per second during workload
	// execution: 2 operations per MAC over the makespan. PeakOPS is the
	// hardware's peak capacity (2 x PEs x chiplets x frequency), the
	// paper's Sec. IV-B.3 comparison metric.
	OPS     float64
	PeakOPS float64

	// Objective is Eq. (6): Alpha*cost/RefCost + Beta*DRAM/RefDRAM.
	Objective float64

	// Schedule is the static DNN-to-chiplet assignment.
	Schedule *sched.Schedule
	// Placement is the concrete floorplan (chiplet rectangles on the
	// interposer).
	Placement *floorplan.Placement
	// ChipletTraffic is each chiplet's DRAM traffic in bytes per frame.
	ChipletTraffic []int64
	// Hottest, when full evaluation was requested, is the thermal field
	// of the hottest phase (for Fig. 6 maps).
	Hottest *thermal.Result
	// HottestStack is the stack that produced Hottest.
	HottestStack *thermal.Stack
	// Full records whether thermal analysis ran to completion even after
	// an early constraint violation (reporting mode).
	Full bool

	// compact marks an evaluation rebuilt from a persistent memo record:
	// every scalar above is bit-identical to the original computation,
	// but Schedule, Placement and the thermal field are nil. See Compact.
	compact bool
}

// Compact reports whether this evaluation was served from a persistent
// memo record and therefore carries only scalar results — Schedule,
// Placement, ChipletTraffic details and the thermal field structures are
// absent. Re-evaluate the point through EvaluateFull when the structures
// are needed; the engines do this automatically for reported winners.
func (ev *Evaluation) Compact() bool { return ev.compact }

// Evaluator runs the TESA pipeline for design points of one workload
// under one (Options, Constraints) setting, memoizing both the
// performance simulations and whole-point evaluations in one memo store
// (private unless UseMemo attaches a shared one) — the paper's
// SCALE-Sim runs take minutes to hours per point, which is exactly why
// the real tool-chain caches too.
type Evaluator struct {
	Workload dnn.Workload
	Opts     Options
	Cons     Constraints
	Models   Models

	sim *systolic.Simulator

	// tel is the optional observability hub (nil = disabled fast path);
	// see Instrument.
	tel *telemetry.Telemetry
	// flight retains each worker goroutine's recent stage events so a
	// quarantine record carries its own causal trace. Non-nil exactly
	// when tel is (Instrument creates it), so the disabled path pays one
	// nil check.
	flight *telemetry.FlightRecorder
	// ctrs caches the hot path's counter handles; non-nil exactly when
	// tel is (see counter).
	ctrs *counterHandles

	// injected is the optional fault-injection plan (nil = no
	// injection); see InjectFaults.
	injected *faults.Plan
	// stageTimeout, when positive, bounds each stage's wall time; see
	// SetStageTimeout.
	stageTimeout time.Duration

	// wsPool recycles thermal solver arenas across grid solves; a
	// workspace is not goroutine-safe, so thermalAnalysis checks one out
	// for the duration of its leakage loop, and a sim job for all its
	// draws, whose steppers share the transient operator assembled in it.
	wsPool sync.Pool

	// memo is the point and stage cache every evaluation runs through:
	// a private store from NewEvaluator, or a shared one attached with
	// UseMemo. Keys carry configuration fingerprints, so one store can
	// serve any number of evaluators.
	memo *memo.Store
	// isolated is the private store an armed fault plan forces; see
	// store.
	isolated *memo.Store
	// fpOnce guards the lazy fingerprint computation below (memoize.go).
	fpOnce  sync.Once
	cfgFP   string   // whole-evaluation configuration fingerprint
	perfFP  string   // performance-model (systolic/sched) fingerprint
	thermFP string   // thermal-stage fingerprint (cfgFP minus budgets and weights)
	netFPs  []string // per-network content fingerprints
	// Key prefixes "<kind>:<fingerprint>|" of the per-point records.
	evalPrefix, screenPrefix, thermPrefix, profPrefix string

	mu      sync.Mutex
	visited map[DesignPoint]struct{}   // points evaluated successfully (Explored)
	failed  map[DesignPoint]*EvalError // quarantine ledger: poisoned points and why
	nfailed atomic.Int64               // len(failed), readable without mu
	hits    int                        // evaluations that did not run the pipeline
	misses  int                        // evaluations that ran the pipeline
}

// Instrument attaches an observability hub: the pipeline records
// per-stage wall time into tel's timing histograms and counts cache
// hits/misses, Optimize forwards annealer progress as trace events, and
// a per-goroutine flight recorder starts retaining recent stage events
// for quarantine records. A nil tel (the default) disables all of it at
// the cost of a nil check per probe. Call before the first evaluation;
// the hub may be shared across evaluators.
func (e *Evaluator) Instrument(tel *telemetry.Telemetry) {
	e.tel = tel
	e.flight, e.ctrs = nil, nil
	if tel.Enabled() {
		e.flight = telemetry.NewFlightRecorder()
		e.ctrs = new(counterHandles)
	}
}

// Telemetry returns the hub attached with Instrument (nil when
// uninstrumented).
func (e *Evaluator) Telemetry() *telemetry.Telemetry { return e.tel }

// InjectFaults attaches a deterministic fault-injection plan (see
// internal/faults and ParseFaults): at each stage boundary a matching
// rule stalls, panics, fails, or poisons the stage output with NaN,
// exercising exactly the recovery paths real pathological points take.
// A nil or empty plan (the default) disables injection. An armed plan
// switches the evaluator to a private store (see store). Call before the
// first evaluation.
func (e *Evaluator) InjectFaults(plan *faults.Plan) {
	if plan != nil && plan.Empty() {
		plan = nil
	}
	e.injected = plan
	e.isolated = nil
	if plan != nil {
		e.isolated = memo.NewStore()
	}
}

// store returns the memo store this evaluator's pipeline reads and
// writes, and is the one place the fault-injection policy is decided:
// while a fault plan is armed, every evaluation runs against a private
// store, so injected faults fire at this evaluator's own stage
// boundaries and no injected run's results reach a shared store.
func (e *Evaluator) store() *memo.Store {
	if e.isolated != nil {
		return e.isolated
	}
	return e.memo
}

// SetStageTimeout bounds each pipeline stage's wall time: a stage that
// exceeds d fails its point with ErrStageTimeout. The check runs at the
// stage boundary — a stuck stage is not preempted, but its point is
// quarantined instead of silently dominating the run, and the memo
// cache never records its partial result. Zero (the default) disables
// the check.
func (e *Evaluator) SetStageTimeout(d time.Duration) { e.stageTimeout = d }

// QuarantinedCount returns the number of distinct design points whose
// evaluation failed and was quarantined.
func (e *Evaluator) QuarantinedCount() int { return int(e.nfailed.Load()) }

// QuarantineLedger returns the quarantined points with their failing
// stage and failure class, sorted by design point for stable reports.
func (e *Evaluator) QuarantineLedger() []QuarantinedPoint {
	e.mu.Lock()
	out := make([]QuarantinedPoint, 0, len(e.failed))
	for p, ee := range e.failed {
		out = append(out, QuarantinedPoint{Point: p, Stage: ee.Stage, Reason: ee.Reason(), Trace: ee.Trace})
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Point.Less(out[j].Point) })
	return out
}

// NewEvaluator builds an evaluator; zero fields of models are filled with
// defaults.
func NewEvaluator(w dnn.Workload, opts Options, cons Constraints, models Models) (*Evaluator, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	zero := Models{}
	if models == zero {
		models = DefaultModels()
	}
	if err := models.Power.Validate(); err != nil {
		return nil, err
	}
	if err := models.DRAM.Validate(); err != nil {
		return nil, err
	}
	if err := models.Cost.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxChiplets == 0 {
		opts.MaxChiplets = len(w.Networks)
	}
	return &Evaluator{
		Workload: w,
		Opts:     opts,
		Cons:     cons,
		Models:   models,
		sim:      systolic.NewSimulator(),
		// A private store; callers that want cross-evaluator or
		// cross-process sharing attach one with UseMemo / LoadMemoDir.
		memo:    memo.NewStore(),
		visited: make(map[DesignPoint]struct{}),
		failed:  make(map[DesignPoint]*EvalError),
	}, nil
}

// Explored returns the number of distinct design points this evaluator
// has evaluated successfully (used for the paper's "<15% of the space
// explored" claim). It counts points, not pipeline runs: a point served
// by a store another evaluator filled counts too, a point start
// sampling only screened does not.
func (e *Evaluator) Explored() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.visited)
}

// Evaluations returns the total number of EvaluateContext and
// EvaluateFullContext calls. The gap between Evaluations and Explored
// is the annealers' revisit traffic.
func (e *Evaluator) Evaluations() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits + e.misses
}

// CacheHitRate returns the fraction of evaluations that did not run
// the pipeline — served by the memo store or the quarantine ledger (0
// before the first call) — the single source of truth the CLIs report
// instead of re-deriving it from Evaluations and Explored.
func (e *Evaluator) CacheHitRate() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.hits+e.misses == 0 {
		return 0
	}
	return float64(e.hits) / float64(e.hits+e.misses)
}

// EvaluateContext runs the pipeline, short-circuiting the expensive
// thermal stage once a cheaper constraint already fails (DSE mode). It
// returns ctx.Err() without touching the pipeline when ctx is already
// done. A single evaluation is never interrupted mid-pipeline —
// cancellation latency is bounded by one evaluation — which keeps the
// memo cache free of partial results.
func (e *Evaluator) EvaluateContext(ctx context.Context, p DesignPoint) (*Evaluation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.evaluate(p, false)
}

// EvaluateFullContext runs the whole pipeline including thermal
// analysis even for constraint-violating points (reporting mode: the
// paper's Tables III and IV show peak temperatures of infeasible MCMs),
// under the EvaluateContext cancellation contract.
func (e *Evaluator) EvaluateFullContext(ctx context.Context, p DesignPoint) (*Evaluation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.evaluate(p, true)
}

// evaluate serves one EvaluateContext or EvaluateFullContext call and takes e.mu once to count it.
// The quarantine ledger is consulted first, under its own lock, only
// once it holds a point.
func (e *Evaluator) evaluate(p DesignPoint, full bool) (*Evaluation, error) {
	if e.nfailed.Load() > 0 {
		e.mu.Lock()
		ee, failed := e.failed[p]
		if failed {
			e.hits++
		}
		e.mu.Unlock()
		if failed {
			// Failures are memoized too: the pipeline is deterministic, so
			// retrying a poisoned point would only fail the same way again.
			e.counter(ctrCacheHit).Inc()
			return nil, ee
		}
	}
	ev, ran, err := e.sharedEvaluate(p, full)
	e.mu.Lock()
	if ran {
		e.misses++
	} else {
		e.hits++
	}
	if err == nil {
		e.visited[p] = struct{}{}
	}
	e.mu.Unlock()
	if ran {
		e.counter(ctrCacheMiss).Inc()
	} else {
		e.counter(ctrCacheHit).Inc()
	}
	if err != nil {
		if ee, ok := asEvalError(err); ok {
			e.quarantine(ee)
		}
		return nil, err
	}
	if ran {
		if ev.Feasible {
			e.counter(ctrFeasible).Inc()
		} else {
			e.counter(ctrInfeasible).Inc()
		}
	}
	return ev, nil
}

// quarantine records a point-local evaluation failure in the ledger
// (first writer wins when concurrent workers race on one point) and
// bumps the failure counters. Quarantined points do not count as
// explored (Explored counts successful evaluations); later evaluations of
// the point return the memoized error without rerunning the pipeline.
func (e *Evaluator) quarantine(ee *EvalError) {
	e.mu.Lock()
	if _, dup := e.failed[ee.Point]; dup {
		e.mu.Unlock()
		return
	}
	// Best-effort flight dump: under the shared memo store the pipeline
	// may have run on another goroutine (single-flight), whose ring this
	// goroutine cannot see — the trace is then whatever this goroutine
	// last recorded, possibly nothing.
	if ee.Trace == nil {
		ee.Trace = e.flight.Dump()
	}
	e.failed[ee.Point] = ee
	e.nfailed.Store(int64(len(e.failed)))
	e.mu.Unlock()
	reason := ee.Reason()
	e.tel.Registry().Counter("eval.quarantined").Inc()
	e.tel.Registry().Counter("eval.quarantine." + reason).Inc()
	fields := map[string]any{
		"dim":    ee.Point.ArrayDim,
		"ics":    ee.Point.ICSUM,
		"stage":  ee.Stage,
		"reason": reason,
	}
	if len(ee.Trace) > 0 {
		fields["trace"] = ee.Trace
	}
	e.tel.Emit("eval.quarantined", fields)
}

// stageGuard closes a stage boundary: it fires any matching injected
// fault (latency stall, panic, injected error, NaN poisoning), enforces
// the per-stage wall-clock budget, and validates that the stage's
// scalar outputs are finite so a NaN cannot flow into downstream
// stages or the memo cache.
func (e *Evaluator) stageGuard(stage string, p DesignPoint, began time.Time, vals ...float64) error {
	if e.flight != nil {
		e.flight.Record(fmt.Sprintf("stage.%s dim=%d ics=%d took=%s",
			stage, p.ArrayDim, p.ICSUM, time.Since(began).Round(time.Microsecond)))
	}
	if e.injected != nil {
		if o := e.injected.At(stage, p.ArrayDim, p.ICSUM); o != nil {
			if o.Delay > 0 {
				time.Sleep(o.Delay)
			}
			if o.Panic {
				panic(fmt.Sprintf("injected fault at stage %s for %v", stage, p))
			}
			if o.Err != nil {
				return &EvalError{Stage: stage, Point: p, Err: o.Err}
			}
			if o.NaN {
				vals = append(vals, math.NaN())
			}
		}
	}
	if e.stageTimeout > 0 {
		if el := time.Since(began); el > e.stageTimeout {
			return &EvalError{Stage: stage, Point: p, Err: fmt.Errorf(
				"%w: stage %s took %v (budget %v)", ErrStageTimeout, stage,
				el.Round(time.Millisecond), e.stageTimeout)}
		}
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &EvalError{Stage: stage, Point: p, Err: fmt.Errorf(
				"%w at stage %s", ErrNonFinite, stage)}
		}
	}
	return nil
}

// failStage wraps an organic model error with its stage and point so
// the engines quarantine the point instead of aborting the whole run.
// Errors that are already structured pass through unchanged.
func failStage(stage string, p DesignPoint, err error) error {
	if _, ok := asEvalError(err); ok {
		return err
	}
	return &EvalError{Stage: stage, Point: p, Err: err}
}

// netProfile couples a network's simulation stats with its chiplet-level
// power decomposition.
type netProfile struct {
	stats *systolic.NetworkStats
	dyn   power.Dynamic // chiplet dynamic power decomposition while running this network
}

// pipelineMode selects how much of the pipeline runs.
type pipelineMode int

const (
	// modeDSE skips thermal once a cheaper constraint already fails.
	modeDSE pipelineMode = iota
	// modeFull runs thermal for every point that fits (reporting mode).
	modeFull
	// modeScreen stops where modeDSE would start thermal: the returned
	// evaluation carries the Eq. (6) objective and every violation found
	// before thermal, which can only add violations. See screen.
	modeScreen
)

// pipeline is Fig. 2b: perturbed design point -> mesh estimator ->
// scheduler -> floorplanner -> power/leakage/thermal models -> DRAM
// power, MCM cost, latency -> objective.
func (e *Evaluator) pipeline(p DesignPoint, mode pipelineMode) (ev *Evaluation, err error) {
	if p.ArrayDim <= 0 || p.ICSUM < 0 {
		return nil, fmt.Errorf("%w: invalid design point %+v", ErrInvalidSpace, p)
	}
	// Panic isolation: a panicking stage (a model bug on a pathological
	// corner, or an injected fault) fails only its own point. The
	// recover attributes the panic to the stage that was running and
	// hands the engines a structured EvalError to quarantine.
	stage := stageSystolic
	defer func() {
		if r := recover(); r != nil {
			ev = nil
			err = &EvalError{Stage: stage, Point: p,
				Err: fmt.Errorf("%w: %v", ErrStagePanic, r)}
		}
	}()
	total := e.tel.StartSpan("pipeline.total")
	defer total.End()
	full := mode == modeFull
	ev = &Evaluation{Point: p, PeakTempC: math.NaN(), Full: full}
	threeD := e.Opts.Tech == Tech3D
	sramKB := p.SRAMKB()

	// Performance model (SCALE-Sim equivalent), memoized per
	// (array, network).
	began := time.Now()
	span := e.tel.StartSpan("stage.systolic")
	arr := systolic.Array{
		Rows: p.ArrayDim, Cols: p.ArrayDim,
		Dataflow:  e.Opts.Dataflow,
		SRAMBytes: int64(sramKB) * 1024,
	}
	bundle, err := e.profilesFor(arr, threeD)
	if err != nil {
		return nil, failStage(stageSystolic, p, err)
	}
	profiles, est, peakSRAMBw := bundle.profiles, bundle.est, bundle.peakSRAMBw
	span.End()
	if err := e.stageGuard(stageSystolic, p, began, bundle.sumLat, bundle.sumDyn, peakSRAMBw); err != nil {
		return nil, err
	}

	// Area model and mesh estimator.
	stage = stageFloorplan
	began = time.Now()
	span = e.tel.StartSpan("stage.floorplan")
	chip, err := area.Build(p.ArrayDim*p.ArrayDim, est, threeD, peakSRAMBw)
	if err != nil {
		return nil, failStage(stageFloorplan, p, err)
	}
	ev.Chiplet = chip
	// Mesh estimator: the densest grid that fits the interposer at the
	// chosen spacing, capped at the DNN count. The ICS knob therefore
	// controls the chiplet count.
	mesh, err := floorplan.EstimateMesh(e.Cons.InterposerMM, chip.WidthMM, chip.HeightMM, float64(p.ICSUM)/1000, e.Opts.MaxChiplets)
	if err != nil {
		span.End()
		ev.Violations = append(ev.Violations, "area")
		ev.Objective = math.Inf(1)
		return ev, nil
	}
	ev.Mesh = mesh
	place, err := floorplan.Place(e.Cons.InterposerMM, chip.WidthMM, chip.HeightMM, float64(p.ICSUM)/1000, mesh)
	if err != nil {
		return nil, failStage(stageFloorplan, p, err)
	}
	ev.Fits = true
	ev.Placement = place
	if mesh.Count() < e.Opts.MinChiplets {
		// The paper targets multi-accelerator MCMs: independent DNNs run
		// in parallel on distinct chiplets.
		ev.Violations = append(ev.Violations, "mesh")
	}
	span.End()
	if err := e.stageGuard(stageFloorplan, p, began, chip.WidthMM, chip.HeightMM); err != nil {
		return nil, err
	}

	// Scheduler: latency-, power-, and power-density-aware static
	// assignment.
	stage = stageSched
	began = time.Now()
	span = e.tel.StartSpan("stage.sched")
	sp := make([]sched.DNNProfile, len(profiles))
	var totalMACs int64
	for i, pr := range profiles {
		sp[i] = sched.DNNProfile{
			Name:       e.Workload.Networks[i].Name,
			LatencySec: pr.stats.LatencySeconds(e.Opts.FreqHz),
			PowerWatts: pr.dyn.Total(),
		}
		totalMACs += pr.stats.MACs
	}
	schedule, err := e.buildSchedule(sp, mesh.Count(), place.CornerFirstOrder())
	if err != nil {
		return nil, failStage(stageSched, p, err)
	}
	ev.Schedule = schedule
	ev.MakespanSec = schedule.MakespanSec
	ev.LatencyFactor = schedule.MakespanSec * e.Cons.FPS
	ev.OPS = 2 * float64(totalMACs) / schedule.MakespanSec
	ev.PeakOPS = 2 * float64(mesh.Count()) * float64(p.ArrayDim) * float64(p.ArrayDim) * e.Opts.FreqHz
	if ev.LatencyFactor > 1+1e-9 {
		ev.Violations = append(ev.Violations, "latency")
	}
	span.End()
	if err := e.stageGuard(stageSched, p, began, ev.MakespanSec, ev.LatencyFactor, ev.OPS, ev.PeakOPS); err != nil {
		return nil, err
	}

	// DRAM power: per-chiplet channel provisioning by peak bandwidth
	// (max over the chiplet's DNNs), traffic averaged over the frame.
	stage = stageDRAM
	began = time.Now()
	span = e.tel.StartSpan("stage.dram")
	var channels int
	var frameBytes float64
	ev.ChipletTraffic = make([]int64, mesh.Count())
	for c, dnns := range schedule.ChipletDNNs {
		var need int
		for _, d := range dnns {
			bw := profiles[d].stats.PeakDRAMBw * e.Opts.FreqHz
			if ch := e.Models.DRAM.ChannelsFor(bw); ch > need {
				need = ch
			}
			frameBytes += float64(profiles[d].stats.DRAMBytes)
			ev.ChipletTraffic[c] += profiles[d].stats.DRAMBytes
		}
		if len(dnns) > 0 && need == 0 {
			need = 1
		}
		channels += need
	}
	ev.DRAMChannels = channels
	ev.DRAMPowerW = e.Models.DRAM.Power(channels, frameBytes*e.Cons.FPS)
	span.End()
	if err := e.stageGuard(stageDRAM, p, began, ev.DRAMPowerW, frameBytes); err != nil {
		return nil, err
	}

	// MCM cost.
	stage = stageCost
	began = time.Now()
	span = e.tel.StartSpan("stage.cost")
	spec := cost.ChipletSpec{ThreeD: threeD}
	if threeD {
		spec.ArrayDieMM2 = chip.ArrayTierMM2()
		spec.SRAMDieMM2 = chip.SRAMTierMM2()
	} else {
		spec.ArrayDieMM2 = chip.SiliconMM2()
	}
	bd, err := e.Models.Cost.MCM(spec, mesh.Count(), e.Cons.InterposerMM*e.Cons.InterposerMM)
	if err != nil {
		return nil, failStage(stageCost, p, err)
	}
	ev.MCMCost = bd
	span.End()

	// Objective, Eq. (6).
	ev.Objective = e.Opts.Alpha*bd.Total/e.Opts.RefCostUSD + e.Opts.Beta*ev.DRAMPowerW/e.Opts.RefDRAMWatts
	if err := e.stageGuard(stageCost, p, began, bd.Total, ev.Objective); err != nil {
		return nil, err
	}

	// Power and thermal models.
	if e.Opts.DisableThermal {
		// SC2 mode: dynamic power only, no temperature evaluation.
		var worst float64
		for _, ph := range schedule.Phases {
			var dyn float64
			for _, d := range ph.Running {
				if d >= 0 {
					dyn += profiles[d].dyn.Total()
				}
			}
			if dyn > worst {
				worst = dyn
			}
		}
		ev.DynamicPowerW = worst
		ev.TotalPowerW = worst
		if worst > e.Cons.PowerBudgetW {
			ev.Violations = append(ev.Violations, "power")
		}
		ev.Feasible = len(ev.Violations) == 0
		return ev, nil
	}

	// DSE short-circuit: skip thermal once a cheap constraint failed,
	// unless a full report is requested.
	if !full && len(ev.Violations) > 0 {
		ev.Objective = math.Inf(1)
		return ev, nil
	}
	// Cheap dynamic-power pre-screen: leakage only adds power, so a
	// dynamic-only violation is already final (but full mode still wants
	// the temperature).
	if !full {
		var worstDyn float64
		for _, ph := range schedule.Phases {
			var dyn float64
			for _, d := range ph.Running {
				if d >= 0 {
					dyn += profiles[d].dyn.Total()
				}
			}
			if dyn > worstDyn {
				worstDyn = dyn
			}
		}
		if worstDyn > e.Cons.PowerBudgetW {
			ev.DynamicPowerW = worstDyn
			ev.TotalPowerW = worstDyn
			ev.Violations = append(ev.Violations, "power")
			ev.Objective = math.Inf(1)
			return ev, nil
		}
	}
	if mode == modeScreen {
		return ev, nil
	}

	stage = stageThermal
	if full {
		err = e.thermalStage(ev, profiles, place, est)
	} else {
		err = e.sharedThermal(ev, profiles, place, est)
	}
	if err != nil {
		return nil, err
	}

	if ev.TotalPowerW > e.Cons.PowerBudgetW {
		ev.Violations = append(ev.Violations, "power")
	}
	if ev.Runaway {
		ev.Violations = append(ev.Violations, "runaway")
	} else if ev.PeakTempC > e.Cons.TempBudgetC {
		ev.Violations = append(ev.Violations, "temperature")
	}
	ev.Feasible = len(ev.Violations) == 0
	if !ev.Feasible && !full {
		ev.Objective = math.Inf(1)
	}
	return ev, nil
}

// thermalStage runs the thermal stage on ev behind its span and stage
// guard.
func (e *Evaluator) thermalStage(ev *Evaluation, profiles []netProfile, place *floorplan.Placement, est sram.Estimate) error {
	began := time.Now()
	span := e.tel.StartSpan("stage.thermal")
	err := e.thermalAnalysis(ev, profiles, place, est)
	span.End()
	if err != nil {
		return failStage(stageThermal, ev.Point, err)
	}
	tempOut := ev.PeakTempC
	if ev.Runaway {
		// A runaway point is a valid infeasible evaluation; its clamped
		// peak temperature is not required to be meaningful.
		tempOut = 0
	}
	return e.stageGuard(stageThermal, ev.Point, began, ev.TotalPowerW, ev.DynamicPowerW, ev.LeakageW, tempOut)
}

// AssessNoP quantifies the network-on-package overhead of an evaluated
// MCM: each chiplet's link to its edge DRAM PHY. The paper assumes this
// overhead is negligible ("ICS does not significantly impact DRAM
// latency"); this method lets callers verify that for any configuration.
func (e *Evaluator) AssessNoP(ev *Evaluation, params nop.Params) (*nop.Assessment, error) {
	if ev == nil || ev.Placement == nil {
		return nil, fmt.Errorf("core: evaluation carries no placement")
	}
	return params.Assess(ev.Placement, ev.ChipletTraffic, e.Cons.FPS)
}
