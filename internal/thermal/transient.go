package thermal

import (
	"errors"
	"fmt"
	"math"
)

// Typed transient-input errors. Discrete-event scenario drivers feed
// this solver machine-generated power traces, so bad inputs (NaN/Inf
// watts, zero-length or non-finite timesteps) must be rejected at the
// boundary with matchable sentinels rather than silently corrupting
// the field. Callers match with errors.Is.
var (
	// ErrInvalidStep marks a non-finite or non-positive timestep.
	ErrInvalidStep = errors.New("thermal: invalid transient timestep")
	// ErrNonFinitePower marks a NaN, infinite, or negative power input.
	ErrNonFinitePower = errors.New("thermal: non-finite or negative power input")
)

// Transient analysis — the counterpart of HotSpot's transient mode to
// this package's steady-state mode. The paper's DSE only needs steady
// state (its workloads run continuously), but the transient solver lets
// users check how quickly an MCM approaches its steady temperature after
// a workload starts, and verifies that steady state is indeed the
// long-run limit (pinned by tests).
//
// Discretization: backward (implicit) Euler on the same thermal network,
//
//	(C/dt + A) T_{n+1} = (C/dt) T_n + q,
//
// where C is the per-cell heat capacity. The stepping matrix is SPD like
// A, so the steady solver — multigrid-preconditioned CG — solves each
// step, warm-started from the previous one. C/dt only adds to the
// diagonal, which the multigrid hierarchy aggregates like the ambient
// film; the operator is assembled once and shared by a stepper and its
// forks.

// Volumetric heat capacities in J/(m^3 K).
const (
	SiliconVolHeatCapacity = 1.63e6
	CopperVolHeatCapacity  = 3.45e6
	// PolymerVolHeatCapacity covers underfill, TIM, and bond layers.
	PolymerVolHeatCapacity = 2.0e6
)

// TransientResult is a step-response trace.
type TransientResult struct {
	// TimesSec[i] is the time after power-on of sample i.
	TimesSec []float64
	// PeakC[i] is the peak temperature at sample i.
	PeakC []float64
	// Final is the full field at the last step.
	Final *Result
}

// TimeToFractionSec returns the first sampled time at which the peak
// temperature rise reaches the given fraction of the final rise, or
// ok=false if it never does within the trace.
func (tr *TransientResult) TimeToFractionSec(ambientC, frac float64) (float64, bool) {
	if len(tr.PeakC) == 0 {
		return 0, false
	}
	target := ambientC + frac*(tr.PeakC[len(tr.PeakC)-1]-ambientC)
	for i, p := range tr.PeakC {
		if p >= target {
			return tr.TimesSec[i], true
		}
	}
	return 0, false
}

// volHeatCapacity returns the volumetric heat capacity for a layer,
// inferred from its conductivity class when not meaningful to ask the
// caller: metals (k > 150) get copper's, semiconductors (k > 20) get
// silicon's, everything else polymer's.
func volHeatCapacity(k float64) float64 {
	switch {
	case k > 150:
		return CopperVolHeatCapacity
	case k > 20:
		return SiliconVolHeatCapacity
	default:
		return PolymerVolHeatCapacity
	}
}

// TransientStepper advances a stack's temperature field one implicit
// Euler step at a time under externally supplied, piecewise-constant
// power — the integration point for discrete-event scenario drivers
// (internal/des via internal/core), which batch utilization windows
// into one SetPower per layer per tick and then Step. The field starts
// at ambient; SetPower may change the trace between any two steps.
//
// A stepper solves in a workspace of its own, reading an assembled
// operator A + C/dt that any number of steppers may share: Fork returns
// another stepper on the same operator, so concurrent scenario draws
// assemble it once.
type TransientStepper struct {
	s     *Stack
	dtSec float64
	// ws is the solver arena. NewTransientStepper's stepper owns it and
	// holds the assembled operator in it; a fork reads that operator
	// through a share of it.
	ws      *Workspace
	cOverDt []float64 // read-only, shared with forks
	x       []float64 // rise above ambient
	q       []float64 // current volumetric power trace
	steps   int
}

// NewTransientStepper validates the stack and timestep and returns a
// stepper primed with the stack's own power maps (replaceable via
// SetPower). A NaN, infinite, or non-positive dtSec returns
// ErrInvalidStep. The stepper keeps ws (nil allocates one) for its
// lifetime, with the stepping operator assembled in it; the caller must
// not solve anything else in ws while the stepper or any of its forks
// is in use. The workspace forgets any steady operator and basis it
// held, so its next steady solve assembles afresh; transient steps do
// not project.
func (s *Stack) NewTransientStepper(dtSec float64, ws *Workspace) (*TransientStepper, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(dtSec) || math.IsInf(dtSec, 0) || dtSec <= 0 {
		return nil, fmt.Errorf("%w: dt %g s", ErrInvalidStep, dtSec)
	}
	nc := s.Grid * s.Grid
	nl := len(s.Layers)
	if ws == nil {
		ws = NewWorkspace()
	}
	cOverDt := make([]float64, nl*nc)
	cellArea := s.CellM * s.CellM
	for l := 0; l < nl; l++ {
		// Per-node heat capacity over dt.
		cap := volHeatCapacity(s.Layers[l].K[0]) * cellArea * s.Layers[l].ThicknessM / dtSec
		base := l * nc
		for idx := 0; idx < nc; idx++ {
			cOverDt[base+idx] = cap
		}
	}
	ws.op = nil
	ws.reserve(s.Grid, nl)
	if err := ws.assemble(s, cOverDt); err != nil {
		return nil, err
	}
	return newStepper(s, dtSec, ws, cOverDt), nil
}

// newStepper returns a stepper at ambient under s's own power maps,
// solving in ws on the operator already assembled there.
func newStepper(s *Stack, dtSec float64, ws *Workspace, cOverDt []float64) *TransientStepper {
	ts := &TransientStepper{
		s: s, dtSec: dtSec, ws: ws, cOverDt: cOverDt,
		x: make([]float64, len(cOverDt)),
		q: make([]float64, len(cOverDt)),
	}
	ts.Reset()
	return ts
}

// Fork returns a stepper on ts's stack, step size and assembled
// operator with solver state of its own, starting from ambient under the
// stack's own power maps as a new stepper does; it steps bit-identically
// to a stepper that assembled the same operator itself. A fork allocates
// its vectors but assembles nothing. No step writes the shared operator,
// so ts and its forks may step concurrently, one goroutine each. The
// operator lives in the workspace NewTransientStepper was given, which
// must stay unused by anything else while a fork steps.
func (ts *TransientStepper) Fork() *TransientStepper {
	return newStepper(ts.s, ts.dtSec, ts.ws.share(), ts.cOverDt)
}

// Reset returns the stepper to its starting state: the field at
// ambient, zero time integrated, and the stack's own power maps. It
// keeps the operator, so a reset stepper runs a new power trace exactly
// as a new stepper would.
func (ts *TransientStepper) Reset() {
	nc := ts.s.Grid * ts.s.Grid
	for l, layer := range ts.s.Layers {
		if layer.Power != nil {
			copy(ts.q[l*nc:(l+1)*nc], layer.Power)
		} else {
			clearFloats(ts.q[l*nc : (l+1)*nc])
		}
	}
	clearFloats(ts.x)
	ts.ws.clearVectors()
	ts.steps = 0
}

// DtSec returns the fixed step size.
func (ts *TransientStepper) DtSec() float64 { return ts.dtSec }

// TimeSec returns the virtual time integrated so far (steps taken
// times the step size).
func (ts *TransientStepper) TimeSec() float64 { return float64(ts.steps) * ts.dtSec }

// SetPower replaces the named layer's power map for subsequent steps.
// The map must match the grid and hold only finite, non-negative watts;
// violations return ErrNonFinitePower with the offending cell, leaving
// the trace unchanged.
func (ts *TransientStepper) SetPower(layerName string, power []float64) error {
	nc := ts.s.Grid * ts.s.Grid
	li := -1
	for l := range ts.s.Layers {
		if ts.s.Layers[l].Name == layerName {
			li = l
			break
		}
	}
	if li < 0 {
		return fmt.Errorf("thermal: no layer %q in stack", layerName)
	}
	if len(power) != nc {
		return fmt.Errorf("thermal: layer %q power map has %d cells, want %d", layerName, len(power), nc)
	}
	for i, p := range power {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return fmt.Errorf("%w: layer %q cell %d: %g W", ErrNonFinitePower, layerName, i, p)
		}
	}
	copy(ts.q[li*nc:(li+1)*nc], power)
	return nil
}

// Step advances one implicit Euler step under the current power trace
// and returns the full field, packaged like a steady solve, in a Result
// of its own that stays valid across later steps.
func (ts *TransientStepper) Step() (*Result, error) {
	res := &Result{}
	if err := ts.StepInto(res); err != nil {
		return nil, err
	}
	return res, nil
}

// StepInto is Step writing into a caller-owned Result, reusing its
// buffers when already sized: a step loop that recycles res allocates
// nothing. Each step solves the augmented SPD system
// (A + C/dt) x_{n+1} = q + (C/dt) x_n, warm-started from x_n.
func (ts *TransientStepper) StepInto(res *Result) error {
	rhs := ts.ws.rhs()
	for i := range rhs {
		rhs[i] = ts.q[i] + ts.cOverDt[i]*ts.x[i]
	}
	copy(ts.ws.rises(), ts.x)
	iters, _, err := ts.ws.solve(true)
	if err != nil {
		return err
	}
	copy(ts.x, ts.ws.rises())
	ts.steps++
	publishResult(ts.s, ts.x, iters, res)
	res.Projected = false
	return nil
}

// SolveTransient computes the step response: the stack starts at ambient
// everywhere, the power maps switch on at t=0, and the field is stepped
// with the implicit-Euler scheme. steps samples are taken dt apart.
func (s *Stack) SolveTransient(dt float64, steps int) (*TransientResult, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("%w: transient needs positive steps, got %d", ErrInvalidStep, steps)
	}
	ts, err := s.NewTransientStepper(dt, nil)
	if err != nil {
		return nil, err
	}
	tr := &TransientResult{}
	for step := 1; step <= steps; step++ {
		res, err := ts.Step()
		if err != nil {
			return nil, err
		}
		tr.TimesSec = append(tr.TimesSec, ts.TimeSec())
		tr.PeakC = append(tr.PeakC, res.PeakC)
		tr.Final = res
	}
	return tr, nil
}
