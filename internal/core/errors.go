package core

import (
	"errors"
	"fmt"

	"tesa/internal/thermal"
)

// Sentinel errors of the search layer. Callers match them with
// errors.Is; every error the engines return that represents one of these
// conditions wraps the corresponding sentinel (possibly with detail
// appended), so substring matching is never needed.
var (
	// ErrInvalidSpace marks a design space that cannot be searched:
	// empty axes, non-positive array dimensions, negative spacings, or a
	// design point off the space's axes.
	ErrInvalidSpace = errors.New("core: invalid design space")

	// ErrNoFeasibleStart is returned by the context-first optimizer
	// entrypoints when the initialization sampling (Fig. 4's "initialize
	// with a feasible MCM") finds no feasible configuration, i.e. the
	// paper's "solution does not exist" outcome.
	ErrNoFeasibleStart = errors.New("core: no feasible starting configuration")
)

// Evaluation-failure taxonomy. A failed evaluation of a single design
// point is always reported as an *EvalError wrapping one of these
// sentinels (or the raw model error), so the engines can tell a
// poisoned point — which they quarantine and skip — from an engine-level
// failure that must abort the run.
var (
	// ErrStagePanic marks a pipeline stage that panicked; the per-point
	// recover converted it into a structured error instead of killing
	// the worker pool.
	ErrStagePanic = errors.New("core: stage panic")

	// ErrNonFinite marks a NaN or Inf stage output caught by the
	// boundary validation before it could poison downstream stages or
	// the memo cache.
	ErrNonFinite = errors.New("core: non-finite stage output")

	// ErrSolverDiverged marks a thermal evaluation whose grid solve did
	// not converge (it wraps thermal.ErrNoConvergence).
	ErrSolverDiverged = errors.New("core: thermal solver diverged")

	// ErrStageTimeout marks a stage that exceeded the evaluator's
	// per-stage wall-clock budget (Evaluator.SetStageTimeout).
	ErrStageTimeout = errors.New("core: stage timeout")

	// ErrTooManyFailures aborts a sweep or optimization once more points
	// were quarantined than the run's MaxFailures policy tolerates.
	ErrTooManyFailures = errors.New("core: too many failed evaluations")
)

// EvalError is the structured failure of one design-point evaluation:
// which stage failed, for which point, and why. It wraps the underlying
// cause (one of the taxonomy sentinels above, or a raw model error), so
// errors.Is and errors.As both work through it. The engines treat any
// *EvalError as point-local: the point is quarantined with its reason
// and the run continues; every other error aborts the run.
type EvalError struct {
	// Stage is the pipeline stage that failed ("systolic", "floorplan",
	// "sched", "dram", "cost", "thermal", or "pipeline" when the failure
	// could not be attributed).
	Stage string
	// Point is the design point being evaluated.
	Point DesignPoint
	// Err is the underlying cause.
	Err error
	// Trace is the failing goroutine's flight-recorder dump — its most
	// recent stage events, oldest first — captured when the point was
	// quarantined. Nil when the evaluator was not instrumented (or the
	// pipeline ran on another goroutine via the shared memo store's
	// single-flight path).
	Trace []string
}

// Error formats the failure with its full context.
func (e *EvalError) Error() string {
	return fmt.Sprintf("core: evaluation of %v failed at stage %s: %v", e.Point, e.Stage, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *EvalError) Unwrap() error { return e.Err }

// Reason returns the short machine-readable failure class used in
// quarantine ledgers, eval.quarantined trace events, and telemetry
// counter names: "panic", "non-finite", "solver-diverged", "timeout",
// "invalid-step", or "error". The thermal package's transient input
// sentinels map into the same classes, so a DES scenario that feeds the
// solver a bad power trace or timestep quarantines exactly like any
// other poisoned point.
func (e *EvalError) Reason() string {
	switch {
	case errors.Is(e.Err, ErrStagePanic):
		return "panic"
	case errors.Is(e.Err, ErrNonFinite), errors.Is(e.Err, thermal.ErrNonFinitePower):
		return "non-finite"
	case errors.Is(e.Err, ErrSolverDiverged):
		return "solver-diverged"
	case errors.Is(e.Err, ErrStageTimeout):
		return "timeout"
	case errors.Is(e.Err, thermal.ErrInvalidStep):
		return "invalid-step"
	default:
		return "error"
	}
}

// QuarantinedPoint is one entry of a run's quarantine ledger: a design
// point whose evaluation failed, with the stage and failure class.
type QuarantinedPoint struct {
	Point  DesignPoint
	Stage  string
	Reason string
	// Trace is the flight-recorder dump captured at quarantine time (see
	// EvalError.Trace); nil when flight recording was off.
	Trace []string
}

// String formats the ledger entry for CLI failure summaries.
func (q QuarantinedPoint) String() string {
	return fmt.Sprintf("%v: %s at stage %s", q.Point, q.Reason, q.Stage)
}

// asEvalError extracts the structured per-point failure, if the error is
// one (directly or wrapped).
func asEvalError(err error) (*EvalError, bool) {
	var ee *EvalError
	if errors.As(err, &ee) {
		return ee, true
	}
	return nil, false
}
