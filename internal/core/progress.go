package core

import "time"

// Progress is one incremental update from a long-running search. The
// engines emit it through a ProgressFunc so CLIs can render live
// status lines and callers can react (e.g. cancel a context once the
// incumbent is good enough) without waiting for the run to finish.
type Progress struct {
	// Phase names the emitting engine stage: "anneal" for the
	// multi-start optimizer, "sweep" for the exhaustive engine.
	Phase string
	// Done counts completed evaluations (anneal) or evaluated points
	// (sweep); Total is the number of points in the space for sweeps
	// and 0 for anneal runs, whose length is not known in advance.
	Done, Total int
	// Incumbent is the best feasible evaluation seen so far, nil while
	// nothing feasible has been found.
	Incumbent *Evaluation
	// Improved marks updates that announce a new incumbent (as opposed
	// to periodic completion ticks).
	Improved bool
	// Quarantined counts design points whose evaluation failed and was
	// quarantined so far.
	Quarantined int
	// Elapsed is the wall-clock time since the engine started.
	Elapsed time.Duration
}

// ProgressFunc receives Progress updates. The engines serialize calls
// (no two run concurrently) and invoke it synchronously on a worker
// goroutine, so it must be fast and must not block; slow consumers
// should buffer. A nil ProgressFunc disables streaming at zero cost.
type ProgressFunc func(Progress)

// progressReporter serializes incumbent tracking and Progress emission
// for engines whose workers run in parallel. The zero value with a nil
// fn is a no-op.
type progressReporter struct {
	fn    ProgressFunc
	phase string
	total int
	began time.Time
}

func newProgressReporter(fn ProgressFunc, phase string, total int) *progressReporter {
	return &progressReporter{fn: fn, phase: phase, total: total, began: time.Now()}
}

// emit sends one update; callers must already hold whatever lock
// serializes their incumbent state.
func (r *progressReporter) emit(done int, incumbent *Evaluation, improved bool, quarantined int) {
	if r == nil || r.fn == nil {
		return
	}
	r.fn(Progress{
		Phase:       r.phase,
		Done:        done,
		Total:       r.total,
		Incumbent:   incumbent,
		Improved:    improved,
		Quarantined: quarantined,
		Elapsed:     time.Since(r.began),
	})
}
