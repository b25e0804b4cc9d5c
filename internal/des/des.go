// Package des is a small deterministic discrete-event simulation core
// plus the scenario modules that turn it into a dynamic multi-tenant
// workload generator for MCM accelerators: seeded request-arrival
// processes (Poisson, diurnal, bursty MMPP), per-tenant queues with SLA
// tail-latency tracking, a placement/occupancy module that maps active
// DNN invocations to per-chiplet utilization windows, and a
// thermal-coupling module that batches those windows into
// piecewise-constant power traces for a transient thermal solver,
// closing the loop through a simple DVFS throttling governor.
//
// The package deliberately knows nothing about the TESA evaluation
// pipeline: the hardware is abstracted as a Platform (per-tenant
// service times, chiplet assignment, and power splits) and the thermal
// solver as a ThermalStepper, both provided by the caller
// (internal/core wires them from an Evaluation and
// internal/thermal's transient solver).
//
// Determinism contract: a scenario run is a pure function of
// (Scenario, Platform, ThermalStepper). All randomness flows from one
// seeded generator consumed in event order, event ties are broken by
// schedule order (a strictly increasing sequence number), no map is
// iterated, and the event log is formatted with canonical float
// encoding — so two runs with the same seed produce bit-identical
// event logs and temperature envelopes. See DESIGN.md §8.
package des

import (
	"container/heap"
	"fmt"
	"math"
)

// Module is one simulation component: events addressed to it are
// delivered in virtual-time order via Handle, which may schedule
// further events on the Simulator.
type Module interface {
	// Handle processes one event addressed to this module. The
	// simulator's virtual clock already stands at the event's time.
	Handle(s *Simulator, e Event)
}

// Event is one scheduled occurrence in virtual time.
type Event struct {
	// AtSec is the virtual time the event fires.
	AtSec float64
	// Seq is the schedule-order sequence number, the deterministic
	// tie-break between events scheduled for the same instant: of two
	// simultaneous events, the one scheduled first fires first.
	Seq uint64
	// Kind names the event for the module's dispatch and the log.
	Kind string
	// To is the module the event is addressed to.
	To Module
	// Data is the event payload (module-defined; may be nil).
	Data any
}

// Simulator is the deterministic event core: a virtual clock and a
// binary-heap event queue ordered by (AtSec, Seq).
type Simulator struct {
	nowSec    float64
	seq       uint64
	queue     eventQueue
	processed int
	err       error
}

// NewSimulator returns an empty simulator with the clock at zero.
func NewSimulator() *Simulator { return &Simulator{} }

// NowSec returns the current virtual time in seconds.
func (s *Simulator) NowSec() float64 { return s.nowSec }

// Processed returns the number of events handled so far.
func (s *Simulator) Processed() int { return s.processed }

// Schedule enqueues an event delaySec after the current virtual time.
// A negative or non-finite delay, or a nil module, is a scenario bug:
// it is recorded as the simulation's sticky error (surfaced by Run)
// and the event is dropped.
func (s *Simulator) Schedule(delaySec float64, kind string, to Module, data any) error {
	if math.IsNaN(delaySec) || math.IsInf(delaySec, 0) || delaySec < 0 {
		return s.fail(fmt.Errorf("des: event %q scheduled with invalid delay %g", kind, delaySec))
	}
	if to == nil {
		return s.fail(fmt.Errorf("des: event %q scheduled to a nil module", kind))
	}
	s.seq++
	heap.Push(&s.queue, Event{AtSec: s.nowSec + delaySec, Seq: s.seq, Kind: kind, To: to, Data: data})
	return nil
}

// Abort records err as the simulation's sticky error, making Run stop
// before dispatching any further event. Modules call it when an
// external coupling (e.g. the thermal stepper) fails mid-run.
func (s *Simulator) Abort(err error) {
	if err != nil {
		s.fail(err)
	}
}

// fail records the first scheduling error; later ones are dropped so
// the root cause is what Run reports.
func (s *Simulator) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return err
}

// Run processes events in (time, sequence) order until the queue holds
// nothing at or before untilSec, then advances the clock to untilSec.
// Events scheduled beyond the horizon stay queued (and unprocessed).
// Returns the first scheduling error, if any occurred.
func (s *Simulator) Run(untilSec float64) error {
	if math.IsNaN(untilSec) || untilSec < s.nowSec {
		return s.fail(fmt.Errorf("des: run horizon %g behind the clock %g", untilSec, s.nowSec))
	}
	for s.err == nil && s.queue.Len() > 0 && s.queue[0].AtSec <= untilSec {
		e := heap.Pop(&s.queue).(Event)
		s.nowSec = e.AtSec
		s.processed++
		e.To.Handle(s, e)
	}
	if s.err != nil {
		return s.err
	}
	s.nowSec = untilSec
	return nil
}

// eventQueue is the binary heap ordering events by (AtSec, Seq).
type eventQueue []Event

// Len implements heap.Interface.
func (q eventQueue) Len() int { return len(q) }

// Less orders by virtual time, ties broken by schedule order.
func (q eventQueue) Less(i, j int) bool {
	if q[i].AtSec != q[j].AtSec {
		return q[i].AtSec < q[j].AtSec
	}
	return q[i].Seq < q[j].Seq
}

// Swap implements heap.Interface.
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// Push implements heap.Interface.
func (q *eventQueue) Push(x any) { *q = append(*q, x.(Event)) }

// Pop implements heap.Interface.
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}
