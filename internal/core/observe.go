package core

import (
	"sync/atomic"

	"tesa/internal/anneal"
	"tesa/internal/telemetry"
)

// counterID indexes the counters an evaluation bumps on every call;
// counterNames holds their registry names.
type counterID int

const (
	ctrCacheHit counterID = iota
	ctrCacheMiss
	ctrFeasible
	ctrInfeasible
	// ctrMemo is the first memo counter: memoKind k counts its hits at
	// ctrMemo+2k and its misses right after.
	ctrMemo
	numCounters = ctrMemo + 2*counterID(numMemoKinds)
)

var counterNames = func() (n [numCounters]string) {
	n[ctrCacheHit] = "evaluator.cache.hit"
	n[ctrCacheMiss] = "evaluator.cache.miss"
	n[ctrFeasible] = "evaluator.feasible"
	n[ctrInfeasible] = "evaluator.infeasible"
	for k, kind := range memoKinds {
		n[ctrMemo+2*counterID(k)] = "memo.hit." + kind
		n[ctrMemo+2*counterID(k)+1] = "memo.miss." + kind
	}
	return n
}()

// counterHandles holds an evaluator's counter handles, each resolved
// from the hub's registry on first use, so the hot path skips the
// registry's lock and map and a counter still enters the registry only
// when first bumped.
type counterHandles [numCounters]atomic.Pointer[telemetry.Counter]

// counter returns the handle of counter id: nil, a no-op, when the
// evaluator is uninstrumented.
func (e *Evaluator) counter(id counterID) *telemetry.Counter {
	if e.ctrs == nil {
		return nil
	}
	if c := e.ctrs[id].Load(); c != nil {
		return c
	}
	c := e.tel.Registry().Counter(counterNames[id])
	e.ctrs[id].Store(c)
	return c
}

// annealObserver bridges annealer progress into the telemetry hub:
// move-outcome counters always, plus one trace event per temperature
// level and per annealer lifecycle edge when a sink is attached. It is
// shared by the three parallel starts, which is safe because both the
// registry and the sink serialize internally.
type annealObserver struct {
	tel *telemetry.Telemetry
}

func (o *annealObserver) AnnealStart(e anneal.StartEvent) {
	o.tel.Emit("anneal.start", map[string]any{
		"start":  e.Start,
		"tinit":  e.TInit,
		"tfinal": e.TFinal,
		"decay":  e.Decay,
		"seed":   e.Seed,
	})
}

func (o *annealObserver) AnnealLevel(e anneal.LevelEvent) {
	reg := o.tel.Registry()
	reg.Counter("anneal.accepted").Add(int64(e.Accepted))
	reg.Counter("anneal.uphill").Add(int64(e.Uphill))
	reg.Counter("anneal.rejected").Add(int64(e.Rejected))
	reg.Counter("anneal.infeasible").Add(int64(e.Infeasible))
	if !o.tel.Tracing() {
		return // skip the field-map allocation when nothing consumes it
	}
	o.tel.Emit("anneal.level", map[string]any{
		"start":       e.Start,
		"level":       e.Level,
		"temp":        e.Temperature,
		"cur_obj":     e.CurObj,
		"best_obj":    e.BestObj,
		"accepted":    e.Accepted,
		"uphill":      e.Uphill,
		"rejected":    e.Rejected,
		"infeasible":  e.Infeasible,
		"evaluations": e.Evaluations,
		"duration_ms": float64(e.Duration.Microseconds()) / 1e3,
	})
}

func (o *annealObserver) AnnealDone(e anneal.DoneEvent) {
	if !o.tel.Tracing() {
		return
	}
	o.tel.Emit("anneal.done", map[string]any{
		"start":       e.Start,
		"found":       e.Found,
		"best_obj":    e.BestObj,
		"levels":      e.Levels,
		"evaluations": e.Evaluations,
		"accepted":    e.Accepted,
		"uphill":      e.Uphill,
		"duration_ms": float64(e.Duration.Microseconds()) / 1e3,
	})
}
