package des

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
)

// Event kinds emitted by the scenario modules (and, with the same
// names, the "ev" field of the event log).
const (
	evArrive   = "arrive"
	evStart    = "start"
	evDone     = "done"
	evTick     = "tick"
	evThrottle = "throttle"
)

// Run executes one scenario against a platform and thermal stepper and
// returns its aggregated result. When logW is non-nil every simulation
// event is appended to it as one canonical JSONL line; two runs with
// identical inputs write identical bytes (the determinism contract the
// CI sim leg enforces). Run is single-threaded and returns the first
// module or stepper error.
func Run(sc Scenario, pl Platform, ts ThermalStepper, logW io.Writer) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(len(sc.Tenants)); err != nil {
		return nil, err
	}
	if ts == nil {
		return nil, fmt.Errorf("des: nil thermal stepper")
	}
	eng := &engine{
		sim: NewSimulator(),
		sc:  sc, pl: pl, ts: ts,
		rng:      rand.New(rand.NewSource(sc.Seed)),
		log:      logW,
		throttle: sc.Throttle.withDefaults(),
		minFreq:  1,
	}
	eng.freqFactor = eng.throttle.Levels[0]
	eng.minFreq = eng.freqFactor
	eng.servers = make([]*server, pl.Chiplets)
	for c := range eng.servers {
		eng.servers[c] = &server{eng: eng, chiplet: c}
	}
	eng.sources = make([]*source, len(sc.Tenants))
	eng.latencies = make([][]float64, len(sc.Tenants))
	for t := range sc.Tenants {
		src := &source{eng: eng, tenant: t, proc: sc.Tenants[t].Arrival.process(eng.rng)}
		eng.sources[t] = src
		if err := eng.sim.Schedule(src.proc.nextDelay(0), evArrive, src, nil); err != nil {
			return nil, err
		}
	}
	tick := &ticker{eng: eng}
	if err := eng.sim.Schedule(sc.ThermalDtSec, evTick, tick, nil); err != nil {
		return nil, err
	}
	if err := eng.sim.Run(sc.DurationSec); err != nil {
		return nil, err
	}
	if eng.err != nil {
		return nil, eng.err
	}
	return eng.finalize(), nil
}

// engine is the shared state of one scenario run.
type engine struct {
	sim *Simulator
	sc  Scenario
	pl  Platform
	ts  ThermalStepper
	rng *rand.Rand
	log io.Writer
	err error

	throttle   Throttle
	level      int
	freqFactor float64
	minFreq    float64
	levelSince float64 // virtual time the current level was entered
	throttled  float64 // accumulated seconds at level > 0

	sources []*source
	servers []*server

	nextID    int64
	requests  int64
	completed int64
	slaViol   int64
	throttles int64
	windows   int64
	steps     int
	latencies [][]float64 // per tenant, completion order
	envT      []float64
	envC      []float64
	peakC     float64
}

// request is one in-flight inference invocation.
type request struct {
	id        int64
	tenant    int
	arriveSec float64
}

// source generates one tenant's arrivals.
type source struct {
	eng    *engine
	tenant int
	proc   arrivalProcess
}

// Handle implements Module: admit the request and draw the next one.
func (s *source) Handle(sim *Simulator, e Event) {
	eng := s.eng
	eng.requests++
	eng.nextID++
	r := request{id: eng.nextID, tenant: s.tenant, arriveSec: sim.NowSec()}
	eng.logf(sim.NowSec(), e.Seq, evArrive, `"tenant":%q,"id":%d`, eng.sc.Tenants[s.tenant].Name, r.id)
	eng.servers[eng.pl.Chiplet[s.tenant]].enqueue(sim, r)
	sim.Schedule(s.proc.nextDelay(sim.NowSec()), evArrive, s, nil)
}

// server is one chiplet's non-preemptive FIFO queue plus the occupancy
// accounting that turns its service windows into tick-averaged power.
type server struct {
	eng     *engine
	chiplet int
	queue   []request
	busy    bool
	cur     request
	// curArrW/curSRAMW are the DVFS-scaled power draw of the running
	// service (frozen at service start, like the stretched latency).
	curArrW, curSRAMW float64
	// Energy accumulated since the last thermal tick, and the last
	// instant it was accumulated to.
	arrJ, sramJ float64
	lastSec     float64
	busySec     float64
	maxQueue    int
}

// enqueue admits a request; an idle server starts it immediately.
func (sv *server) enqueue(sim *Simulator, r request) {
	sv.queue = append(sv.queue, r)
	if len(sv.queue) > sv.maxQueue {
		sv.maxQueue = len(sv.queue)
	}
	if !sv.busy {
		sv.start(sim)
	}
}

// start begins serving the queue head. Service time and power draw are
// frozen at the current DVFS factor: latency stretches by 1/factor,
// dynamic power scales by factor (voltage held, see DESIGN.md §8).
func (sv *server) start(sim *Simulator) {
	eng := sv.eng
	sv.accumulate(sim.NowSec())
	r := sv.queue[0]
	sv.queue = sv.queue[1:]
	f := eng.freqFactor
	sv.busy = true
	sv.cur = r
	sv.curArrW = eng.pl.ArrayW[r.tenant] * f
	sv.curSRAMW = eng.pl.SRAMW[r.tenant] * f
	eng.logf(sim.NowSec(), 0, evStart, `"chiplet":%d,"tenant":%q,"id":%d,"freq":%s`,
		sv.chiplet, eng.sc.Tenants[r.tenant].Name, r.id, fnum(f))
	sim.Schedule(eng.pl.ServiceSec[r.tenant]/f, evDone, sv, nil)
}

// Handle implements Module: complete the running service, record its
// latency against the tenant's SLA, and start the next request.
func (sv *server) Handle(sim *Simulator, e Event) {
	eng := sv.eng
	sv.accumulate(sim.NowSec())
	r := sv.cur
	sv.busy = false
	eng.windows++
	eng.completed++
	lat := sim.NowSec() - r.arriveSec
	viol := lat > eng.sc.Tenants[r.tenant].SLASec
	if viol {
		eng.slaViol++
	}
	eng.latencies[r.tenant] = append(eng.latencies[r.tenant], lat)
	eng.logf(sim.NowSec(), e.Seq, evDone, `"id":%d,"latency_sec":%s,"sla_miss":%v`, r.id, fnum(lat), viol)
	if len(sv.queue) > 0 {
		sv.start(sim)
	}
}

// accumulate folds the service window since lastSec into the tick's
// energy integral — the exact (not sampled) window→power batching.
func (sv *server) accumulate(toSec float64) {
	if sv.busy {
		dt := toSec - sv.lastSec
		sv.arrJ += sv.curArrW * dt
		sv.sramJ += sv.curSRAMW * dt
		sv.busySec += dt
	}
	sv.lastSec = toSec
}

// ticker is the thermal-coupling module: every ThermalDtSec it batches
// the chiplets' utilization windows into one piecewise-constant power
// step, advances the transient solver, and lets the DVFS governor
// react to the new peak temperature.
type ticker struct {
	eng *engine
	k   int // completed tick count
}

// Handle implements Module.
func (t *ticker) Handle(sim *Simulator, e Event) {
	eng := t.eng
	now := sim.NowSec()
	dt := eng.sc.ThermalDtSec
	power := make([]ChipletPowerW, len(eng.servers))
	for c, sv := range eng.servers {
		sv.accumulate(now)
		power[c] = ChipletPowerW{ArrayW: sv.arrJ / dt, SRAMW: sv.sramJ / dt}
		sv.arrJ, sv.sramJ = 0, 0
	}
	peak, err := eng.ts.Step(dt, power)
	if err != nil {
		sim.Abort(fmt.Errorf("des: thermal step at t=%gs: %w", now, err))
		eng.err = eng.sim.err
		return
	}
	eng.steps++
	eng.envT = append(eng.envT, now)
	eng.envC = append(eng.envC, peak)
	if peak > eng.peakC || eng.steps == 1 {
		eng.peakC = peak
	}
	eng.logf(now, e.Seq, evTick, `"peak_c":%s,"freq":%s`, fnum(peak), fnum(eng.freqFactor))
	eng.govern(sim, e.Seq, peak)
	t.k++
	next := float64(t.k+1) * dt
	if next <= eng.sc.DurationSec+1e-12 {
		sim.Schedule(next-now, evTick, t, nil)
	}
}

// govern is the DVFS policy: one level down past the trip point, one
// level up once cooled below trip-hysteresis. Downward shifts count as
// throttling events.
func (eng *engine) govern(sim *Simulator, seq uint64, peakC float64) {
	p := eng.throttle
	switch {
	case peakC > p.TripC && eng.level < len(p.Levels)-1:
		eng.shift(sim, seq, eng.level+1, peakC)
		eng.throttles++
	case peakC < p.TripC-p.HysteresisC && eng.level > 0:
		eng.shift(sim, seq, eng.level-1, peakC)
	}
}

// shift moves the governor to the given level, re-freezing nothing:
// running services keep their start-time factor; only future starts
// see the new one.
func (eng *engine) shift(sim *Simulator, seq uint64, level int, peakC float64) {
	now := sim.NowSec()
	if eng.level > 0 {
		eng.throttled += now - eng.levelSince
	}
	eng.level = level
	eng.levelSince = now
	eng.freqFactor = eng.throttle.Levels[level]
	if eng.freqFactor < eng.minFreq {
		eng.minFreq = eng.freqFactor
	}
	eng.logf(now, seq, evThrottle, `"level":%d,"freq":%s,"peak_c":%s`, level, fnum(eng.freqFactor), fnum(peakC))
}

// finalize assembles the Result after the horizon.
func (eng *engine) finalize() *Result {
	end := eng.sc.DurationSec
	if eng.level > 0 {
		eng.throttled += end - eng.levelSince
	}
	res := &Result{
		Seed:           eng.sc.Seed,
		DurationSec:    end,
		Events:         eng.sim.Processed(),
		Requests:       eng.requests,
		Completed:      eng.completed,
		SLAViolations:  eng.slaViol,
		ThrottleEvents: eng.throttles,
		ThrottledSec:   eng.throttled,
		MinFreqFactor:  eng.minFreq,
		PeakTempC:      eng.peakC,
		Windows:        eng.windows,
		Steps:          eng.steps,
		Envelope:       Envelope{TimesSec: eng.envT, PeakC: eng.envC},
		Utilization:    make([]float64, len(eng.servers)),
		MaxQueue:       make([]int, len(eng.servers)),
	}
	for c, sv := range eng.servers {
		sv.accumulate(end)
		res.Utilization[c] = sv.busySec / end
		res.MaxQueue[c] = sv.maxQueue
		// Requests still waiting or running past their SLA at the
		// horizon are violations already — they can only finish later.
		res.QueuedAtEnd += int64(len(sv.queue))
		if sv.busy {
			res.QueuedAtEnd++
			if end-sv.cur.arriveSec > eng.sc.Tenants[sv.cur.tenant].SLASec {
				res.SLAViolations++
			}
		}
		for _, r := range sv.queue {
			if end-r.arriveSec > eng.sc.Tenants[r.tenant].SLASec {
				res.SLAViolations++
			}
		}
	}
	res.Tenants = make([]TenantStats, len(eng.sc.Tenants))
	for t := range eng.sc.Tenants {
		lats := eng.latencies[t]
		st := TenantStats{
			Name:      eng.sc.Tenants[t].Name,
			Completed: int64(len(lats)),
		}
		viol := 0
		for _, l := range lats {
			if l > eng.sc.Tenants[t].SLASec {
				viol++
			}
		}
		st.SLAViolations = int64(viol)
		st.P50Sec = percentile(lats, 0.50)
		st.P95Sec = percentile(lats, 0.95)
		st.P99Sec = percentile(lats, 0.99)
		res.Tenants[t] = st
	}
	// Per-tenant arrival counts: completed plus still in flight.
	for _, sv := range eng.servers {
		if sv.busy {
			res.Tenants[sv.cur.tenant].Requests++
		}
		for _, r := range sv.queue {
			res.Tenants[r.tenant].Requests++
		}
	}
	for t := range res.Tenants {
		res.Tenants[t].Requests += res.Tenants[t].Completed
	}
	return res
}

// logf appends one canonical event-log line. Floats go through fnum
// (shortest round-trip form), so identical runs write identical bytes.
func (eng *engine) logf(tSec float64, seq uint64, ev string, format string, args ...any) {
	if eng.log == nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"t":%s,"seq":%d,"ev":%q`, fnum(tSec), seq, ev)
	if format != "" {
		b.WriteByte(',')
		fmt.Fprintf(&b, format, args...)
	}
	b.WriteString("}\n")
	if _, err := io.WriteString(eng.log, b.String()); err != nil && eng.err == nil {
		eng.err = fmt.Errorf("des: event log: %w", err)
		eng.sim.Abort(eng.err)
	}
}

// fnum renders a float in its shortest round-trip decimal form — the
// canonical encoding of the event log and the envelope.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
