package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"sync"
	"time"

	"tesa/internal/area"
	"tesa/internal/cost"
	"tesa/internal/dnn"
	"tesa/internal/floorplan"
	"tesa/internal/memo"
	"tesa/internal/sched"
	"tesa/internal/sram"
	"tesa/internal/systolic"
)

// ModelVersion names the current revision of every analytical model the
// pipeline composes (systolic, SRAM, area, floorplan, sched, DRAM, cost,
// power, thermal). It versions the persistent memo cache: segments
// written under a different ModelVersion are skipped wholesale on load.
// Bump it whenever a model change can alter any memoized value — that is
// the cache's only invalidation rule, so reviewers should treat a model
// edit without a version bump as a bug.
const ModelVersion = "tesa-models-1"

// UseMemo replaces the evaluator's private memo store with s: stage
// results and whole-point DSE evaluations are served by
// content-addressed fingerprint, so evaluators sharing one store — sweep
// workers, annealing chains, the validation experiment's exhaustive and
// optimizer evaluators — compute each distinct input once. Every served
// value is one a fresh evaluator would have computed bit-identically, so
// results are unchanged; only wall-clock drops. Call before the first
// evaluation.
//
// Sharing a store between evaluators with different workloads, options,
// constraints or models is safe but pointless (keys are fingerprinted by
// configuration). An evaluator with an armed fault plan keeps running
// against a private store (see store).
func (e *Evaluator) UseMemo(s *memo.Store) { e.memo = s }

// Memo returns the memo store this evaluator's pipeline runs against.
func (e *Evaluator) Memo() *memo.Store { return e.store() }

// MemoStats returns a snapshot of that store's traffic counters; a
// shared store aggregates across every attached evaluator.
func (e *Evaluator) MemoStats() memo.Stats { return e.store().Stats() }

// LoadMemoDir opens (creating if needed) a persistent memo cache
// directory, seeds store with every record committed under the current
// ModelVersion, and attaches the directory so the store's subsequent
// evaluations are persisted for future processes. The returned closer
// flushes and closes this process's segment; call it before exit.
func LoadMemoDir(store *memo.Store, dir string) (func() error, error) {
	d, err := memo.OpenDisk(dir, ModelVersion)
	if err != nil {
		return nil, err
	}
	for _, rec := range d.Records() {
		switch memo.Kind(rec.K) {
		case "eval":
			var r evalRecord
			if json.Unmarshal(rec.V, &r) == nil {
				store.Seed(rec.K, r.evaluation())
			}
		case "screen":
			var sv screenVerdict
			if json.Unmarshal(rec.V, &sv) == nil {
				store.Seed(rec.K, sv)
			}
		case "thermal":
			var out thermalOutcome
			if json.Unmarshal(rec.V, &out) == nil {
				store.Seed(rec.K, out)
			}
		case "systolic":
			st := new(systolic.NetworkStats)
			if json.Unmarshal(rec.V, st) == nil {
				store.Seed(rec.K, st)
			}
		case "sram":
			var est sram.Estimate
			if json.Unmarshal(rec.V, &est) == nil {
				store.Seed(rec.K, est)
			}
		}
	}
	store.AttachDisk(d)
	return d.Close, nil
}

// fingerprints lazily computes the evaluator's canonical configuration
// fingerprints. cfgFP binds whole-point evaluations to everything that
// can change one: workload content, options, constraints, every model
// parameter, and the stage timeout. thermFP binds the thermal stage to
// the same minus what only reaches the objective or the budget checks
// (see thermalFP). perfFP binds the performance-model stages (systolic
// + power decomposition + schedule), which see only the workload, tech,
// frequency, dataflow and power parameters. netFPs fingerprint each
// network's content for per-network systolic keys; the workload enters
// the other three as its name plus those. It also renders the key
// prefix of each per-point record kind once, so a lookup only appends
// the two integers of its design vector (see pointKey).
func (e *Evaluator) fingerprints() {
	e.fpOnce.Do(func() {
		o := e.Opts
		e.netFPs = networkFPs(e.Workload.Networks)
		wl := workloadFP(e.Workload.Name, e.netFPs)
		e.cfgFP = memo.Hash("cfg", wl, o, e.Cons, e.Models, int64(e.stageTimeout))
		e.thermFP = thermalFP(wl, o, e.Cons, e.Models, e.stageTimeout)
		e.perfFP = memo.Hash("perf", wl, o.Tech, o.FreqHz, fmt.Sprint(o.Dataflow), e.Models.Power)
		e.evalPrefix = memo.Key("eval", e.cfgFP, "")
		e.screenPrefix = memo.Key("screen", e.cfgFP, "")
		e.thermPrefix = memo.Key("thermal", e.thermFP, "")
		e.profPrefix = memo.Key("profiles", e.perfFP, "")
	})
}

// pointKey completes a per-point key prefix from fingerprints with two
// integers: it returns memo.Key(kind, fp, strconv.Itoa(a),
// strconv.Itoa(b)) for prefix memo.Key(kind, fp, ""), built in a stack
// buffer with the returned string as its one allocation.
func pointKey(prefix string, a, b int) string {
	var buf [64]byte
	k := strconv.AppendInt(append(buf[:0], prefix...), int64(a), 10)
	k = strconv.AppendInt(append(k, '|'), int64(b), 10)
	return string(k)
}

// thermalFP is the fingerprint of a point's thermal inputs: cfgFP's
// inputs with the Eq. (6) weights and normalization refs and the fps,
// power and temperature budgets zeroed. The thermal stage reads the
// point's geometry and power, never those: the weights and refs reach
// only the objective, the fps budget only the latency check and DRAM
// power, and the power and temperature budgets only the feasibility
// checks after thermal (and whether DSE mode runs thermal at all, not
// what it computes). The stage timeout stays, because a waiter on a
// single-flight computation receives its peer's timeout error.
func thermalFP(wl string, o Options, c Constraints, m Models, timeout time.Duration) string {
	o.Alpha, o.Beta, o.RefCostUSD, o.RefDRAMWatts = 0, 0, 0, 0
	c.FPS, c.PowerBudgetW, c.TempBudgetC = 0, 0, 0
	return memo.Hash("thermal", wl, o, c, m, int64(timeout))
}

// builtinNetFPs are the network fingerprints of the process-wide AR/VR
// workload (dnn.SharedARVRWorkload), hashed once per process: every
// evaluator of a built-in job shares them.
var builtinNetFPs = sync.OnceValue(func() []string {
	return hashNetworks(dnn.SharedARVRWorkload().Networks)
})

// networkFPs returns one content fingerprint per network. Networks that
// are the shared built-in workload's own backing array, which is
// read-only, take builtinNetFPs; any other workload, a modified copy of
// the built-in one included, is hashed.
func networkFPs(nets []dnn.Network) []string {
	if shared := dnn.SharedARVRWorkload().Networks; len(nets) == len(shared) && len(nets) > 0 && &nets[0] == &shared[0] {
		return builtinNetFPs()
	}
	return hashNetworks(nets)
}

// hashNetworks fingerprints each network with networkFP.
func hashNetworks(nets []dnn.Network) []string {
	fps := make([]string, len(nets))
	for i := range nets {
		fps[i] = networkFP(&nets[i])
	}
	return fps
}

// networkFP fingerprints a network without reflection or fmt: its
// name, then every field of every layer in declaration order, rendered
// with strconv and hashed with 64-bit FNV-1a. Strings carry a length
// prefix and numbers a separator, so distinct networks encode to
// distinct byte streams. Each layer is hashed as it is encoded, which
// keeps the buffer one layer long. A field added to dnn.Layer must be
// added here too; TestFingerprintCoversEveryField fails until it is.
func networkFP(n *dnn.Network) string {
	h := fnv.New64a()
	buf := appendFPString(make([]byte, 0, 128), n.Name)
	for i := range n.Layers {
		l := &n.Layers[i]
		buf = appendFPString(append(buf, '\x1e'), l.Name)
		for _, v := range [...]int{int(l.Kind), l.InH, l.InW, l.InC, l.KH, l.KW,
			l.OutC, l.Stride, l.Pad, l.GemmM, l.GemmN, l.GemmK} {
			buf = strconv.AppendInt(append(buf, '\x1f'), int64(v), 10)
		}
		h.Write(buf)
		buf = buf[:0]
	}
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

// workloadFP fingerprints a workload from its name and its networks'
// fingerprints, in order.
func workloadFP(name string, netFPs []string) string {
	h := fnv.New64a()
	buf := appendFPString(make([]byte, 0, 32+17*len(netFPs)), name)
	for _, fp := range netFPs {
		buf = append(append(buf, '\x1e'), fp...)
	}
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

// appendFPString appends s to buf with its length as a prefix.
func appendFPString(buf []byte, s string) []byte {
	buf = strconv.AppendInt(buf, int64(len(s)), 10)
	return append(append(buf, ':'), s...)
}

// memoKind names a memoized computation; memoKinds holds the key kind
// of each, which its memo.hit.<kind> / memo.miss.<kind> counters carry.
type memoKind int

const (
	kindEval memoKind = iota
	kindScreen
	kindThermal
	kindProfiles
	kindSystolic
	kindSRAM
	kindSched
	numMemoKinds
)

var memoKinds = [numMemoKinds]string{"eval", "screen", "thermal", "profiles", "systolic", "sram", "sched"}

// memoCounter mirrors a store lookup into the telemetry hub as
// memo.hit.<kind> / memo.miss.<kind> counters.
func (e *Evaluator) memoCounter(kind memoKind, hit bool) {
	id := ctrMemo + 2*counterID(kind)
	if !hit {
		id++
	}
	e.counter(id).Inc()
}

// evalKey is the whole-point evaluation key: configuration fingerprint
// plus the design vector.
func (e *Evaluator) evalKey(p DesignPoint) string {
	e.fingerprints()
	return pointKey(e.evalPrefix, p.ArrayDim, p.ICSUM)
}

// sharedEvaluate is the one pipeline entry: whole-point DSE evaluations
// are shared through the store (single-flight across concurrent chains
// and evaluators, persisted when a disk is attached), while
// reporting-mode evaluations are only ever served by an equally full
// record — a compact or DSE record is upgraded by recomputing. ran
// reports whether this call ran the pipeline.
func (e *Evaluator) sharedEvaluate(p DesignPoint, full bool) (ev *Evaluation, ran bool, err error) {
	store := e.store()
	key := e.evalKey(p)
	if full {
		if v, ok := store.Get(key); ok {
			if ev := v.(*Evaluation); ev.Full {
				e.memoCounter(kindEval, true)
				return ev, false, nil
			}
		}
		ev, err := e.pipeline(p, modeFull)
		if err != nil {
			return nil, true, err
		}
		e.memoCounter(kindEval, false)
		store.Put(key, ev)
		return ev, true, nil
	}
	v, hit, err := store.GetOrCompute(key, func() (any, error) {
		ev, err := e.pipeline(p, modeDSE)
		if err != nil {
			return nil, err
		}
		persistEval(store, key, ev)
		return ev, nil
	})
	if err != nil {
		return nil, !hit, err
	}
	e.memoCounter(kindEval, hit)
	return v.(*Evaluation), !hit, nil
}

// screenVerdict is what the thermal-free prefix of the pipeline knows
// about a point: its Eq. (6) objective and whether it passed every
// check made before thermal. It is the value, and the persisted form,
// of a "screen" record.
type screenVerdict struct {
	Objective jf   `json:"objective"`
	Survives  bool `json:"survives"`
}

// screen is the screenFn of OptimizeContext's start sampling: it runs
// the pipeline up to thermal (modeScreen), where the Eq. (6) objective
// is already fixed and only thermal's violations are missing. The
// verdict is memoized as a "screen" record keyed like an eval record
// and persisted when a disk is attached. It never reads eval records,
// so which draws start sampling goes on to evaluate does not depend on
// what the store already holds. A failed screen is not memoized.
func (e *Evaluator) screen(p DesignPoint) (obj float64, survives bool, err error) {
	store := e.store()
	e.fingerprints()
	key := pointKey(e.screenPrefix, p.ArrayDim, p.ICSUM)
	v, hit, err := store.GetOrCompute(key, func() (any, error) {
		ev, err := e.pipeline(p, modeScreen)
		if err != nil {
			return nil, err
		}
		sv := screenVerdict{Objective: jf(ev.Objective), Survives: len(ev.Violations) == 0}
		if store.HasDisk() {
			if raw, err := json.Marshal(sv); err == nil {
				_ = store.Persist(key, raw)
			}
		}
		return sv, nil
	})
	if err != nil {
		return 0, false, err
	}
	e.memoCounter(kindScreen, hit)
	sv := v.(screenVerdict)
	return float64(sv.Objective), sv.Survives, nil
}

// thermalOutcome is what the thermal stage adds to a DSE evaluation:
// its peak temperature, runaway verdict, leakage iterations and power
// split. It is the value, and the persisted form, of a "thermal"
// record.
type thermalOutcome struct {
	PeakTempC     jf   `json:"peak_temp_c"`
	Runaway       bool `json:"runaway,omitempty"`
	LeakIters     int  `json:"leak_iters"`
	TotalPowerW   jf   `json:"total_power_w"`
	DynamicPowerW jf   `json:"dynamic_power_w"`
	LeakageW      jf   `json:"leakage_w"`
}

// sharedThermal is the thermal stage of a DSE evaluation, memoized as a
// "thermal" record keyed by thermFP and the design vector: every
// evaluator whose thermal inputs match — other constraint corners,
// other Eq. (6) weights, other jobs on a shared store — is served the
// outcome instead of solving again. The stage's span and guard run
// inside the memoized computation, so stage.thermal counts real
// analyses, and an outcome that fails the guard (a timeout, a
// non-finite value) is never stored. Records are persisted when a disk
// is attached. Reporting mode does not come here: it needs the thermal
// field, which no record holds.
func (e *Evaluator) sharedThermal(ev *Evaluation, profiles []netProfile, place *floorplan.Placement, est sram.Estimate) error {
	store := e.store()
	e.fingerprints()
	key := pointKey(e.thermPrefix, ev.Point.ArrayDim, ev.Point.ICSUM)
	v, hit, err := store.GetOrCompute(key, func() (any, error) {
		if err := e.thermalStage(ev, profiles, place, est); err != nil {
			return nil, err
		}
		out := thermalOutcome{
			PeakTempC:     jf(ev.PeakTempC),
			Runaway:       ev.Runaway,
			LeakIters:     ev.LeakIters,
			TotalPowerW:   jf(ev.TotalPowerW),
			DynamicPowerW: jf(ev.DynamicPowerW),
			LeakageW:      jf(ev.LeakageW),
		}
		if store.HasDisk() {
			if raw, err := json.Marshal(out); err == nil {
				_ = store.Persist(key, raw)
			}
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	e.memoCounter(kindThermal, hit)
	if hit {
		out := v.(thermalOutcome)
		ev.PeakTempC = float64(out.PeakTempC)
		ev.Runaway = out.Runaway
		ev.LeakIters = out.LeakIters
		ev.TotalPowerW = float64(out.TotalPowerW)
		ev.DynamicPowerW = float64(out.DynamicPowerW)
		ev.LeakageW = float64(out.LeakageW)
	}
	return nil
}

// profileBundle is the memoized output of the systolic stage for one
// array dimension: per-network simulation stats and dynamic power, the
// SRAM macro estimate, and the aggregates the stage guard validates.
// Bundles are immutable after construction and shared read-only.
type profileBundle struct {
	profiles   []netProfile
	est        sram.Estimate
	peakSRAMBw float64
	sumLat     float64
	sumDyn     float64
}

// profilesFor returns the systolic-stage bundle for arr through the
// store (keyed by the performance fingerprint and the array dimensions —
// dataflow and SRAM sizing are functions of those under one
// fingerprint).
func (e *Evaluator) profilesFor(arr systolic.Array, threeD bool) (*profileBundle, error) {
	e.fingerprints()
	key := pointKey(e.profPrefix, arr.Rows, arr.Cols)
	v, hit, err := e.store().GetOrCompute(key, func() (any, error) {
		return e.computeProfiles(arr, threeD)
	})
	e.memoCounter(kindProfiles, hit)
	if err != nil {
		return nil, err
	}
	return v.(*profileBundle), nil
}

// computeProfiles runs the systolic stage: the SRAM macro estimate, one
// simulation per network, and the power decomposition. The per-network
// simulations and the SRAM scalar are themselves memoized
// (and persisted), so bundles for new configurations reuse every
// sub-result other evaluators or prior runs computed.
func (e *Evaluator) computeProfiles(arr systolic.Array, threeD bool) (*profileBundle, error) {
	est, err := e.sramEstimate(arr.SRAMBytes)
	if err != nil {
		return nil, err
	}
	b := &profileBundle{
		profiles: make([]netProfile, len(e.Workload.Networks)),
		est:      est,
	}
	for i := range e.Workload.Networks {
		st, err := e.networkStats(arr, i)
		if err != nil {
			return nil, err
		}
		b.profiles[i] = netProfile{
			stats: st,
			dyn:   e.Models.Power.ChipletDynamic(st, est, e.Opts.FreqHz, threeD),
		}
		if st.PeakSRAMBytesPerCycle > b.peakSRAMBw {
			b.peakSRAMBw = st.PeakSRAMBytesPerCycle
		}
		// NaN propagates through the sums, so two scalars cover every
		// per-network latency and power output.
		b.sumLat += st.LatencySeconds(e.Opts.FreqHz)
		b.sumDyn += b.profiles[i].dyn.Total()
	}
	return b, nil
}

// networkStats returns one network's simulation stats, memoized by array
// geometry, dataflow, SRAM capacity and network content — deliberately
// not by frequency or power parameters, so records are shared across
// corners that only change those.
func (e *Evaluator) networkStats(arr systolic.Array, i int) (*systolic.NetworkStats, error) {
	store := e.store()
	key := memo.Key("systolic",
		strconv.Itoa(arr.Rows), strconv.Itoa(arr.Cols),
		fmt.Sprint(arr.Dataflow), strconv.FormatInt(arr.SRAMBytes, 10),
		e.netFPs[i])
	v, hit, err := store.GetOrCompute(key, func() (any, error) {
		st, err := e.sim.Simulate(arr, &e.Workload.Networks[i])
		if err != nil {
			return nil, err
		}
		if store.HasDisk() {
			if raw, err := json.Marshal(st); err == nil {
				_ = store.Persist(key, raw)
			}
		}
		return st, nil
	})
	e.memoCounter(kindSystolic, hit)
	if err != nil {
		return nil, err
	}
	return v.(*systolic.NetworkStats), nil
}

// sramEstimate returns the SRAM macro characterization, memoized by
// capacity alone (the model has no other inputs).
func (e *Evaluator) sramEstimate(bytes int64) (sram.Estimate, error) {
	store := e.store()
	key := memo.Key("sram", strconv.FormatInt(bytes, 10))
	v, hit, err := store.GetOrCompute(key, func() (any, error) {
		est, err := sram.Estimate22nm(bytes)
		if err != nil {
			return nil, err
		}
		if store.HasDisk() {
			if raw, err := json.Marshal(est); err == nil {
				_ = store.Persist(key, raw)
			}
		}
		return est, nil
	})
	e.memoCounter(kindSRAM, hit)
	if err != nil {
		return sram.Estimate{}, err
	}
	return v.(sram.Estimate), nil
}

// buildSchedule returns the static DNN-to-chiplet assignment, memoized
// by the content of its exact inputs (profile scalars, chiplet count,
// corner order) — immune to model reasoning, since equal inputs mean
// sched.Build returns an equal schedule.
func (e *Evaluator) buildSchedule(sp []sched.DNNProfile, n int, order []int) (*sched.Schedule, error) {
	key := schedKey(sp, n, order)
	v, hit, err := e.store().GetOrCompute(key, func() (any, error) {
		return sched.Build(sp, n, order)
	})
	e.memoCounter(kindSched, hit)
	if err != nil {
		return nil, err
	}
	return v.(*sched.Schedule), nil
}

// schedKey is the sched record key of buildSchedule's inputs, built
// without fmt: the profile count, then each profile's name with its
// length and the bits of its latency and power, then n, then order with
// its length, all as raw bytes. The encoding is injective, so keys are
// equal exactly when the inputs are. sched records are never persisted,
// so the key need not be printable. A field added to sched.DNNProfile
// must be added here too; TestSchedKeyCoversEveryInput fails until it is.
func schedKey(sp []sched.DNNProfile, n int, order []int) string {
	var stack [512]byte
	k := binary.AppendUvarint(append(stack[:0], "sched:"...), uint64(len(sp)))
	for i := range sp {
		k = binary.AppendUvarint(k, uint64(len(sp[i].Name)))
		k = append(k, sp[i].Name...)
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(sp[i].LatencySec))
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(sp[i].PowerWatts))
	}
	k = binary.AppendVarint(k, int64(n))
	k = binary.AppendUvarint(k, uint64(len(order)))
	for _, o := range order {
		k = binary.AppendVarint(k, int64(o))
	}
	return string(k)
}

// persistEval appends a compact record of a computed DSE evaluation to
// store's persistent segment, if one is attached. Only DSE-mode
// results are persisted: reporting-mode evaluations differ in objective
// semantics for infeasible points and carry structures (schedule,
// placement, thermal field) not worth serializing.
func persistEval(store *memo.Store, key string, ev *Evaluation) {
	if !store.HasDisk() || ev.Full {
		return
	}
	raw, err := json.Marshal(newEvalRecord(ev))
	if err != nil {
		return
	}
	_ = store.Persist(key, raw)
}

// jf is a float64 that survives JSON: NaN and the infinities — which
// infeasible evaluations legitimately carry (PeakTempC, Objective) —
// round-trip as strings, everything else as a shortest-round-trip
// number, so decoded values are bit-identical to encoded ones.
type jf float64

// MarshalJSON implements json.Marshaler.
func (f jf) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *jf) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = jf(math.NaN())
		case "+Inf":
			*f = jf(math.Inf(1))
		case "-Inf":
			*f = jf(math.Inf(-1))
		default:
			return fmt.Errorf("core: bad persisted float %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jf(v)
	return nil
}

// evalRecord is the persisted form of a DSE evaluation: every scalar a
// DSE consumer (annealer, sweep, progress reporting) reads, none of the
// per-point structures. A decoded record yields a compact Evaluation.
type evalRecord struct {
	Dim            int            `json:"dim"`
	ICS            int            `json:"ics"`
	Feasible       bool           `json:"feasible"`
	Violations     []string       `json:"violations,omitempty"`
	Fits           bool           `json:"fits"`
	Mesh           floorplan.Mesh `json:"mesh"`
	Chiplet        area.Chiplet   `json:"chiplet"`
	MakespanSec    jf             `json:"makespan_sec"`
	LatencyFactor  jf             `json:"latency_factor"`
	PeakTempC      jf             `json:"peak_temp_c"`
	Runaway        bool           `json:"runaway,omitempty"`
	LeakIters      int            `json:"leak_iters"`
	TotalPowerW    jf             `json:"total_power_w"`
	DynamicPowerW  jf             `json:"dynamic_power_w"`
	LeakageW       jf             `json:"leakage_w"`
	MCMCost        cost.Breakdown `json:"mcm_cost"`
	DRAMPowerW     jf             `json:"dram_power_w"`
	DRAMChannels   int            `json:"dram_channels"`
	OPS            jf             `json:"ops"`
	PeakOPS        jf             `json:"peak_ops"`
	Objective      jf             `json:"objective"`
	ChipletTraffic []int64        `json:"chiplet_traffic,omitempty"`
}

// newEvalRecord flattens a DSE evaluation into its persisted form.
func newEvalRecord(ev *Evaluation) *evalRecord {
	return &evalRecord{
		Dim:            ev.Point.ArrayDim,
		ICS:            ev.Point.ICSUM,
		Feasible:       ev.Feasible,
		Violations:     ev.Violations,
		Fits:           ev.Fits,
		Mesh:           ev.Mesh,
		Chiplet:        ev.Chiplet,
		MakespanSec:    jf(ev.MakespanSec),
		LatencyFactor:  jf(ev.LatencyFactor),
		PeakTempC:      jf(ev.PeakTempC),
		Runaway:        ev.Runaway,
		LeakIters:      ev.LeakIters,
		TotalPowerW:    jf(ev.TotalPowerW),
		DynamicPowerW:  jf(ev.DynamicPowerW),
		LeakageW:       jf(ev.LeakageW),
		MCMCost:        ev.MCMCost,
		DRAMPowerW:     jf(ev.DRAMPowerW),
		DRAMChannels:   ev.DRAMChannels,
		OPS:            jf(ev.OPS),
		PeakOPS:        jf(ev.PeakOPS),
		Objective:      jf(ev.Objective),
		ChipletTraffic: ev.ChipletTraffic,
	}
}

// evaluation rebuilds the compact Evaluation a record encodes. Schedule,
// Placement and the thermal field are nil — Compact reports that, and
// the engines upgrade a compact winner through EvaluateFullContext before
// reporting it.
func (r *evalRecord) evaluation() *Evaluation {
	return &Evaluation{
		Point:          DesignPoint{ArrayDim: r.Dim, ICSUM: r.ICS},
		Feasible:       r.Feasible,
		Violations:     r.Violations,
		Fits:           r.Fits,
		Mesh:           r.Mesh,
		Chiplet:        r.Chiplet,
		MakespanSec:    float64(r.MakespanSec),
		LatencyFactor:  float64(r.LatencyFactor),
		PeakTempC:      float64(r.PeakTempC),
		Runaway:        r.Runaway,
		LeakIters:      r.LeakIters,
		TotalPowerW:    float64(r.TotalPowerW),
		DynamicPowerW:  float64(r.DynamicPowerW),
		LeakageW:       float64(r.LeakageW),
		MCMCost:        r.MCMCost,
		DRAMPowerW:     float64(r.DRAMPowerW),
		DRAMChannels:   r.DRAMChannels,
		OPS:            float64(r.OPS),
		PeakOPS:        float64(r.PeakOPS),
		Objective:      float64(r.Objective),
		ChipletTraffic: r.ChipletTraffic,
		compact:        true,
	}
}
