package jobspec

import (
	"math"

	"tesa/internal/core"
	"tesa/internal/des"
)

// Result is the JSON-safe outcome of a job: the structured subset of
// the engine results that serializes deterministically (no durations,
// no NaN — every float is finite by construction), so the same spec run
// through the library, a CLI, or tesa-server marshals to identical
// bytes.
type Result struct {
	// Kind echoes the job kind that produced the result.
	Kind string `json:"kind"`
	// Found is false when the run saw no feasible configuration (the
	// paper's "solution does not exist" outcome).
	Found bool `json:"found"`
	// Best is the winning MCM (absent when Found is false).
	Best *Best `json:"best,omitempty"`
	// Evaluations counts annealer evaluations including cache hits;
	// Explored counts distinct design points actually evaluated
	// (optimize jobs and weights fronts).
	Evaluations int `json:"evaluations,omitempty"`
	Explored    int `json:"explored,omitempty"`
	// Feasible / Evaluated / Total are the sweep tallies (sweep jobs
	// and exact fronts).
	Feasible  int `json:"feasible,omitempty"`
	Evaluated int `json:"evaluated,omitempty"`
	Total     int `json:"total,omitempty"`
	// Quarantined counts distinct design points whose evaluation failed;
	// the engines skipped them and continued.
	Quarantined int `json:"quarantined,omitempty"`
	// FrontEngine says which engine traced Front: "weights" (the Eq. 6
	// weight sweep, in weight order) or "exact" (the non-dominated front
	// of the whole space, sorted by cost, DRAM power, then peak).
	FrontEngine string `json:"front_engine,omitempty"`
	// Front is the traced front of a pareto job.
	Front []FrontPoint `json:"front,omitempty"`
	// Sim is the dynamic-workload outcome of a sim job (absent when the
	// point does not fit the interposer — Found is false then).
	Sim *SimOutcome `json:"sim,omitempty"`
}

// Best is the JSON-safe projection of a winning Evaluation.
type Best struct {
	// ArrayDim and ICSUM are the design point; SRAMKB is the derived
	// per-SRAM capacity.
	ArrayDim int `json:"array_dim"`
	ICSUM    int `json:"ics_um"`
	SRAMKB   int `json:"sram_kb"`
	// MeshRows x MeshCols is the derived chiplet mesh.
	MeshRows int `json:"mesh_rows"`
	MeshCols int `json:"mesh_cols"`
	// Objective is the Eq. (6) value; the remaining fields are the
	// table-level characterization of the MCM.
	Objective   float64 `json:"objective"`
	PeakTempC   float64 `json:"peak_temp_c"`
	TotalPowerW float64 `json:"total_power_w"`
	MakespanMS  float64 `json:"makespan_ms"`
	CostUSD     float64 `json:"cost_usd"`
	DRAMPowerW  float64 `json:"dram_power_w"`
}

// FrontPoint is one point of a pareto job's traced front: a weight
// setting of a weights front, or a member of an exact front.
type FrontPoint struct {
	// Alpha and Beta are the Eq. (6) weights of this setting (zero on
	// an exact front).
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	// Found is false when this weight setting had no feasible MCM.
	Found bool `json:"found"`
	// Best is the setting's winner (absent when Found is false).
	Best *Best `json:"best,omitempty"`
	// Duplicate marks a winner already traced by an earlier weight.
	Duplicate bool `json:"duplicate,omitempty"`
}

// SimOutcome is the JSON-safe outcome of a sim job: the base-seed run's
// summary, the N-draw scenario-distribution score, and the
// static-vs-dynamic objective comparison. The static characterization
// of the point itself rides in Result.Best.
type SimOutcome struct {
	// ArrayDim and ICSUM are the simulated design point; Seed is the
	// base scenario seed and Draws the distribution size.
	ArrayDim int   `json:"array_dim"`
	ICSUM    int   `json:"ics_um"`
	Seed     int64 `json:"seed"`
	Draws    int   `json:"draws"`
	// DurationSec through PeakTempC summarize the base-seed run.
	DurationSec    float64 `json:"duration_sec"`
	Requests       int64   `json:"requests"`
	Completed      int64   `json:"completed"`
	SLAViolations  int64   `json:"sla_violations"`
	ThrottleEvents int64   `json:"throttle_events"`
	ThrottledSec   float64 `json:"throttled_sec"`
	MinFreqFactor  float64 `json:"min_freq_factor"`
	PeakTempC      float64 `json:"peak_temp_c"`
	// Tenants are the base-seed per-tenant tallies and latency
	// percentiles.
	Tenants []des.TenantStats `json:"tenants"`
	// Score aggregates the N-draw scenario distribution.
	Score core.SimScore `json:"score"`
	// StaticObjective is the steady-state Eq. (6) value of the point;
	// CombinedObjective inflates it by the dynamic penalty
	// (static x (1 + penalty)) — the value sim-aware rankings sort by.
	StaticObjective   float64 `json:"static_objective"`
	CombinedObjective float64 `json:"combined_objective"`
}

// fin clamps non-finite values to 0 so a Result always marshals to
// valid JSON (PeakTempC is NaN under thermal-disabled baselines).
func fin(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// bestOf projects an Evaluation into the wire form.
func bestOf(ev *core.Evaluation) *Best {
	return &Best{
		ArrayDim:    ev.Point.ArrayDim,
		ICSUM:       ev.Point.ICSUM,
		SRAMKB:      ev.Point.SRAMKB(),
		MeshRows:    ev.Mesh.Rows,
		MeshCols:    ev.Mesh.Cols,
		Objective:   fin(ev.Objective),
		PeakTempC:   fin(ev.PeakTempC),
		TotalPowerW: fin(ev.TotalPowerW),
		MakespanMS:  fin(ev.MakespanSec * 1e3),
		CostUSD:     fin(ev.MCMCost.Total),
		DRAMPowerW:  fin(ev.DRAMPowerW),
	}
}

// FromOptimize projects an optimizer outcome into the wire form.
func FromOptimize(res *core.OptimizeResult) *Result {
	out := &Result{
		Kind:        KindOptimize,
		Found:       res.Found,
		Evaluations: res.Evaluations,
		Explored:    res.Explored,
		Quarantined: res.Quarantined,
	}
	if res.Found && res.Best != nil {
		out.Best = bestOf(res.Best)
	}
	return out
}

// FromSim projects a sim run — the point's static evaluation, its
// base-seed DES run, and the N-draw distribution score — into the wire
// form.
func FromSim(ev *core.Evaluation, base *des.Result, score *core.SimScore) *Result {
	sc := *score
	sc.MeanSLARate = fin(sc.MeanSLARate)
	sc.MaxSLARate = fin(sc.MaxSLARate)
	sc.MeanThrottledFrac = fin(sc.MeanThrottledFrac)
	sc.MeanPeakC = fin(sc.MeanPeakC)
	sc.MaxPeakC = fin(sc.MaxPeakC)
	sc.WorstP99Sec = fin(sc.WorstP99Sec)
	tenants := make([]des.TenantStats, len(base.Tenants))
	for i, ts := range base.Tenants {
		ts.P50Sec = fin(ts.P50Sec)
		ts.P95Sec = fin(ts.P95Sec)
		ts.P99Sec = fin(ts.P99Sec)
		tenants[i] = ts
	}
	return &Result{
		Kind:  KindSim,
		Found: true,
		Best:  bestOf(ev),
		Sim: &SimOutcome{
			ArrayDim:          ev.Point.ArrayDim,
			ICSUM:             ev.Point.ICSUM,
			Seed:              base.Seed,
			Draws:             score.Draws,
			DurationSec:       fin(base.DurationSec),
			Requests:          base.Requests,
			Completed:         base.Completed,
			SLAViolations:     base.SLAViolations,
			ThrottleEvents:    base.ThrottleEvents,
			ThrottledSec:      fin(base.ThrottledSec),
			MinFreqFactor:     fin(base.MinFreqFactor),
			PeakTempC:         fin(base.PeakTempC),
			Tenants:           tenants,
			Score:             sc,
			StaticObjective:   fin(ev.Objective),
			CombinedObjective: fin(score.CombinedObjective(ev.Objective)),
		},
	}
}

// FromSweep projects a sweep outcome into the wire form.
func FromSweep(res *core.ExhaustiveResult) *Result {
	out := &Result{
		Kind:        KindSweep,
		Found:       res.Best != nil,
		Feasible:    res.Feasible,
		Evaluated:   res.Evaluated,
		Total:       res.Total,
		Quarantined: res.Quarantined,
	}
	if res.Best != nil {
		out.Best = bestOf(res.Best)
	}
	return out
}
