// Package core implements TESA itself: the temperature-aware methodology
// that sizes and places systolic-array accelerator chiplets on an MCM for
// multi-DNN workloads (Fig. 2b of the paper).
//
// The package wires the substrate models together — performance
// (internal/systolic), SRAM (internal/sram), power and leakage
// (internal/power), DRAM (internal/dram), area (internal/area), cost
// (internal/cost), floorplanning (internal/floorplan), thermal
// (internal/thermal) and scheduling (internal/sched) — into a single
// design-point evaluation, and drives it with the multi-start
// simulated-annealing optimizer (internal/anneal). It also implements the
// paper's comparison baselines (SC1, SC2, W1, W2), exhaustive search for
// optimizer validation, and the experiment drivers that regenerate every
// table and figure.
package core

import (
	"fmt"

	"tesa/internal/cost"
	"tesa/internal/dram"
	"tesa/internal/power"
	"tesa/internal/systolic"
	"tesa/internal/thermal"
)

// Tech selects the chiplet integration technology.
type Tech int

const (
	// Tech2D places each systolic array and its SRAMs side by side on a
	// single die.
	Tech2D Tech = iota
	// Tech3D stacks the SRAM tier underneath the systolic-array tier in
	// a face-to-back two-tier chiplet with TSV interconnect (Fig. 3).
	Tech3D
)

// String returns "2D" or "3D".
func (t Tech) String() string {
	if t == Tech3D {
		return "3D"
	}
	return "2D"
}

// Constraints are the user-defined limits a feasible MCM must satisfy
// (Table II).
type Constraints struct {
	// FPS is the frame-rate (latency) constraint: every DNN of the
	// workload must complete within one 1/FPS frame period.
	FPS float64
	// PowerBudgetW bounds the MCM's chiplet power (dynamic plus leakage
	// at the converged temperature) — 15 W for edge devices [23].
	PowerBudgetW float64
	// TempBudgetC bounds the peak junction temperature (75 or 85 C).
	TempBudgetC float64
	// InterposerMM is the (square) interposer side length — 8 mm.
	InterposerMM float64
}

// Validate reports an error for unusable constraint sets.
func (c Constraints) Validate() error {
	if c.FPS <= 0 || c.PowerBudgetW <= 0 || c.TempBudgetC <= 0 || c.InterposerMM <= 0 {
		return fmt.Errorf("core: non-positive constraints %+v", c)
	}
	return nil
}

// DefaultConstraints returns the paper's canonical corner: 30 fps, 15 W,
// 75 C, 8x8 mm.
func DefaultConstraints() Constraints {
	return Constraints{FPS: 30, PowerBudgetW: 15, TempBudgetC: 75, InterposerMM: 8}
}

// Options configure how a design point is evaluated.
type Options struct {
	Tech     Tech
	FreqHz   float64
	Dataflow systolic.Dataflow
	// Grid is the thermal grid resolution (cells per interposer side).
	// The paper uses 125 um cells, i.e. 64 on the 8 mm interposer.
	Grid int
	// Alpha and Beta weight the Eq. (6) objective terms (MCM cost and
	// DRAM power); the paper's experiments use 1 and 1.
	Alpha, Beta float64
	// MaxChiplets caps the mesh at the workload's DNN count to avoid
	// over-provisioning; 0 means "number of DNNs".
	MaxChiplets int
	// MinChiplets, when positive, excludes configurations with fewer
	// chiplets (the paper targets multi-accelerator MCMs). The default
	// space never derives a 1x1 mesh anyway — even the largest chiplet
	// fits at least twice on the 8 mm interposer.
	MinChiplets int
	// RefCostUSD and RefDRAMWatts normalize the objective terms.
	RefCostUSD, RefDRAMWatts float64

	// Baseline behaviour switches (the paper's SC2/W1/W2 adoptions).
	//
	// DisableThermal skips the thermal and leakage models entirely and
	// applies the power constraint to dynamic power only (baseline SC2).
	DisableThermal bool
	// NoLeakage keeps the thermal model but ignores leakage, as W1 [4]
	// does.
	NoLeakage bool
	// LinearLeakage replaces the exponential leakage model with a linear
	// under-estimate, as W2 [3] does.
	LinearLeakage bool
}

// DefaultOptions returns the evaluation configuration used by the
// paper's experiments: 2-D chiplets, 400 MHz, output-stationary dataflow,
// the 125 um HotSpot grid, and alpha = beta = 1.
func DefaultOptions() Options {
	return Options{
		Tech:         Tech2D,
		FreqHz:       400e6,
		Dataflow:     systolic.OutputStationary,
		Grid:         64,
		Alpha:        1,
		Beta:         1,
		MinChiplets:  2,
		RefCostUSD:   10,
		RefDRAMWatts: 5,
	}
}

// Validate reports an error for unusable options.
func (o Options) Validate() error {
	if o.FreqHz <= 0 {
		return fmt.Errorf("core: non-positive frequency %g", o.FreqHz)
	}
	if o.Grid <= 0 {
		return fmt.Errorf("core: non-positive thermal grid %d", o.Grid)
	}
	if o.Alpha < 0 || o.Beta < 0 || o.Alpha+o.Beta == 0 {
		return fmt.Errorf("core: bad objective weights alpha=%g beta=%g", o.Alpha, o.Beta)
	}
	if o.RefCostUSD <= 0 || o.RefDRAMWatts <= 0 {
		return fmt.Errorf("core: non-positive normalization refs %+v", o)
	}
	if o.Tech != Tech2D && o.Tech != Tech3D {
		return fmt.Errorf("core: unknown tech %d", int(o.Tech))
	}
	return nil
}

// Models bundles the substrate parameter sets; zero-value fields are
// filled with the package defaults by NewEvaluator.
type Models struct {
	Power     power.Params
	DRAM      dram.Params
	Cost      cost.Params
	Materials thermal.Materials
}

// DefaultModels returns the calibrated 22 nm parameter sets.
func DefaultModels() Models {
	return Models{
		Power:     power.Default22nm(),
		DRAM:      dram.DefaultDDR4(),
		Cost:      cost.Default22nm(),
		Materials: thermal.DefaultMaterials(),
	}
}

// runawayLimitC is the junction temperature beyond which the
// leakage-temperature fixed point is classified as thermal runaway: past
// the silicon's maximum rated junction temperature the exponential
// leakage feedback has no acceptable operating point even if the solver
// can still find a mathematical one.
const runawayLimitC = 105
