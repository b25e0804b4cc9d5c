// Package thermal is the HotSpot-6.0-equivalent substrate of TESA: a
// steady-state, grid-based 3-D thermal solver for chiplet stacks on a
// silicon interposer.
//
// The model is HotSpot's detailed_3D formulation: each material layer is
// discretized into grid x grid cells; adjacent cells are connected by
// lateral thermal conductances, adjacent layers by vertical conductances
// (series half-thickness resistances), and the top layer reaches the
// 45 C ambient through a lumped convection resistance (0.4 K/W in the
// paper, representing the limited cooling of edge/mobile devices). The
// bottom face is adiabatic, as in HotSpot's default single-path package.
//
// Per-cell conductivities support heterogeneous layers: silicon inside
// chiplet footprints vs underfill in the whitespace, and the
// TSV-perforated SRAM tier of 3-D chiplets, whose copper fraction raises
// its effective vertical conductivity (the paper's joint copper/silicon
// resistivity treatment).
//
// The resulting linear system is symmetric positive definite. Every
// solve — Solve, SolveWorkspace and each TransientStepper step — runs the same matrix-free conjugate gradients,
// preconditioned by one geometric-multigrid V-cycle (see workspace.go):
// the lateral grid is coarsened by 2x2 aggregation with every layer
// kept, and each level is smoothed by exact tridiagonal solves down the
// vertical cell columns, where the thin layers couple most stiffly. The
// iteration count then barely grows with the grid (9-10 cold iterations
// at grids 16 to 64).
//
// A Workspace keeps the steady operator it assembled for a *Stack, so
// repeated solves of one stack with only its power maps changed — the
// leakage-temperature fixed point — assemble once. With the operator it
// keeps an A-orthonormal basis of up to four earlier solution
// directions, and starts each later solve of that stack from the
// projection of the right-hand side onto them (Fischer's projection for
// successive right-hand sides). In 2-D leakage only rescales one fixed
// map per chiplet, so the loop's right-hand sides span few dimensions
// and a few directions answer most of each later solve.
package thermal

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence marks a solve that did not reach the residual
// tolerance: conjugate gradients exhausted their iteration cap, or the
// multigrid coarse-level factorization met a non-positive pivot. Either
// means an ill-conditioned system (degenerate geometry, extreme
// conductivity contrast). Callers match it with errors.Is; a design-space
// exploration quarantines the point instead of aborting the run.
var ErrNoConvergence = errors.New("thermal: CG did not converge")

// Layer is one material layer of the stack, bottom to top.
type Layer struct {
	Name string
	// ThicknessM is the layer thickness in meters.
	ThicknessM float64
	// K is the per-cell thermal conductivity in W/(m*K), row-major,
	// length grid*grid.
	K []float64
	// Power is the per-cell dissipation in watts; nil means no power.
	Power []float64
}

// Stack is a complete thermal problem.
//
// Once a stack has been solved in a Workspace, its grid, cell size,
// convection resistance, layers, layer thicknesses and conductivities
// must not change: the workspace keeps the operator it assembled from
// them for the next solve of the same *Stack. Its power maps may change
// (or be replaced) between solves. Build a new Stack for a new geometry.
type Stack struct {
	// Grid is the number of cells per side (the paper uses 125 um cells
	// on an 8 mm interposer, i.e. Grid=64).
	Grid int
	// CellM is the cell edge length in meters.
	CellM float64
	// AmbientC is the ambient temperature in Celsius (HotSpot default 45).
	AmbientC float64
	// ConvectionKPerW is the lumped convection resistance from the top
	// layer to ambient (0.4 K/W for edge devices).
	ConvectionKPerW float64
	// Layers, bottom to top.
	Layers []Layer
}

// Uniform returns a grid*grid conductivity map with a single value.
func Uniform(grid int, k float64) []float64 {
	m := make([]float64, grid*grid)
	for i := range m {
		m[i] = k
	}
	return m
}

// Validate reports an error for inconsistent stacks.
func (s *Stack) Validate() error {
	if s.Grid <= 0 {
		return fmt.Errorf("thermal: non-positive grid %d", s.Grid)
	}
	if s.CellM <= 0 {
		return fmt.Errorf("thermal: non-positive cell size %g", s.CellM)
	}
	if s.ConvectionKPerW <= 0 {
		return fmt.Errorf("thermal: non-positive convection resistance %g", s.ConvectionKPerW)
	}
	if len(s.Layers) == 0 {
		return fmt.Errorf("thermal: no layers")
	}
	n := s.Grid * s.Grid
	for li, l := range s.Layers {
		if l.ThicknessM <= 0 {
			return fmt.Errorf("thermal: layer %d (%s): non-positive thickness %g", li, l.Name, l.ThicknessM)
		}
		if len(l.K) != n {
			return fmt.Errorf("thermal: layer %d (%s): conductivity map has %d cells, want %d", li, l.Name, len(l.K), n)
		}
		for ci, k := range l.K {
			if k <= 0 || math.IsNaN(k) {
				return fmt.Errorf("thermal: layer %d (%s): non-physical conductivity %g at cell %d", li, l.Name, k, ci)
			}
		}
	}
	return s.validatePower()
}

// validatePower reports an error for a power map of the wrong size or
// with a negative or NaN cell: the part of Validate that a solve of a
// stack whose operator its workspace already holds re-checks.
func (s *Stack) validatePower() error {
	n := s.Grid * s.Grid
	for li, l := range s.Layers {
		if l.Power != nil && len(l.Power) != n {
			return fmt.Errorf("thermal: layer %d (%s): power map has %d cells, want %d", li, l.Name, len(l.Power), n)
		}
		for ci, p := range l.Power {
			if p < 0 || math.IsNaN(p) {
				return fmt.Errorf("thermal: layer %d (%s): negative power %g at cell %d", li, l.Name, p, ci)
			}
		}
	}
	return nil
}

// Result is a solved temperature field.
type Result struct {
	// Temps[l] is layer l's row-major temperature map in Celsius.
	Temps [][]float64
	// PeakC is the maximum junction temperature over all layers.
	PeakC float64
	// PeakLayer and PeakCell locate the hot spot.
	PeakLayer, PeakCell int
	// MeanC is the average temperature of the topmost power-bearing
	// layer (informational).
	MeanC float64
	// Iterations is the conjugate-gradient iteration count.
	Iterations int
	// Projected reports that the solve started from its workspace's
	// projection onto earlier solutions and that the projection already
	// met the convergence target, so CG took no step (see
	// SolveWorkspaceInto).
	Projected bool
	// Rises is the raw temperature-rise vector (all layers, row-major):
	// Temps minus ambient, the field CG solves for.
	Rises []float64
}

// LayerTemps returns the temperature map of the named layer, or nil.
func (r *Result) LayerTemps(s *Stack, name string) []float64 {
	for i, l := range s.Layers {
		if l.Name == name {
			return r.Temps[i]
		}
	}
	return nil
}

// harm is the harmonic mean used to combine the conductivities of two
// adjacent half-cells in series. Two zero-conductivity cells would
// divide 0 by 0; the series conductance of two perfect insulators is
// zero, so return that instead of NaN (Validate rejects non-positive
// conductivities, but fault injection and direct Stack construction can
// still reach this).
func harm(a, b float64) float64 {
	s := a + b
	if s == 0 {
		return 0
	}
	return 2 * a * b / s
}

// Solve computes the steady-state temperature field in a throwaway
// Workspace. A leakage-temperature loop should instead solve one Stack
// repeatedly in one Workspace (SolveWorkspace), which starts every solve
// after the first from the projection onto the loop's earlier solutions.
func (s *Stack) Solve() (*Result, error) {
	return s.SolveWorkspace(nil)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// axpy adds a*x to y.
func axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	for i := range x {
		y[i] += a * x[i]
	}
}
