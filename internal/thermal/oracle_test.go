package thermal

import (
	"fmt"
	"math"
	"testing"
)

// denseMatrix builds the conductance matrix of s densely, straight from
// the Stack fields, following the package doc: per-layer lateral
// conductances between neighbouring cells and vertical conductances
// between stacked cells, each the inverse of two half-cell resistances
// in series, plus the convection resistance spread evenly over the top
// layer's cells and an adiabatic bottom face. Nodes are layer-major,
// row-major within a layer; the matrix is n x n, row-major.
func denseMatrix(s *Stack) []float64 {
	g, nl := s.Grid, len(s.Layers)
	nc := g * g
	n := nl * nc
	a := make([]float64, n*n)
	couple := func(p, q int, cond float64) {
		a[p*n+p] += cond
		a[q*n+q] += cond
		a[p*n+q] -= cond
		a[q*n+p] -= cond
	}
	area := s.CellM * s.CellM
	for l, layer := range s.Layers {
		// A lateral half-cell path is CellM/2 long through a
		// CellM x ThicknessM face.
		halfLat := func(k float64) float64 { return (s.CellM / 2) / (k * s.CellM * layer.ThicknessM) }
		for j := 0; j < g; j++ {
			for i := 0; i < g; i++ {
				c := j*g + i
				p := l*nc + c
				if i+1 < g {
					couple(p, p+1, 1/(halfLat(layer.K[c])+halfLat(layer.K[c+1])))
				}
				if j+1 < g {
					couple(p, p+g, 1/(halfLat(layer.K[c])+halfLat(layer.K[c+g])))
				}
				if l+1 < nl {
					up := s.Layers[l+1]
					r := (layer.ThicknessM/2)/(layer.K[c]*area) + (up.ThicknessM/2)/(up.K[c]*area)
					couple(p, p+nc, 1/r)
				}
			}
		}
	}
	for c := 0; c < nc; c++ {
		p := (nl-1)*nc + c
		a[p*n+p] += 1 / (s.ConvectionKPerW * float64(nc))
	}
	return a
}

// choleskySolve solves a x = rhs for the symmetric positive-definite
// n x n matrix a by an in-place Cholesky factorization, overwriting a
// and rhs; it returns rhs, now holding x.
func choleskySolve(t *testing.T, a, rhs []float64) []float64 {
	t.Helper()
	n := len(rhs)
	// The lower triangle of a becomes L, A = L L^T.
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= 0 {
			t.Fatalf("matrix not positive definite at row %d", j)
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			v := a[i*n+j]
			for k := 0; k < j; k++ {
				v -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = v / d
		}
	}
	x := rhs
	for i := 0; i < n; i++ {
		v := x[i]
		for k := 0; k < i; k++ {
			v -= a[i*n+k] * x[k]
		}
		x[i] = v / a[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		v := x[i]
		for k := i + 1; k < n; k++ {
			v -= a[k*n+i] * x[k]
		}
		x[i] = v / a[i*n+i]
	}
	return x
}

// denseOracle solves the steady state of s by a dense Cholesky
// factorization of denseMatrix(s). It returns the temperature of every
// node (layer-major, row-major within a layer) in Celsius.
func denseOracle(t *testing.T, s *Stack) []float64 {
	t.Helper()
	nc := s.Grid * s.Grid
	rhs := make([]float64, len(s.Layers)*nc)
	for l, layer := range s.Layers {
		copy(rhs[l*nc:], layer.Power)
	}
	x := choleskySolve(t, denseMatrix(s), rhs)
	for i := range x {
		x[i] += s.AmbientC
	}
	return x
}

// denseStepOracle solves one implicit-Euler step of s densely: from the
// rises x0, (A + C/dt) x = q + (C/dt) x0, with each layer's heat
// capacity per cell its material's volumetric capacity times the cell
// volume. It returns the temperatures in Celsius.
func denseStepOracle(t *testing.T, s *Stack, dt float64, x0 []float64) []float64 {
	t.Helper()
	nc := s.Grid * s.Grid
	n := len(s.Layers) * nc
	a := denseMatrix(s)
	rhs := make([]float64, n)
	for l, layer := range s.Layers {
		c := volHeatCapacity(layer.K[0]) * s.CellM * s.CellM * layer.ThicknessM / dt
		for i := l * nc; i < (l+1)*nc; i++ {
			a[i*n+i] += c
			rhs[i] = c * x0[i]
		}
		for i, w := range layer.Power {
			rhs[l*nc+i] += w
		}
	}
	x := choleskySolve(t, a, rhs)
	for i := range x {
		x[i] += s.AmbientC
	}
	return x
}

// oracleStack builds a 2-D or 3-D MCM stack on an 8 mm interposer with
// four 2.5 mm chiplets of unequal power (1-4 W of array power, plus 30%
// of that as SRAM power in 3-D), rasterized by area overlap so the
// geometry is the same at every grid.
func oracleStack(t *testing.T, grid int, threeD bool) *Stack {
	t.Helper()
	const side, chipMM = 8.0, 2.5
	cellMM := side / float64(grid)
	overlap := func(a0, a1, b0, b1 float64) float64 { return math.Max(0, math.Min(a1, b1)-math.Max(a0, b0)) }
	nc := grid * grid
	cov := make([]float64, nc)
	array := make([]float64, nc)
	sram := make([]float64, nc)
	for k, origin := range [][2]float64{{0.8, 0.8}, {4.5, 0.8}, {0.8, 4.5}, {4.5, 4.5}} {
		for j := 0; j < grid; j++ {
			for i := 0; i < grid; i++ {
				x0, y0 := float64(i)*cellMM, float64(j)*cellMM
				frac := overlap(x0, x0+cellMM, origin[0], origin[0]+chipMM) *
					overlap(y0, y0+cellMM, origin[1], origin[1]+chipMM) / (chipMM * chipMM)
				c := j*grid + i
				cov[c] += frac * chipMM * chipMM / (cellMM * cellMM)
				array[c] += frac * float64(k+1)
				sram[c] += frac * 0.3 * float64(k+1)
			}
		}
	}
	var s *Stack
	var err error
	if threeD {
		s, err = BuildStack3D(grid, side*1e-3/float64(grid), cov, sram, array, 0.02, DefaultMaterials())
	} else {
		s, err = BuildStack2D(grid, side*1e-3/float64(grid), cov, array, DefaultMaterials())
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSolversMatchDenseOracle checks every cell of Solve, of
// SolveWorkspace and of one transient step taken from a non-zero state
// against an independent dense direct solve, within 1e-6 C. Grid 11
// coarsens through an odd level (11, 6, 3).
func TestSolversMatchDenseOracle(t *testing.T) {
	const tol = 1e-6
	const dt = 0.05
	for _, grid := range []int{6, 8, 11, 12} {
		for _, threeD := range []bool{false, true} {
			t.Run(fmt.Sprintf("grid%d/3d=%v", grid, threeD), func(t *testing.T) {
				s := oracleStack(t, grid, threeD)
				steady := denseOracle(t, s)
				// The stepper's first step leaves a non-zero field; the
				// second step starts from it.
				ts, err := s.NewTransientStepper(dt, nil)
				if err != nil {
					t.Fatal(err)
				}
				first, err := ts.Step()
				if err != nil {
					t.Fatal(err)
				}
				step := denseStepOracle(t, s, dt, first.Rises)
				solvers := []struct {
					name  string
					solve func() (*Result, error)
					want  []float64
				}{
					{"Solve", s.Solve, steady},
					{"SolveWorkspace", func() (*Result, error) { return s.SolveWorkspace(NewWorkspace(), nil) }, steady},
					{"TransientStepper.Step", ts.Step, step},
				}
				for _, sv := range solvers {
					res, err := sv.solve()
					if err != nil {
						t.Fatalf("%s: %v", sv.name, err)
					}
					peak := math.Inf(-1)
					for _, v := range sv.want {
						peak = math.Max(peak, v)
					}
					nc := grid * grid
					worst := 0.0
					for l, temps := range res.Temps {
						for c, v := range temps {
							worst = math.Max(worst, math.Abs(v-sv.want[l*nc+c]))
						}
					}
					if worst > tol {
						t.Errorf("%s: worst cell off the dense solve by %.3g C (peak %.2f C)", sv.name, worst, peak)
					}
					if d := math.Abs(res.PeakC - peak); d > tol {
						t.Errorf("%s: peak %.9f C, dense solve %.9f C", sv.name, res.PeakC, peak)
					}
				}
			})
		}
	}
}
