package thermal

import (
	"fmt"
	"math"
	"testing"
)

// denseOracle solves the steady state of s by a dense Cholesky
// factorization of a conductance matrix built straight from the Stack
// fields, following the package doc: per-layer lateral conductances
// between neighbouring cells and vertical conductances between stacked
// cells, each the inverse of two half-cell resistances in series, plus
// the convection resistance spread evenly over the top layer's cells
// and an adiabatic bottom face. It returns the temperature of every
// node (layer-major, row-major within a layer) in Celsius.
func denseOracle(t *testing.T, s *Stack) []float64 {
	t.Helper()
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
	rhs := make([]float64, n)
	for l, layer := range s.Layers {
		for c, w := range layer.Power {
			rhs[l*nc+c] = w
		}
	}

	// In-place Cholesky: the lower triangle of a becomes L, A = L L^T.
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= 0 {
			t.Fatalf("conductance matrix not positive definite at row %d", j)
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
	// Forward then back substitution; the solution is the rise over
	// ambient.
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

// TestSolversMatchDenseOracle checks every cell of the reference CG
// solve and of the workspace solver under each preconditioner against
// an independent dense direct solve, within 1e-6 C.
func TestSolversMatchDenseOracle(t *testing.T) {
	const tol = 1e-6
	for _, grid := range []int{6, 8, 12} {
		for _, threeD := range []bool{false, true} {
			t.Run(fmt.Sprintf("grid%d/3d=%v", grid, threeD), func(t *testing.T) {
				s := oracleStack(t, grid, threeD)
				want := denseOracle(t, s)
				peak := math.Inf(-1)
				for _, v := range want {
					peak = math.Max(peak, v)
				}
				solvers := map[string]func() (*Result, error){
					"reference": s.Solve,
					"workspace-jacobi": func() (*Result, error) {
						s.Solver.Precond = PrecondJacobi
						return s.SolveWorkspace(NewWorkspace(), nil)
					},
					"workspace-ssor": func() (*Result, error) {
						s.Solver.Precond = PrecondSSOR
						return s.SolveWorkspace(NewWorkspace(), nil)
					},
				}
				for name, solve := range solvers {
					res, err := solve()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					nc := grid * grid
					worst := 0.0
					for l, temps := range res.Temps {
						for c, v := range temps {
							worst = math.Max(worst, math.Abs(v-want[l*nc+c]))
						}
					}
					if worst > tol {
						t.Errorf("%s: worst cell off the dense solve by %.3g C (peak %.2f C)", name, worst, peak)
					}
					if d := math.Abs(res.PeakC - peak); d > tol {
						t.Errorf("%s: peak %.9f C, dense solve %.9f C", name, res.PeakC, peak)
					}
				}
			})
		}
	}
}
