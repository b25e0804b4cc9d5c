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
	choleskyFactor(t, a, len(rhs))
	return choleskySubstitute(a, rhs)
}

// choleskyFactor overwrites the lower triangle of the n x n symmetric
// positive-definite matrix a with L, A = L L^T.
func choleskyFactor(t *testing.T, a []float64, n int) {
	t.Helper()
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
}

// choleskySubstitute overwrites rhs with the solution of L L^T x = rhs
// for the factor choleskyFactor left in a, and returns it.
func choleskySubstitute(a, rhs []float64) []float64 {
	n := len(rhs)
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
	a := denseMatrix(s)
	choleskyFactor(t, a, len(s.Layers)*s.Grid*s.Grid)
	return denseSteady(s, a)
}

// denseSteady solves the steady state of s through the Cholesky factor
// of denseMatrix(s) in a, returning the temperatures in Celsius.
func denseSteady(s *Stack, a []float64) []float64 {
	nc := s.Grid * s.Grid
	rhs := make([]float64, len(s.Layers)*nc)
	for l, layer := range s.Layers {
		copy(rhs[l*nc:], layer.Power)
	}
	x := choleskySubstitute(a, rhs)
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

// oracleChiplets rasterizes the four 2.5 mm chiplets of oracleStack on
// an 8 mm interposer by area overlap, so the geometry is the same at
// every grid: it returns the per-cell chiplet-silicon coverage and each
// chiplet's per-cell share of its footprint (summing to 1 per chiplet).
func oracleChiplets(grid int) (cov []float64, share [4][]float64) {
	const side, chipMM = 8.0, 2.5
	cellMM := side / float64(grid)
	overlap := func(a0, a1, b0, b1 float64) float64 { return math.Max(0, math.Min(a1, b1)-math.Max(a0, b0)) }
	nc := grid * grid
	cov = make([]float64, nc)
	for k, origin := range [][2]float64{{0.8, 0.8}, {4.5, 0.8}, {0.8, 4.5}, {4.5, 4.5}} {
		share[k] = make([]float64, nc)
		for j := 0; j < grid; j++ {
			for i := 0; i < grid; i++ {
				x0, y0 := float64(i)*cellMM, float64(j)*cellMM
				frac := overlap(x0, x0+cellMM, origin[0], origin[0]+chipMM) *
					overlap(y0, y0+cellMM, origin[1], origin[1]+chipMM) / (chipMM * chipMM)
				c := j*grid + i
				cov[c] += frac * chipMM * chipMM / (cellMM * cellMM)
				share[k][c] = frac
			}
		}
	}
	return cov, share
}

// chipletPower sets the power maps of an oracleStack to watts[k] of
// array power on chiplet k, plus 30% of that as SRAM power in 3-D.
func chipletPower(s *Stack, share [4][]float64, watts [4]float64) {
	for l := range s.Layers {
		frac := 1.0
		switch s.Layers[l].Name {
		case "die", "array":
		case "sram":
			frac = 0.3
		default:
			continue
		}
		p := s.Layers[l].Power
		clear(p)
		for k, sh := range share {
			for c, f := range sh {
				p[c] += f * frac * watts[k]
			}
		}
	}
}

// oracleStack builds a 2-D or 3-D MCM stack on an 8 mm interposer with
// four 2.5 mm chiplets of unequal power (1-4 W of array power, plus 30%
// of that as SRAM power in 3-D), rasterized by area overlap so the
// geometry is the same at every grid.
func oracleStack(t *testing.T, grid int, threeD bool) *Stack {
	t.Helper()
	return buildOracleStack(t, grid, threeD, DefaultMaterials())
}

// buildOracleStack is oracleStack with the given materials.
func buildOracleStack(t *testing.T, grid int, threeD bool, m Materials) *Stack {
	t.Helper()
	cov, share := oracleChiplets(grid)
	nc := grid * grid
	cellM := 8e-3 / float64(grid)
	var s *Stack
	var err error
	if threeD {
		s, err = BuildStack3D(grid, cellM, cov, make([]float64, nc), make([]float64, nc), 0.02, m)
	} else {
		s, err = BuildStack2D(grid, cellM, cov, make([]float64, nc), m)
	}
	if err != nil {
		t.Fatal(err)
	}
	chipletPower(s, share, [4]float64{1, 2, 3, 4})
	return s
}

// matchDense fails t unless every cell and the peak of res are within
// 1e-6 C of the dense solution want.
func matchDense(t *testing.T, name string, res *Result, want []float64) {
	t.Helper()
	const tol = 1e-6
	peak := math.Inf(-1)
	for _, v := range want {
		peak = math.Max(peak, v)
	}
	worst := 0.0
	for l, temps := range res.Temps {
		for c, v := range temps {
			worst = math.Max(worst, math.Abs(v-want[l*len(temps)+c]))
		}
	}
	if worst > tol {
		t.Errorf("%s: worst cell off the dense solve by %.3g C (peak %.2f C)", name, worst, peak)
	}
	if d := math.Abs(res.PeakC - peak); d > tol {
		t.Errorf("%s: peak %.9f C, dense solve %.9f C", name, res.PeakC, peak)
	}
}

// TestSolversMatchDenseOracle checks every cell of Solve, of
// SolveWorkspace and of one transient step taken from a non-zero state
// against an independent dense direct solve, within 1e-6 C. Grid 11
// coarsens through an odd level (11, 6, 3). At grids 11 and 12 it also
// runs a leakage sequence: one stack solved repeatedly in one workspace
// with each chiplet's power rescaled between solves, so every solve
// after the first starts from the projection onto the earlier ones.
func TestSolversMatchDenseOracle(t *testing.T) {
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
					{"SolveWorkspace", func() (*Result, error) { return s.SolveWorkspace(NewWorkspace()) }, steady},
					{"TransientStepper.Step", ts.Step, step},
				}
				for _, sv := range solvers {
					res, err := sv.solve()
					if err != nil {
						t.Fatalf("%s: %v", sv.name, err)
					}
					matchDense(t, sv.name, res, sv.want)
				}
				if grid >= 11 {
					leakageSequence(t, grid, threeD)
				}
			})
		}
	}
}

// leakageSequence solves one oracleStack eight times in one workspace,
// rescaling each chiplet's power between solves the way a converging
// leakage-temperature loop does, and checks each solve against the
// dense solve. The right-hand sides span four chiplet maps, so once the
// basis holds four directions the projection is nearly the solution:
// some later solve must converge in the first CG step from it (0
// iterations). At the reference tolerance the projection rarely meets
// the target alone, since each direction carries its own solve's
// residual; TestIterationsGridIndependent checks a solve it does finish.
func leakageSequence(t *testing.T, grid int, threeD bool) {
	t.Helper()
	s := oracleStack(t, grid, threeD)
	_, share := oracleChiplets(grid)
	factor := denseMatrix(s)
	choleskyFactor(t, factor, len(s.Layers)*grid*grid)
	ws := NewWorkspace()
	var res Result
	var iters []int
	oneStep := 0
	for i := 0; i < 8; i++ {
		var watts [4]float64
		for k := range watts {
			// Hotter chiplets leak more, and each converges at its own
			// rate, so the right-hand sides span all four maps.
			watts[k] = float64(k+1) * (1 + 0.05*float64(k+1)*(1-math.Pow(0.3+0.15*float64(k), float64(i))))
		}
		chipletPower(s, share, watts)
		if err := s.SolveWorkspaceInto(ws, &res); err != nil {
			t.Fatalf("leakage solve %d: %v", i, err)
		}
		matchDense(t, fmt.Sprintf("leakage solve %d (%d iterations)", i, res.Iterations), &res, denseSteady(s, factor))
		iters = append(iters, res.Iterations)
		if i > 0 && res.Iterations == 0 {
			oneStep++
		}
	}
	t.Logf("iterations per leakage solve: %v", iters)
	if oneStep == 0 {
		t.Errorf("no leakage solve after the first converged in one CG step from the projection")
	}
}

// TestWorkspaceBasisStaysWithItsOperator: a workspace's operator and
// basis never serve another operator. One workspace moves between two
// stacks of the same grid and layer count but different
// conductivities, back again, then hosts a transient stepper of the
// first stack and a steady solve of it again; every steady solve
// matches its own stack's dense solve.
func TestWorkspaceBasisStaysWithItsOperator(t *testing.T) {
	for _, threeD := range []bool{false, true} {
		a := oracleStack(t, 12, threeD)
		m := DefaultMaterials()
		m.TIMK, m.GapTIMK, m.SiliconK = 5, 0.3, 60
		b := buildOracleStack(t, 12, threeD, m)
		wantA, wantB := denseOracle(t, a), denseOracle(t, b)
		ws := NewWorkspace()
		solve := func(name string, s *Stack, want []float64) {
			t.Helper()
			res, err := s.SolveWorkspace(ws)
			if err != nil {
				t.Fatalf("3d=%v %s: %v", threeD, name, err)
			}
			matchDense(t, fmt.Sprintf("3d=%v %s", threeD, name), res, want)
		}
		solve("a", a, wantA)
		solve("a again", a, wantA)
		solve("b", b, wantB)
		solve("b again", b, wantB)
		solve("a after b", a, wantA)
		ts, err := a.NewTransientStepper(0.05, ws)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ts.Step(); err != nil {
			t.Fatal(err)
		}
		solve("a after a transient step", a, wantA)
	}
}
