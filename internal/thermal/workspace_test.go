package thermal

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// testStacks builds the fault-matrix stack configurations: single layer,
// 2-D MCM (4 layers), and 3-D MCM (6 layers), each with a non-uniform
// power map and heterogeneous conductivities.
func testStacks(t *testing.T) map[string]*Stack {
	t.Helper()
	grid := 24
	n := grid * grid
	coverage := make([]float64, n)
	power := make([]float64, n)
	sramPower := make([]float64, n)
	rng := rand.New(rand.NewSource(7))
	for j := 8; j < 16; j++ {
		for i := 4; i < 20; i++ {
			coverage[j*grid+i] = 1
			power[j*grid+i] = 0.02 + 0.01*rng.Float64()
			sramPower[j*grid+i] = 0.005
		}
	}
	m := DefaultMaterials()
	s2d, err := BuildStack2D(grid, 125e-6, coverage, power, m)
	if err != nil {
		t.Fatal(err)
	}
	s3d, err := BuildStack3D(grid, 125e-6, coverage, sramPower, power, 0.1, m)
	if err != nil {
		t.Fatal(err)
	}
	single := singleLayer(grid, 0)
	single.Layers[0].Power[5*grid+7] = 3
	single.Layers[0].Power[15*grid+18] = 2
	return map[string]*Stack{"single": single, "mcm2d": s2d, "mcm3d": s3d}
}

// TestWorkspaceEquivalence: a recycled workspace matches the
// allocating Solve cell-by-cell well within the 0.1 C acceptance bound
// across the fault-matrix stack configs.
func TestWorkspaceEquivalence(t *testing.T) {
	ws := NewWorkspace()
	for name, s := range testStacks(t) {
		ref, err := s.Solve()
		if err != nil {
			t.Fatalf("%s: reference solve: %v", name, err)
		}
		got, err := s.SolveWorkspace(ws)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for l := range ref.Temps {
			for i := range ref.Temps[l] {
				if d := math.Abs(got.Temps[l][i] - ref.Temps[l][i]); d > 0.1 {
					t.Fatalf("%s: layer %d cell %d differs by %.4f C (workspace %.4f, ref %.4f)",
						name, l, i, d, got.Temps[l][i], ref.Temps[l][i])
				}
			}
		}
		if d := math.Abs(got.PeakC - ref.PeakC); d > 0.1 {
			t.Fatalf("%s: peak differs by %.4f C", name, d)
		}
		if got.PeakLayer != ref.PeakLayer || got.PeakCell != ref.PeakCell {
			t.Errorf("%s: hot spot at (%d,%d), ref (%d,%d)",
				name, got.PeakLayer, got.PeakCell, ref.PeakLayer, ref.PeakCell)
		}
		if d := math.Abs(got.MeanC - ref.MeanC); d > 0.1 {
			t.Errorf("%s: mean differs by %.4f C", name, d)
		}
	}
}

// TestWorkspaceReuseAcrossGeometries: one workspace recycled across
// stacks of different grid and layer counts stays correct — the guard
// bands and stale operator entries must not leak between solves.
func TestWorkspaceReuseAcrossGeometries(t *testing.T) {
	ws := NewWorkspace()
	stacks := testStacks(t)
	small := singleLayer(8, 2)
	order := []*Stack{stacks["mcm3d"], small, stacks["mcm2d"], stacks["single"], stacks["mcm3d"]}
	for i, s := range order {
		got, err := s.SolveWorkspace(ws)
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		ref, err := s.Solve()
		if err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
		if d := math.Abs(got.PeakC - ref.PeakC); d > 0.1 {
			t.Fatalf("solve %d: peak differs by %.4f C after workspace reuse", i, d)
		}
	}
}

// TestWorkspacePerGoroutine: concurrent solves, each goroutine with its
// own workspace, race-free (run under -race) and correct.
func TestWorkspacePerGoroutine(t *testing.T) {
	s := testStacks(t)["mcm2d"]
	ref, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	peaks := make([]float64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := NewWorkspace()
			for it := 0; it < 3; it++ {
				res, err := s.SolveWorkspace(ws)
				if err != nil {
					errs[g] = err
					return
				}
				peaks[g] = res.PeakC
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if math.Abs(peaks[g]-ref.PeakC) > 0.1 {
			t.Fatalf("goroutine %d: peak %.4f, ref %.4f", g, peaks[g], ref.PeakC)
		}
	}
}

// TestSolveWorkspaceIntoZeroAlloc: recycling both the workspace and the
// Result runs the whole solve without allocating, on every path a
// leakage loop takes. Each run alternates two distinct stacks of one
// geometry, so every solve of a validates, assembles and runs CG from
// an empty basis, and the solve of a with rescaled power in between
// starts from the projection, runs CG and records a second direction.
func TestSolveWorkspaceIntoZeroAlloc(t *testing.T) {
	a, b := testStacks(t)["mcm2d"], testStacks(t)["mcm2d"]
	var die []float64
	for _, l := range a.Layers {
		if l.Power != nil {
			die = l.Power
		}
	}
	ws := NewWorkspace()
	var res Result
	solve := func(s *Stack) {
		if err := s.SolveWorkspaceInto(ws, &res); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		solve(a)
		if res.Projected || res.Iterations == 0 {
			t.Fatalf("first solve of a stack: %d iterations, projected %v", res.Iterations, res.Projected)
		}
		for i := range die[:len(die)/2] {
			die[i] *= 1.01
		}
		solve(a)
		if res.Projected || ws.nb != 2 {
			t.Fatalf("rescaled solve: projected %v, basis of %d, want CG and 2 directions", res.Projected, ws.nb)
		}
		solve(b)
	}
	cycle()
	if allocs := testing.AllocsPerRun(5, cycle); allocs > 0 {
		t.Errorf("SolveWorkspaceInto allocated %.0f times per cycle of three solves, want 0", allocs)
	}
}

// TestWorkspaceErrors: validation failures and exhausted iteration
// budgets surface through the workspace path exactly like the reference.
func TestWorkspaceErrors(t *testing.T) {
	bad := singleLayer(8, 1)
	bad.Grid = 0
	if _, err := bad.SolveWorkspace(nil); err == nil {
		t.Error("invalid stack accepted")
	}
	defer capIterations(0)()
	if _, err := nonuniform(8).SolveWorkspace(nil); err == nil {
		t.Error("exhausted budget did not error")
	}
}

// nonuniform builds a single-layer stack with one hot cell, so the CG
// solve needs real iterations (unlike the uniform analytic case).
func nonuniform(grid int) *Stack {
	s := singleLayer(grid, 0)
	s.Layers[0].Power[grid+1] = 5
	return s
}

// capIterations sets the CG iteration cap per grid node and returns the
// function that restores it.
func capIterations(perNode int) (restore func()) {
	old := cgItersPerNode
	cgItersPerNode = perNode
	return func() { cgItersPerNode = old }
}

// TestSolverNonConvergence: an exhausted iteration budget reports
// ErrNoConvergence (matchable with errors.Is) instead of returning a
// half-converged field.
func TestSolverNonConvergence(t *testing.T) {
	defer capIterations(0)()
	if _, err := nonuniform(8).Solve(); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

// TestWorkspaceZeroPower: a zero-power stack returns ambient everywhere
// even when the workspace holds a stale previous solution.
func TestWorkspaceZeroPower(t *testing.T) {
	ws := NewWorkspace()
	hot := singleLayer(8, 4)
	if _, err := hot.SolveWorkspace(ws); err != nil {
		t.Fatal(err)
	}
	cold := singleLayer(8, 0)
	r, err := cold.SolveWorkspace(ws)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.PeakC-45) > 1e-9 {
		t.Errorf("zero-power peak %f, want ambient 45", r.PeakC)
	}
}

// TestWarmStartZeroPower: with no power, the result is ambient even
// when the solve starts warm, from the workspace's projection onto the
// stack's earlier non-zero solutions.
func TestWarmStartZeroPower(t *testing.T) {
	ws := NewWorkspace()
	s := singleLayer(8, 4)
	if _, err := s.SolveWorkspace(ws); err != nil {
		t.Fatal(err)
	}
	clear(s.Layers[0].Power)
	r, err := s.SolveWorkspace(ws)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.PeakC-45) > 1e-9 {
		t.Errorf("zero-power peak %f, want ambient 45", r.PeakC)
	}
}

// TestHarmZeroGuard: the harmonic mean of two zero conductivities is
// zero, not NaN.
func TestHarmZeroGuard(t *testing.T) {
	if got := harm(0, 0); got != 0 {
		t.Errorf("harm(0,0) = %v, want 0", got)
	}
	if got := harm(2, 2); math.Abs(got-2) > 1e-12 {
		t.Errorf("harm(2,2) = %v, want 2", got)
	}
	if got := harm(0, 5); got != 0 {
		t.Errorf("harm(0,5) = %v, want 0", got)
	}
}

// TestIterationsGridIndependent: multigrid preconditioning keeps cold
// solves of the four-chiplet stack within 15 CG iterations as the grid
// doubles and at the report grid 88; the next leakage iteration, solved in the same workspace from
// its projection onto the first solution, never takes more iterations
// than the same solve cold in a fresh workspace; and re-solving the
// unchanged stack there takes none, its solution being in the basis.
func TestIterationsGridIndependent(t *testing.T) {
	for _, grid := range []int{16, 32, 64, 88} {
		for _, threeD := range []bool{false, true} {
			s := oracleStack(t, grid, threeD)
			ws := NewWorkspace()
			first, err := s.SolveWorkspace(ws)
			if err != nil {
				t.Fatal(err)
			}
			// The next leakage iteration: every chiplet a little hotter,
			// the hottest (top-right) one the most.
			for l := range s.Layers {
				for c, w := range s.Layers[l].Power {
					s.Layers[l].Power[c] = w * (1.02 + 0.04*float64(c)/float64(grid*grid))
				}
			}
			projected, err := s.SolveWorkspace(ws)
			if err != nil {
				t.Fatal(err)
			}
			again, err := s.SolveWorkspace(ws)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := s.SolveWorkspace(NewWorkspace())
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("grid %d 3d=%v: cold %d, %d; projected %d; again %d", grid, threeD, first.Iterations, cold.Iterations, projected.Iterations, again.Iterations)
			if first.Iterations > 15 || cold.Iterations > 15 {
				t.Errorf("grid %d 3d=%v: cold solves took %d and %d iterations, want <= 15", grid, threeD, first.Iterations, cold.Iterations)
			}
			if projected.Iterations > cold.Iterations {
				t.Errorf("grid %d 3d=%v: projected solve took %d iterations, cold %d", grid, threeD, projected.Iterations, cold.Iterations)
			}
			if !again.Projected || again.Iterations != 0 {
				t.Errorf("grid %d 3d=%v: re-solving the unchanged stack took %d iterations (projected %v), want the projection alone", grid, threeD, again.Iterations, again.Projected)
			}
		}
	}
}

// TestVCycleSymmetricPositive: the V-cycle is a symmetric
// positive-definite operator M, as a CG preconditioner must be:
// u·M(v) = v·M(u) to rounding and v·M(v) > 0, on even and odd grids,
// with and without a transient diagonal term.
func TestVCycleSymmetricPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, grid := range []int{11, 12, 24} {
		for _, threeD := range []bool{false, true} {
			s := oracleStack(t, grid, threeD)
			n := len(s.Layers) * grid * grid
			for _, extra := range [][]float64{nil, Uniform(n, 1e-3)} {
				ws := NewWorkspace()
				ws.reserve(grid, len(s.Layers))
				if err := ws.assemble(s, extra); err != nil {
					t.Fatal(err)
				}
				precondition := func(b []float64) []float64 {
					copy(ws.rhs(), b)
					ws.vcycle(0)
					lv := &ws.levels[0]
					return append([]float64(nil), lv.z[lv.off:lv.off+n]...)
				}
				u, v := make([]float64, n), make([]float64, n)
				for i := range u {
					u[i], v[i] = rng.NormFloat64(), rng.NormFloat64()
				}
				mu, mv := precondition(u), precondition(v)
				uMv, vMu := dot(u, mv), dot(v, mu)
				if math.Abs(uMv-vMu) > 1e-10*math.Sqrt(dot(u, mu)*dot(v, mv)) {
					t.Errorf("grid %d 3d=%v extra=%v: u·Mv = %.12g, v·Mu = %.12g", grid, threeD, extra != nil, uMv, vMu)
				}
				if dot(u, mu) <= 0 || dot(v, mv) <= 0 {
					t.Errorf("grid %d 3d=%v extra=%v: M not positive", grid, threeD, extra != nil)
				}
			}
		}
	}
}

// textbookVCycle applies the V-cycle to levels[k].b of ws's assembled
// hierarchy as a multigrid text writes it, leaving the result in
// levels[k].z: clear z, a red then a black column sweep, restrict,
// recurse (the coarsest level solved exactly), add the coarse
// correction to every cell, then a black and a red sweep. It shares
// only the operator and the column factors with vcycle.
func textbookVCycle(ws *Workspace, k int, restrict func(lv, c *level)) {
	lv := &ws.levels[k]
	if k == len(ws.levels)-1 {
		ws.coarseSolve(lv)
		return
	}
	clear(lv.z)
	textbookSweep(lv, 0)
	textbookSweep(lv, 1)
	c := &ws.levels[k+1]
	restrict(lv, c)
	textbookVCycle(ws, k+1, restrict)
	for l := 0; l < lv.nl; l++ {
		for j := 0; j < lv.g; j++ {
			for i := 0; i < lv.g; i++ {
				lv.z[lv.off+l*lv.nc+j*lv.g+i] += c.z[c.off+l*c.nc+(j/2)*c.g+i/2]
			}
		}
	}
	textbookSweep(lv, 1)
	textbookSweep(lv, 0)
}

// textbookSweep solves the vertical column of every cell (i,j) with
// (i+j)%2 == color exactly against its current lateral neighbours, one
// column at a time, by the Thomas algorithm on the level's pivots.
func textbookSweep(lv *level, color int) {
	g, nc, z := lv.g, lv.nc, lv.z
	for j := 0; j < g; j++ {
		for i := (color + j) % 2; i < g; i += 2 {
			col := lv.off + j*g + i
			for l := 0; l < lv.nl; l++ {
				k := col + l*nc
				v := lv.b[k] + lv.gx[k]*z[k+1] + lv.gx[k-1]*z[k-1] + lv.gy[k]*z[k+g] + lv.gy[k-g]*z[k-g]
				if l > 0 {
					v += lv.gz[k-nc] * lv.invW[k-nc] * z[k-nc]
				}
				z[k] = v
			}
			for l := lv.nl - 1; l >= 0; l-- {
				k := col + l*nc
				if l+1 < lv.nl {
					z[k] += lv.gz[k] * z[k+nc]
				}
				z[k] *= lv.invW[k]
			}
		}
	}
}

// restrictFullResidual sets c.b to the 2x2 aggregate sums of lv's
// residual b - A z, computed at every cell.
func restrictFullResidual(lv, c *level) {
	g, nc, z := lv.g, lv.nc, lv.z
	clear(c.b)
	for l := 0; l < lv.nl; l++ {
		for j := 0; j < g; j++ {
			for i := 0; i < g; i++ {
				k := lv.off + l*nc + j*g + i
				r := lv.b[k] - lv.diag[k]*z[k] + lv.gx[k]*z[k+1] + lv.gx[k-1]*z[k-1] + lv.gy[k]*z[k+g] + lv.gy[k-g]*z[k-g]
				if l+1 < lv.nl {
					r += lv.gz[k] * z[k+nc]
				}
				if l > 0 {
					r += lv.gz[k-nc] * z[k-nc]
				}
				c.b[c.off+l*c.nc+(j/2)*c.g+i/2] += r
			}
		}
	}
}

// restrictRedLateral is restrictFullResidual with the residual the
// smoother leaves in exact arithmetic: zero on black cells, the four
// lateral terms on red ones.
func restrictRedLateral(lv, c *level) {
	g, nc, z := lv.g, lv.nc, lv.z
	clear(c.b)
	for l := 0; l < lv.nl; l++ {
		for j := 0; j < g; j++ {
			for i := j % 2; i < g; i += 2 {
				k := lv.off + l*nc + j*g + i
				c.b[c.off+l*c.nc+(j/2)*c.g+i/2] += lv.gx[k]*z[k+1] + lv.gx[k-1]*z[k-1] + lv.gy[k]*z[k+g] + lv.gy[k-g]*z[k-g]
			}
		}
	}
}

// TestVCycleMatchesTextbook: vcycle, which skips the work its output
// does not read, agrees with the textbook cycle to 1e-12 relative, on
// even and odd grids, in both technologies, with and without a
// transient diagonal term. Its zero-start red sweep, precomputed
// elimination weights and red-only prolongation are exact identities,
// so against the textbook cycle restricting the same red lateral terms
// it is bit-identical. The kernel's workspace runs every cycle after
// the first on the previous cycle's stale z, which it must not read.
func TestVCycleMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, grid := range []int{11, 16, 32} {
		for _, threeD := range []bool{false, true} {
			s := oracleStack(t, grid, threeD)
			n := len(s.Layers) * grid * grid
			for _, extra := range [][]float64{nil, Uniform(n, 1e-3)} {
				kernel, ref := NewWorkspace(), NewWorkspace()
				for _, ws := range []*Workspace{kernel, ref} {
					ws.reserve(grid, len(s.Layers))
					if err := ws.assemble(s, extra); err != nil {
						t.Fatal(err)
					}
				}
				run := func(ws *Workspace, b []float64, cycle func()) []float64 {
					copy(ws.rhs(), b)
					cycle()
					lv := &ws.levels[0]
					return append([]float64(nil), lv.z[lv.off:lv.off+n]...)
				}
				for trial := 0; trial < 3; trial++ {
					b := make([]float64, n)
					for i := range b {
						b[i] = rng.NormFloat64()
					}
					got := run(kernel, b, func() { kernel.vcycle(0) })
					full := run(ref, b, func() { textbookVCycle(ref, 0, restrictFullResidual) })
					lateral := run(ref, b, func() { textbookVCycle(ref, 0, restrictRedLateral) })
					var maxDiff, maxAbs float64
					for i := range got {
						maxDiff = math.Max(maxDiff, math.Abs(got[i]-full[i]))
						maxAbs = math.Max(maxAbs, math.Abs(full[i]))
						if math.Float64bits(got[i]) != math.Float64bits(lateral[i]) {
							t.Fatalf("grid %d 3d=%v extra=%v trial %d: node %d is %v, textbook with lateral restriction %v", grid, threeD, extra != nil, trial, i, got[i], lateral[i])
						}
					}
					if maxDiff > 1e-12*maxAbs {
						t.Errorf("grid %d 3d=%v extra=%v trial %d: max deviation %.3g from the textbook cycle, %.3g relative", grid, threeD, extra != nil, trial, maxDiff, maxDiff/maxAbs)
					}
				}
			}
		}
	}
}
