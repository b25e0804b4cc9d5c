package thermal

import "testing"

// benchStack builds the same grid-88 MCM the repo-root thermal
// benchmarks use: 11 mm interposer, four 14-cell chiplets.
func benchStack(b *testing.B, threeD bool) *Stack {
	b.Helper()
	grid := 88
	m := DefaultMaterials()
	cov := make([]float64, grid*grid)
	power := make([]float64, grid*grid)
	sramPower := make([]float64, grid*grid)
	cells := 14
	for _, origin := range [][2]int{{20, 20}, {20, 54}, {54, 20}, {54, 54}} {
		for j := origin[1]; j < origin[1]+cells; j++ {
			for i := origin[0]; i < origin[0]+cells; i++ {
				cov[j*grid+i] = 1
				power[j*grid+i] = 2.5 / float64(cells*cells)
				sramPower[j*grid+i] = 0.8 / float64(cells*cells)
			}
		}
	}
	cell := 11e-3 / float64(grid)
	var s *Stack
	var err error
	if threeD {
		s, err = BuildStack3D(grid, cell, cov, sramPower, power, 0.02, m)
	} else {
		s, err = BuildStack2D(grid, cell, cov, power, m)
	}
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchSolveReference times the seed solver (Jacobi CG, per-solve
// allocations) — the baseline of the fast-path speedup claim.
func benchSolveReference(b *testing.B, threeD bool) {
	s := benchStack(b, threeD)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSolveFast times the workspace solver at the reference
// convergence target (an apples-to-apples comparison against
// BenchmarkSolveReference*), recycling one workspace and one Result so
// the steady state is reached with zero allocations per solve.
func benchSolveFast(b *testing.B, threeD bool, tolScale float64) {
	s := benchStack(b, threeD)
	s.Solver.TolScale = tolScale
	ws := NewWorkspace()
	var res Result
	if err := s.SolveWorkspaceInto(ws, nil, &res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveWorkspaceInto(ws, nil, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveReference2D is the seed solver on the 2-D MCM bench stack.
func BenchmarkSolveReference2D(b *testing.B) { benchSolveReference(b, false) }

// BenchmarkSolveReference3D is the seed solver on the 3-D MCM bench stack.
func BenchmarkSolveReference3D(b *testing.B) { benchSolveReference(b, true) }

// BenchmarkSolveFast2D is the workspace solver on the 2-D MCM bench
// stack at the reference tolerance; compare against
// BenchmarkSolveReference2D.
func BenchmarkSolveFast2D(b *testing.B) { benchSolveFast(b, false, 0) }

// BenchmarkSolveFast3D is the workspace solver on the 3-D MCM bench
// stack at the reference tolerance; compare against
// BenchmarkSolveReference3D.
func BenchmarkSolveFast3D(b *testing.B) { benchSolveFast(b, true, 0) }

// BenchmarkSolveFastTol2D is the workspace solver at the fast-path
// tolerance (FastTolScale) — the configuration core's -thermal-fast
// evaluation runs.
func BenchmarkSolveFastTol2D(b *testing.B) {
	benchSolveFast(b, false, FastTolScale)
}

// BenchmarkSolveFastTol3D is BenchmarkSolveFastTol2D on the 3-D stack.
func BenchmarkSolveFastTol3D(b *testing.B) {
	benchSolveFast(b, true, FastTolScale)
}
