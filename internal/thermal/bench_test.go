package thermal

import (
	"fmt"
	"testing"
)

// benchStack builds the repo-root thermal benchmarks' MCM at the given
// grid: an 11 mm interposer with four chiplets whose origins and sides
// scale with the grid (14 cells per side at grid 88).
func benchStack(b *testing.B, grid int, threeD bool) *Stack {
	b.Helper()
	m := DefaultMaterials()
	cov := make([]float64, grid*grid)
	power := make([]float64, grid*grid)
	sramPower := make([]float64, grid*grid)
	cells := grid * 14 / 88
	lo, hi := grid*20/88, grid*54/88
	for _, origin := range [][2]int{{lo, lo}, {lo, hi}, {hi, lo}, {hi, hi}} {
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

// benchCases runs bench as one sub-benchmark per grid and technology.
func benchCases(b *testing.B, grids []int, bench func(b *testing.B, s *Stack)) {
	for _, grid := range grids {
		for _, threeD := range []bool{false, true} {
			tech := "2d"
			if threeD {
				tech = "3d"
			}
			b.Run(fmt.Sprintf("grid%d/%s", grid, tech), func(b *testing.B) {
				bench(b, benchStack(b, grid, threeD))
			})
		}
	}
}

// BenchmarkSolveReference times Solve, which allocates a throwaway
// workspace and Result per solve.
func BenchmarkSolveReference(b *testing.B) {
	benchCases(b, []int{32, 64, 88}, func(b *testing.B, s *Stack) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolveWorkspace is BenchmarkSolveReference through one
// recycled workspace and Result, at the reference tolerance. It
// alternates two stacks with the same content: a workspace that sees
// the stack it last solved starts from the projection onto its earlier
// solutions, which finishes a repeated power map without a CG step,
// while a new stack makes every op assemble the operator and run CG
// from zero.
func BenchmarkSolveWorkspace(b *testing.B) {
	benchCases(b, []int{32, 64, 88}, func(b *testing.B, s *Stack) {
		other := *s
		stacks := [2]*Stack{s, &other}
		ws := NewWorkspace()
		var res Result
		if err := s.SolveWorkspaceInto(ws, &res); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := stacks[(i+1)%2].SolveWorkspaceInto(ws, &res); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Iterations), "iters")
	})
}

// BenchmarkVCycle times one V-cycle, the CG preconditioner, on the
// benchmark MCM at grids 16, 32 and 88 in both technologies: on the
// steady operator, and on the implicit-Euler operator A + C/dt of a
// stepper at the sim's 0.05 s tick.
func BenchmarkVCycle(b *testing.B) {
	benchCases(b, []int{16, 32, 88}, func(b *testing.B, s *Stack) {
		for _, op := range []string{"steady", "transient"} {
			b.Run(op, func(b *testing.B) {
				ws := NewWorkspace()
				if op == "steady" {
					ws.reserve(s.Grid, len(s.Layers))
					if err := ws.assemble(s, nil); err != nil {
						b.Fatal(err)
					}
				} else if _, err := s.NewTransientStepper(0.05, ws); err != nil {
					b.Fatal(err)
				}
				q := ws.rhs()
				for l, layer := range s.Layers {
					if layer.Power != nil {
						copy(q[l*s.Grid*s.Grid:], layer.Power)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ws.vcycle(0)
				}
			})
		}
	})
}

// BenchmarkTransientStep times one transient step as the sim takes it,
// TransientStepper.StepInto with a recycled Result, at the sim's grid 32
// and 0.05 s tick on the 2-D benchmark MCM. The die power alternates
// between the full map and half of it, as a throttled tenant mix would,
// so every step runs CG iterations.
func BenchmarkTransientStep(b *testing.B) {
	s := benchStack(b, 32, false)
	ts, err := s.NewTransientStepper(0.05, nil)
	if err != nil {
		b.Fatal(err)
	}
	var die []float64
	for _, l := range s.Layers {
		if l.Power != nil {
			die = l.Power
		}
	}
	half := make([]float64, len(die))
	for i, w := range die {
		half[i] = w / 2
	}
	maps := [2][]float64{die, half}
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ts.SetPower("die", maps[i%2]); err != nil {
			b.Fatal(err)
		}
		if err := ts.StepInto(&res); err != nil {
			b.Fatal(err)
		}
	}
}
