package thermal

import (
	"errors"
	"math"
	"testing"
)

// TestTransientConvergesToSteadyState: the implicit-Euler step response
// approaches the steady-state solution for long times.
func TestTransientConvergesToSteadyState(t *testing.T) {
	grid := 12
	s := singleLayer(grid, 5)
	steady, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Thermal time constant of one cell ~ C/g; run far past it.
	tr, err := s.SolveTransient(0.5, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Final.PeakC-steady.PeakC) > 0.05 {
		t.Errorf("transient limit %.3f C != steady %.3f C", tr.Final.PeakC, steady.PeakC)
	}
}

// TestTransientMonotoneRise: under constant power from ambient, the peak
// temperature rises monotonically toward steady state (implicit Euler is
// unconditionally stable and monotone for this system).
func TestTransientMonotoneRise(t *testing.T) {
	s := singleLayer(10, 4)
	tr, err := s.SolveTransient(0.05, 40)
	if err != nil {
		t.Fatal(err)
	}
	prev := s.AmbientC
	for i, p := range tr.PeakC {
		// Tolerance at the CG residual level.
		if p < prev-1e-3 {
			t.Fatalf("step %d: peak %.4f dropped below %.4f", i, p, prev)
		}
		prev = p
	}
	steady, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if last := tr.PeakC[len(tr.PeakC)-1]; last > steady.PeakC+1e-6 {
		t.Errorf("transient overshot steady state: %.4f > %.4f", last, steady.PeakC)
	}
}

// TestTransientStartsNearAmbient: the first small step barely heats the
// stack (large C/dt dominates).
func TestTransientStartsNearAmbient(t *testing.T) {
	s := singleLayer(10, 4)
	tr, err := s.SolveTransient(1e-5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rise := tr.PeakC[0] - s.AmbientC; rise > 1.0 {
		t.Errorf("first 10 us step rose %.3f C; expected a small fraction of the steady rise", rise)
	}
}

// TestTimeToFraction: the 63% time is positive and below the 95% time.
func TestTimeToFraction(t *testing.T) {
	s := singleLayer(10, 6)
	tr, err := s.SolveTransient(0.05, 80)
	if err != nil {
		t.Fatal(err)
	}
	t63, ok63 := tr.TimeToFractionSec(s.AmbientC, 0.63)
	t95, ok95 := tr.TimeToFractionSec(s.AmbientC, 0.95)
	if !ok63 || !ok95 {
		t.Fatal("fraction times not reached within the trace")
	}
	if t63 <= 0 || t95 < t63 {
		t.Errorf("t63=%.3f t95=%.3f inconsistent", t63, t95)
	}
}

// TestTransientValidation: error paths.
func TestTransientValidation(t *testing.T) {
	s := singleLayer(8, 1)
	if _, err := s.SolveTransient(0, 10); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := s.SolveTransient(0.1, 0); err == nil {
		t.Error("zero steps accepted")
	}
	bad := singleLayer(8, 1)
	bad.CellM = -1
	if _, err := bad.SolveTransient(0.1, 5); err == nil {
		t.Error("invalid stack accepted")
	}
}

// TestTransientMCMStack: the composed 2-D MCM stack steps without error
// and heats toward its steady state.
func TestTransientMCMStack(t *testing.T) {
	grid := 16
	m := DefaultMaterials()
	cov := make([]float64, grid*grid)
	power := make([]float64, grid*grid)
	for j := 5; j < 11; j++ {
		for i := 5; i < 11; i++ {
			cov[j*grid+i] = 1
			power[j*grid+i] = 6.0 / 36
		}
	}
	s, err := BuildStack2D(grid, 8e-3/float64(grid), cov, power, m)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.SolveTransient(0.02, 50)
	if err != nil {
		t.Fatal(err)
	}
	steady, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	last := tr.PeakC[len(tr.PeakC)-1]
	if last <= s.AmbientC || last > steady.PeakC+1e-6 {
		t.Errorf("transient peak %.2f outside (ambient, steady %.2f]", last, steady.PeakC)
	}
}

// TestTransientStepperGolden: a uniformly-powered single-layer stack is
// a scalar RC network per cell (node + ambient; by symmetry every cell
// sits at the same temperature, so lateral fluxes cancel), and the
// implicit-Euler recurrence
//
//	x_{n+1} = (q + (C/dt) x_n) / (C/dt + g)
//
// is hand-computable: C from the documented volumetric heat capacity,
// and the cell-to-ambient conductance g recovered from the steady rise
// (g = q / x_inf). The stepper trace must match it step for step.
func TestTransientStepperGolden(t *testing.T) {
	s := singleLayer(2, 2) // four identical cells, 0.5 W each
	steady, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	q := 0.5
	g := q / (steady.PeakC - s.AmbientC)
	dt := 0.001
	c := SiliconVolHeatCapacity * s.CellM * s.CellM * s.Layers[0].ThicknessM
	ts, err := s.NewTransientStepper(dt, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for step := 1; step <= 50; step++ {
		res, err := ts.Step()
		if err != nil {
			t.Fatal(err)
		}
		x = (q + (c/dt)*x) / (c/dt + g)
		if got, want := res.PeakC-s.AmbientC, x; math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("step %d: rise %.9f, golden %.9f", step, got, want)
		}
		if wantT := float64(step) * dt; ts.TimeSec() != wantT {
			t.Fatalf("step %d: TimeSec %g, want %g", step, ts.TimeSec(), wantT)
		}
	}
}

// TestTransientStepperMatchesSolveTransient: stepping N times with the
// stack's own power maps reproduces SolveTransient exactly.
func TestTransientStepperMatchesSolveTransient(t *testing.T) {
	s := singleLayer(10, 4)
	tr, err := s.SolveTransient(0.05, 20)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := s.NewTransientStepper(0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		res, err := ts.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakC != tr.PeakC[i] {
			t.Fatalf("step %d: stepper peak %g != SolveTransient %g", i, res.PeakC, tr.PeakC[i])
		}
	}
}

// TestTransientStepperSetPower: dropping the power mid-run cools the
// stack; bad power maps are rejected with ErrNonFinitePower.
func TestTransientStepperSetPower(t *testing.T) {
	s := singleLayer(6, 5)
	ts, err := s.NewTransientStepper(0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hot float64
	for i := 0; i < 30; i++ {
		res, err := ts.Step()
		if err != nil {
			t.Fatal(err)
		}
		hot = res.PeakC
	}
	if err := ts.SetPower("die", make([]float64, 36)); err != nil {
		t.Fatalf("SetPower off: %v", err)
	}
	var cooled float64
	for i := 0; i < 30; i++ {
		res, err := ts.Step()
		if err != nil {
			t.Fatal(err)
		}
		cooled = res.PeakC
	}
	if cooled >= hot {
		t.Errorf("stack did not cool after power-off: %.3f -> %.3f", hot, cooled)
	}
}

// TestTransientStepperGuards: the typed input guards of the DES
// coupling boundary.
func TestTransientStepperGuards(t *testing.T) {
	s := singleLayer(4, 1)
	for _, dt := range []float64{0, -0.1, math.NaN(), math.Inf(1)} {
		if _, err := s.NewTransientStepper(dt, nil); !errors.Is(err, ErrInvalidStep) {
			t.Errorf("dt=%g: got %v, want ErrInvalidStep", dt, err)
		}
		if _, err := s.SolveTransient(dt, 5); err == nil {
			t.Errorf("SolveTransient(dt=%g) accepted", dt)
		}
	}
	if _, err := s.SolveTransient(0.1, -1); !errors.Is(err, ErrInvalidStep) {
		t.Error("negative steps not ErrInvalidStep")
	}
	ts, err := s.NewTransientStepper(0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]float64{"nan": math.NaN(), "inf": math.Inf(1), "neg": -1}
	for name, v := range bad {
		p := make([]float64, 16)
		p[3] = v
		if err := ts.SetPower("die", p); !errors.Is(err, ErrNonFinitePower) {
			t.Errorf("%s power: got %v, want ErrNonFinitePower", name, err)
		}
	}
	if err := ts.SetPower("nope", make([]float64, 16)); err == nil {
		t.Error("unknown layer accepted")
	}
	if err := ts.SetPower("die", make([]float64, 3)); err == nil {
		t.Error("short power map accepted")
	}
}
