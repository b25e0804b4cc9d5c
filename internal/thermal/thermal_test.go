package thermal

import (
	"math"
	"testing"
	"testing/quick"
)

// singleLayer builds a one-layer stack with the given uniform power.
func singleLayer(grid int, totalWatts float64) *Stack {
	p := make([]float64, grid*grid)
	for i := range p {
		p[i] = totalWatts / float64(grid*grid)
	}
	return &Stack{
		Grid: grid, CellM: 125e-6,
		AmbientC: 45, ConvectionKPerW: 0.4,
		Layers: []Layer{{Name: "die", ThicknessM: 150e-6, K: Uniform(grid, 110), Power: p}},
	}
}

func TestValidate(t *testing.T) {
	s := singleLayer(8, 1)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid stack rejected: %v", err)
	}
	bad := singleLayer(8, 1)
	bad.Layers[0].K[3] = -5
	if err := bad.Validate(); err == nil {
		t.Error("negative conductivity accepted")
	}
	bad2 := singleLayer(8, 1)
	bad2.Layers[0].Power[0] = -1
	if err := bad2.Validate(); err == nil {
		t.Error("negative power accepted")
	}
	bad3 := singleLayer(8, 1)
	bad3.ConvectionKPerW = 0
	if err := bad3.Validate(); err == nil {
		t.Error("zero convection resistance accepted")
	}
	bad4 := &Stack{Grid: 4, CellM: 1e-4, ConvectionKPerW: 0.4}
	if err := bad4.Validate(); err == nil {
		t.Error("empty stack accepted")
	}
}

// TestUniformPowerAnalytic: with uniform power on a single layer, the
// exact solution is T = ambient + P_total * R_conv everywhere (no lateral
// gradients, all heat leaves through the film).
func TestUniformPowerAnalytic(t *testing.T) {
	s := singleLayer(16, 10)
	r, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := 45 + 10*0.4
	for idx, temp := range r.Temps[0] {
		if math.Abs(temp-want) > 1e-6 {
			t.Fatalf("cell %d: T = %f, want %f", idx, temp, want)
		}
	}
	if math.Abs(r.PeakC-want) > 1e-6 {
		t.Errorf("peak = %f, want %f", r.PeakC, want)
	}
}

// TestZeroPower: with no dissipation everything sits at ambient.
func TestZeroPower(t *testing.T) {
	s := singleLayer(8, 0)
	r, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.PeakC-45) > 1e-9 {
		t.Errorf("peak %f, want ambient 45", r.PeakC)
	}
	if r.Iterations != 0 {
		t.Errorf("zero-power solve took %d iterations", r.Iterations)
	}
}

// TestEnergyBalance: in steady state, all injected power must exit
// through the convection film: sum gamb*(T_top - Tamb) = P_total.
func TestEnergyBalance(t *testing.T) {
	grid := 16
	s := singleLayer(grid, 7.5)
	// Concentrate power in one corner to exercise lateral flow.
	for i := range s.Layers[0].Power {
		s.Layers[0].Power[i] = 0
	}
	s.Layers[0].Power[0] = 5
	s.Layers[0].Power[1] = 2.5
	r, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	gamb := 1 / (0.4 * float64(grid*grid))
	var out float64
	for _, temp := range r.Temps[len(r.Temps)-1] {
		out += gamb * (temp - 45)
	}
	if math.Abs(out-7.5) > 1e-6 {
		t.Errorf("heat out = %f W, want 7.5", out)
	}
}

// TestSuperposition: the solver is linear — the rise of a summed power
// map equals the sum of rises (property test over random splits).
func TestSuperposition(t *testing.T) {
	grid := 8
	f := func(cells [4]uint8, w1, w2 uint8) bool {
		p1 := make([]float64, grid*grid)
		p2 := make([]float64, grid*grid)
		p1[int(cells[0])%(grid*grid)] = 1 + float64(w1%10)
		p1[int(cells[1])%(grid*grid)] += 2
		p2[int(cells[2])%(grid*grid)] = 1 + float64(w2%10)
		p2[int(cells[3])%(grid*grid)] += 3
		solve := func(p []float64) []float64 {
			s := singleLayer(grid, 0)
			copy(s.Layers[0].Power, p)
			r, err := s.Solve()
			if err != nil {
				return nil
			}
			return r.Temps[0]
		}
		sum := make([]float64, grid*grid)
		for i := range sum {
			sum[i] = p1[i] + p2[i]
		}
		t1, t2, ts := solve(p1), solve(p2), solve(sum)
		if t1 == nil || t2 == nil || ts == nil {
			return false
		}
		for i := range ts {
			want := (t1[i] - 45) + (t2[i] - 45)
			// The CG tolerance is relaxed for DSE speed; superposition
			// holds to well below a millikelvin.
			if math.Abs((ts[i]-45)-want) > 5e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPositivity: non-negative power never cools below ambient.
func TestPositivity(t *testing.T) {
	f := func(seed uint8) bool {
		grid := 8
		s := singleLayer(grid, 0)
		for i := range s.Layers[0].Power {
			s.Layers[0].Power[i] = float64((int(seed)+i*7)%5) * 0.1
		}
		r, err := s.Solve()
		if err != nil {
			return false
		}
		for _, temp := range r.Temps[0] {
			if temp < 45-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSymmetry: a symmetric power map yields a symmetric field.
func TestSymmetry(t *testing.T) {
	grid := 16
	s := singleLayer(grid, 0)
	p := s.Layers[0].Power
	// Two hot spots mirrored about the vertical axis.
	p[5*grid+3] = 4
	p[5*grid+(grid-1-3)] = 4
	r, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < grid; j++ {
		for i := 0; i < grid/2; i++ {
			a := r.Temps[0][j*grid+i]
			b := r.Temps[0][j*grid+(grid-1-i)]
			if math.Abs(a-b) > 1e-6 {
				t.Fatalf("asymmetry at (%d,%d): %f vs %f", i, j, a, b)
			}
		}
	}
}

// TestHotSpotAboveSource: the peak temperature is in the power-bearing
// layer at (or adjacent to) the power injection site.
func TestHotSpotAboveSource(t *testing.T) {
	grid := 16
	s := singleLayer(grid, 0)
	hot := 9*grid + 9
	s.Layers[0].Power[hot] = 6
	r, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakCell != hot {
		t.Errorf("peak at cell %d, want %d", r.PeakCell, hot)
	}
}

// TestConcentrationHeats: the same total power concentrated in fewer
// cells produces a higher peak — the power-density mechanism behind the
// paper's chiplet-sizing argument.
func TestConcentrationHeats(t *testing.T) {
	grid := 16
	spread := singleLayer(grid, 8)
	conc := singleLayer(grid, 0)
	conc.Layers[0].Power[8*grid+8] = 8
	rs, err := spread.Solve()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := conc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if rc.PeakC <= rs.PeakC {
		t.Errorf("concentrated peak %f not above spread peak %f", rc.PeakC, rs.PeakC)
	}
}

// TestBuildStack2D: the composed MCM stack solves, peaks in the die
// layer, and lands in a plausible band for paper-scale power.
func TestBuildStack2D(t *testing.T) {
	grid := 32
	m := DefaultMaterials()
	cov := make([]float64, grid*grid)
	power := make([]float64, grid*grid)
	// Two 2.8 mm chiplets on the 8 mm interposer, ~3.5 W each.
	cells := int(2.8 / (8.0 / float64(grid)))
	for _, x0 := range []int{3, 18} {
		for j := 10; j < 10+cells; j++ {
			for i := x0; i < x0+cells; i++ {
				cov[j*grid+i] = 1
				power[j*grid+i] = 3.5 / float64(cells*cells)
			}
		}
	}
	s, err := BuildStack2D(grid, 8e-3/float64(grid), cov, power, m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Layers[r.PeakLayer].Name != "die" {
		t.Errorf("peak in layer %q, want die", s.Layers[r.PeakLayer].Name)
	}
	if r.PeakC < 50 || r.PeakC > 110 {
		t.Errorf("7 W two-chiplet peak = %.1f C, want a plausible 50..110 C", r.PeakC)
	}
}

// TestICSCoupling: moving two chiplets closer together (smaller ICS)
// raises the peak temperature at equal power — the paper's lateral
// thermal-coupling mechanism that TESA's ICS knob controls.
func TestICSCoupling(t *testing.T) {
	grid := 64
	m := DefaultMaterials()
	build := func(gapCells int) float64 {
		cov := make([]float64, grid*grid)
		power := make([]float64, grid*grid)
		cells := 22 // ~2.75 mm per chiplet
		x0 := grid/2 - gapCells/2 - cells
		x1 := grid/2 + (gapCells+1)/2
		for j := 20; j < 20+cells; j++ {
			for i := x0; i < x0+cells; i++ {
				cov[j*grid+i] = 1
				power[j*grid+i] = 4.0 / float64(cells*cells)
			}
			for i := x1; i < x1+cells; i++ {
				cov[j*grid+i] = 1
				power[j*grid+i] = 4.0 / float64(cells*cells)
			}
		}
		s, err := BuildStack2D(grid, 8e-3/float64(grid), cov, power, m)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		return r.PeakC
	}
	close := build(1) // ~0.125 mm gap
	far := build(8)   // ~1 mm gap
	if close <= far {
		t.Errorf("close spacing peak %.2f C not above far spacing peak %.2f C", close, far)
	}
}

// TestBuildStack3DHotterThanIso2D: stacking the same total power into a
// 3-D chiplet (half the footprint) must run hotter than the 2-D spread —
// the reason 3-D MCMs need TESA's thermal awareness most.
func TestBuildStack3DHotterThanIso2D(t *testing.T) {
	grid := 32
	m := DefaultMaterials()
	cell := 8e-3 / float64(grid)
	// 2-D: one 4x4-cell region with 3 W array + 1 W SRAM side by side
	// over 32 cells total footprint.
	cov2 := make([]float64, grid*grid)
	p2 := make([]float64, grid*grid)
	for j := 12; j < 16; j++ {
		for i := 10; i < 18; i++ {
			cov2[j*grid+i] = 1
			p2[j*grid+i] = 4.0 / 32
		}
	}
	s2, err := BuildStack2D(grid, cell, cov2, p2, m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// 3-D: same 4 W in half the footprint, split across two tiers.
	cov3 := make([]float64, grid*grid)
	pa := make([]float64, grid*grid)
	ps := make([]float64, grid*grid)
	for j := 12; j < 16; j++ {
		for i := 12; i < 16; i++ {
			cov3[j*grid+i] = 1
			pa[j*grid+i] = 3.0 / 16
			ps[j*grid+i] = 1.0 / 16
		}
	}
	s3, err := BuildStack3D(grid, cell, cov3, ps, pa, 0.02, m)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := s3.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if r3.PeakC <= r2.PeakC {
		t.Errorf("3-D peak %.2f C not above iso-power 2-D peak %.2f C", r3.PeakC, r2.PeakC)
	}
}

// TestTSVsCoolSRAMTier: raising the TSV copper fraction lowers the 3-D
// peak (better vertical conduction), as the paper's joint-resistivity
// model implies.
func TestTSVsCoolSRAMTier(t *testing.T) {
	grid := 32
	m := DefaultMaterials()
	cell := 8e-3 / float64(grid)
	build := func(cu float64) float64 {
		cov := make([]float64, grid*grid)
		pa := make([]float64, grid*grid)
		ps := make([]float64, grid*grid)
		for j := 12; j < 16; j++ {
			for i := 12; i < 16; i++ {
				cov[j*grid+i] = 1
				pa[j*grid+i] = 3.0 / 16
				ps[j*grid+i] = 1.5 / 16
			}
		}
		s, err := BuildStack3D(grid, cell, cov, ps, pa, cu, m)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		return r.PeakC
	}
	if noCu, withCu := build(0), build(0.10); withCu >= noCu {
		t.Errorf("10%% TSV copper peak %.3f C not below no-TSV peak %.3f C", withCu, noCu)
	}
}

func TestBuildStackValidation(t *testing.T) {
	m := DefaultMaterials()
	if _, err := BuildStack2D(8, 1e-4, make([]float64, 10), make([]float64, 64), m); err == nil {
		t.Error("bad coverage length accepted")
	}
	n := make([]float64, 64)
	if _, err := BuildStack3D(8, 1e-4, n, n, n, 1.2, m); err == nil {
		t.Error("copper fraction > 1 accepted")
	}
}

func TestLayerTempsLookup(t *testing.T) {
	s := singleLayer(8, 2)
	r, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if r.LayerTemps(s, "die") == nil {
		t.Error("die layer not found")
	}
	if r.LayerTemps(s, "nope") != nil {
		t.Error("phantom layer found")
	}
}

// TestRisesExposed: Result.Rises matches Temps minus ambient.
func TestRisesExposed(t *testing.T) {
	grid := 8
	s := singleLayer(grid, 4)
	r, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rises) != grid*grid {
		t.Fatalf("rises length %d, want %d", len(r.Rises), grid*grid)
	}
	for i := range r.Rises {
		if math.Abs(r.Rises[i]-(r.Temps[0][i]-45)) > 1e-9 {
			t.Fatalf("cell %d: rise %.6f != temp-ambient %.6f", i, r.Rises[i], r.Temps[0][i]-45)
		}
	}
}
