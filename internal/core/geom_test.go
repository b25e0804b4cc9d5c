package core

import (
	"testing"

	"tesa/internal/floorplan"
)

// TestQuantMM pins the shared quantization primitive: round-to-nearest
// in steps of q, symmetric around the step midpoint.
func TestQuantMM(t *testing.T) {
	cases := []struct {
		mm, q float64
		want  int
	}{
		{0, 0.25, 0},
		{0.12, 0.25, 0},
		{0.13, 0.25, 1},
		{3.1, 0.25, 12},
		{3.23, 0.25, 13},
		{10, 1, 10},
	}
	for _, c := range cases {
		if got := quantMM(c.mm, c.q); got != c.want {
			t.Errorf("quantMM(%g, %g) = %d, want %d", c.mm, c.q, got, c.want)
		}
	}
}

// TestGeometryKeyConsistency is the regression guard for the thermal
// warm-start key: it collapses sub-quantum chiplet-dimension
// differences (a CG guess tolerates small shifts) but keeps a full
// quantum and the grid resolution apart.
func TestGeometryKeyConsistency(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	base := &Evaluation{Mesh: floorplan.Mesh{Rows: 2, Cols: 2}}
	base.Chiplet.WidthMM, base.Chiplet.HeightMM = 3.10, 3.10
	near := &Evaluation{Mesh: floorplan.Mesh{Rows: 2, Cols: 2}}
	near.Chiplet.WidthMM, near.Chiplet.HeightMM = 3.12, 3.10 // sub-quantum shift
	far := &Evaluation{Mesh: floorplan.Mesh{Rows: 2, Cols: 2}}
	far.Chiplet.WidthMM, far.Chiplet.HeightMM = 3.23, 3.10 // next quantum

	if e.warmKeyFor(base, 24) != e.warmKeyFor(near, 24) {
		t.Error("warm-start key separated two geometries within one quantum")
	}
	if e.warmKeyFor(base, 24) == e.warmKeyFor(far, 24) {
		t.Error("warm-start key collapsed geometries a full quantum apart")
	}
	if e.warmKeyFor(base, 24) == e.warmKeyFor(base, 32) {
		t.Error("warm-start key ignored the grid resolution")
	}
}
