package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"tesa/internal/floorplan"
	"tesa/internal/thermal"
)

// TestMirroredPowerSamePeak is a symmetry oracle for the thermal domain
// the pipeline builds. The chiplet block is centered on the domain and
// every mesh here is symmetric under both axis flips, so if placement
// centering and coverage rasterization are symmetric, the conductivity
// maps are too, and mirroring only the hottest phase's power maps in x
// or in y must leave the peak temperature unchanged. An off-center
// block or a one-sided rasterization shifts the conductivities against
// the mirrored power and moves the peak. The thermal package's own
// TestSymmetry covers only stacks built by hand.
func TestMirroredPowerSamePeak(t *testing.T) {
	cases := []struct {
		tech Tech
		p    DesignPoint
		mesh floorplan.Mesh
	}{
		{Tech2D, DesignPoint{ArrayDim: 188, ICSUM: 250}, floorplan.Mesh{Rows: 4, Cols: 1}},
		{Tech2D, DesignPoint{ArrayDim: 16, ICSUM: 250}, floorplan.Mesh{Rows: 2, Cols: 3}},
		{Tech2D, DesignPoint{ArrayDim: 132, ICSUM: 250}, floorplan.Mesh{Rows: 3, Cols: 2}},
		// 3-D chiplets are near-square; these are its two meshes.
		{Tech3D, DesignPoint{ArrayDim: 16, ICSUM: 250}, floorplan.Mesh{Rows: 2, Cols: 3}},
		{Tech3D, DesignPoint{ArrayDim: 188, ICSUM: 750}, floorplan.Mesh{Rows: 2, Cols: 2}},
	}
	for _, grid := range []int{16, 27, 32, 88} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%v/grid%d/%v", c.tech, grid, c.mesh), func(t *testing.T) {
				e := testEvaluator(t, c.tech, 400, 15, 85)
				e.Opts.Grid = grid
				ev, err := e.EvaluateFullContext(context.Background(), c.p)
				if err != nil {
					t.Fatal(err)
				}
				if ev.Mesh != c.mesh || ev.HottestStack == nil {
					t.Fatalf("%v: mesh %v, hottest stack %v; want mesh %v with a thermal field", c.p, ev.Mesh, ev.HottestStack != nil, c.mesh)
				}
				for _, flipX := range []bool{true, false} {
					res, err := mirrorPower(ev.HottestStack, flipX).Solve()
					if err != nil {
						t.Fatal(err)
					}
					if d := math.Abs(res.PeakC - ev.Hottest.PeakC); d > 1e-6 {
						t.Errorf("flipX=%v: mirrored peak %.9f C, original %.9f C (|d| = %.2g)", flipX, res.PeakC, ev.Hottest.PeakC, d)
					}
				}
			})
		}
	}
}

// mirrorPower returns a copy of s whose power maps are mirrored in x
// (flipX) or in y; conductivities and everything else are s's.
func mirrorPower(s *thermal.Stack, flipX bool) *thermal.Stack {
	m := *s
	m.Layers = append([]thermal.Layer(nil), s.Layers...)
	g := s.Grid
	for l, layer := range m.Layers {
		if layer.Power == nil {
			continue
		}
		p := make([]float64, len(layer.Power))
		for j := 0; j < g; j++ {
			for i := 0; i < g; i++ {
				si, sj := g-1-i, j
				if !flipX {
					si, sj = i, g-1-j
				}
				p[j*g+i] = layer.Power[sj*g+si]
			}
		}
		m.Layers[l].Power = p
	}
	return &m
}
