package core

// Geometry key canonicalization of the thermal warm-start cache: it
// collapses neighboring geometries on purpose, because a CG guess
// tolerates small shifts. The geometry regression test (geom_test.go)
// pins which differences the key keeps and which it drops.

import "math"

// quantMM quantizes a dimension in millimeters to integer steps of q —
// the single quantization primitive every geometry key builds on.
func quantMM(mm, q float64) int { return int(math.Round(mm / q)) }

// warmKeyFor derives the warm-start cache key of ev's thermal problem at
// the given grid resolution: same grid, integration tech (hence layer
// stack), chiplet mesh, and warmQuantMM-quantized chiplet dimensions.
// Inter-chiplet spacing is deliberately absent — an ICS step shifts the
// hot spots by a fraction of a millimeter, which a CG warm start absorbs
// in a handful of extra iterations, whereas keying on it would separate
// exactly the neighboring moves the cache exists for.
func (e *Evaluator) warmKeyFor(ev *Evaluation, grid int) warmKey {
	return warmKey{
		grid: grid,
		tech: e.Opts.Tech,
		rows: ev.Mesh.Rows,
		cols: ev.Mesh.Cols,
		wq:   quantMM(ev.Chiplet.WidthMM, warmQuantMM),
		hq:   quantMM(ev.Chiplet.HeightMM, warmQuantMM),
	}
}
