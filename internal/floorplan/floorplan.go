// Package floorplan implements TESA's mesh estimator and floorplanner:
// given a chiplet footprint and an inter-chiplet spacing (ICS), it derives
// the rows x columns mesh that fills the interposer uniformly, places the
// chiplets, orders them corner-first for the thermally-aware scheduler,
// and rasterizes per-chiplet power into the per-layer power maps the
// thermal model consumes.
package floorplan

import (
	"fmt"
	"math"
	"sort"
)

// Mesh is a rows x columns uniform chiplet grid.
type Mesh struct {
	Rows, Cols int
}

// Count returns the number of chiplets in the mesh.
func (m Mesh) Count() int { return m.Rows * m.Cols }

// String formats the mesh as "RxC".
func (m Mesh) String() string { return fmt.Sprintf("%dx%d", m.Rows, m.Cols) }

// EstimateMesh returns the densest mesh of chiplets of the given width
// and height at exact inter-chiplet spacing that fits the (square)
// interposer, capped at maxChiplets (the paper limits chiplet count to
// the number of DNNs to avoid over-provisioning). Ties in chiplet count
// prefer the squarer mesh, which spreads heat more evenly. Rectangular
// 2-D chiplets naturally produce the paper's one-dimensional 2x1/3x1
// meshes; square 3-D chiplets produce 2x2-style meshes.
func EstimateMesh(interposerMM, widthMM, heightMM, icsMM float64, maxChiplets int) (Mesh, error) {
	if interposerMM <= 0 || widthMM <= 0 || heightMM <= 0 || icsMM < 0 {
		return Mesh{}, fmt.Errorf("floorplan: bad geometry interposer=%g chiplet=%gx%g ics=%g", interposerMM, widthMM, heightMM, icsMM)
	}
	if maxChiplets <= 0 {
		return Mesh{}, fmt.Errorf("floorplan: non-positive chiplet cap %d", maxChiplets)
	}
	// n chiplets along a dimension need n*dim + (n-1)*ics <= interposer.
	maxCols := int((interposerMM + icsMM) / (widthMM + icsMM))
	maxRows := int((interposerMM + icsMM) / (heightMM + icsMM))
	if maxCols < 1 || maxRows < 1 {
		return Mesh{}, fmt.Errorf("floorplan: %.2fx%.2f mm chiplet does not fit %.2f mm interposer", widthMM, heightMM, interposerMM)
	}
	best := Mesh{}
	for r := 1; r <= maxRows; r++ {
		for c := 1; c <= maxCols; c++ {
			if r*c > maxChiplets {
				continue
			}
			if r*c > best.Count() ||
				(r*c == best.Count() && abs(r-c) < abs(best.Rows-best.Cols)) {
				best = Mesh{Rows: r, Cols: c}
			}
		}
	}
	return best, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Rect is an axis-aligned rectangle in interposer coordinates
// (millimetres, origin at the interposer's lower-left corner).
type Rect struct {
	X, Y, W, H float64
}

// Area returns the rectangle's area in mm^2.
func (r Rect) Area() float64 { return r.W * r.H }

// CenterX and CenterY return the rectangle's centroid.
func (r Rect) CenterX() float64 { return r.X + r.W/2 }

// CenterY returns the Y coordinate of the rectangle's centroid.
func (r Rect) CenterY() float64 { return r.Y + r.H/2 }

// Overlap returns the overlap area of two rectangles.
func (r Rect) Overlap(o Rect) float64 {
	w := math.Min(r.X+r.W, o.X+o.W) - math.Max(r.X, o.X)
	h := math.Min(r.Y+r.H, o.Y+o.H) - math.Max(r.Y, o.Y)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Placement is a concrete MCM floorplan: chiplet footprints on the
// interposer.
type Placement struct {
	InterposerMM      float64
	WidthMM, HeightMM float64 // chiplet footprint dimensions
	ICSmm             float64
	Mesh              Mesh
	Chiplets          []Rect // row-major, length Mesh.Count()
}

// Place builds the uniform, centered placement for the mesh: chiplets are
// separated by exactly the ICS and the whole block is centered on the
// interposer (the paper's dense mesh-like layout with chiplets toward the
// edges).
func Place(interposerMM, widthMM, heightMM, icsMM float64, m Mesh) (*Placement, error) {
	if m.Rows <= 0 || m.Cols <= 0 {
		return nil, fmt.Errorf("floorplan: empty mesh %v", m)
	}
	blockW := float64(m.Cols)*widthMM + float64(m.Cols-1)*icsMM
	blockH := float64(m.Rows)*heightMM + float64(m.Rows-1)*icsMM
	if blockW > interposerMM+1e-9 || blockH > interposerMM+1e-9 {
		return nil, fmt.Errorf("floorplan: mesh %v of %.2fx%.2f mm chiplets at %.2f mm ICS overflows %.2f mm interposer",
			m, widthMM, heightMM, icsMM, interposerMM)
	}
	x0 := (interposerMM - blockW) / 2
	y0 := (interposerMM - blockH) / 2
	p := &Placement{
		InterposerMM: interposerMM,
		WidthMM:      widthMM,
		HeightMM:     heightMM,
		ICSmm:        icsMM,
		Mesh:         m,
		Chiplets:     make([]Rect, 0, m.Count()),
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			p.Chiplets = append(p.Chiplets, Rect{
				X: x0 + float64(c)*(widthMM+icsMM),
				Y: y0 + float64(r)*(heightMM+icsMM),
				W: widthMM, H: heightMM,
			})
		}
	}
	return p, nil
}

// Inset returns a copy of the placement whose chiplet rectangles are
// shrunk by d on every side (used to inject power only into the active
// die area inside a 3-D chiplet's assembly margin). A non-positive d
// returns the placement unchanged.
func (p *Placement) Inset(d float64) *Placement {
	if d <= 0 {
		return p
	}
	q := *p
	q.Chiplets = make([]Rect, len(p.Chiplets))
	for i, r := range p.Chiplets {
		q.Chiplets[i] = Rect{X: r.X + d, Y: r.Y + d, W: r.W - 2*d, H: r.H - 2*d}
	}
	return &q
}

// CornerFirstOrder returns chiplet indices sorted corner-first: the
// paper's scheduler fills corner chiplets, then outer rows/columns, then
// the center, to keep the hottest work at the best-spreading positions.
// Order is by descending distance of the chiplet center from the
// interposer center (deterministic tie-break on index).
func (p *Placement) CornerFirstOrder() []int {
	center := p.InterposerMM / 2
	idx := make([]int, len(p.Chiplets))
	for i := range idx {
		idx[i] = i
	}
	dist := func(i int) float64 {
		dx := p.Chiplets[i].CenterX() - center
		dy := p.Chiplets[i].CenterY() - center
		return dx*dx + dy*dy
	}
	sort.SliceStable(idx, func(a, b int) bool {
		da, db := dist(idx[a]), dist(idx[b])
		if da != db {
			return da > db
		}
		return idx[a] < idx[b]
	})
	return idx
}

// ChipletPower is the dissipation of one chiplet, split by region/tier.
type ChipletPower struct {
	ArrayWatts float64 // systolic array (+ its leakage)
	SRAMWatts  float64 // three SRAM macros (+ leakage, + TSV power in 3-D)
}

// PowerMaps holds per-cell power for the die layers of the thermal stack,
// in row-major grid order.
type PowerMaps struct {
	Grid int
	// Array is the array-tier (3-D) or unified-die (2-D) map.
	Array []float64
	// SRAM is the SRAM-tier map; nil for 2-D MCMs, where SRAM power is
	// folded into Array within each chiplet's SRAM region.
	SRAM []float64
}

// Rasterize distributes per-chiplet power onto a grid x grid map of the
// interposer. In 2-D, each chiplet footprint is split into an array
// region and an SRAM region side by side (proportional to arrayFrac,
// the array's share of the footprint); in 3-D, the two tiers each cover
// the full footprint and get their own map.
func (p *Placement) Rasterize(grid int, powers []ChipletPower, threeD bool, arrayFrac float64) (*PowerMaps, error) {
	pm := &PowerMaps{}
	if err := p.RasterizeInto(pm, grid, powers, threeD, arrayFrac); err != nil {
		return nil, err
	}
	return pm, nil
}

// RasterizeInto is Rasterize writing into pm, reusing its maps when
// their capacity suffices: a step loop that recycles pm rasterizes
// without allocating. On error pm is left unchanged.
func (p *Placement) RasterizeInto(pm *PowerMaps, grid int, powers []ChipletPower, threeD bool, arrayFrac float64) error {
	if grid <= 0 {
		return fmt.Errorf("floorplan: non-positive grid %d", grid)
	}
	if len(powers) != len(p.Chiplets) {
		return fmt.Errorf("floorplan: %d power entries for %d chiplets", len(powers), len(p.Chiplets))
	}
	if arrayFrac <= 0 || arrayFrac > 1 {
		return fmt.Errorf("floorplan: array fraction %g out of (0,1]", arrayFrac)
	}
	pm.Grid = grid
	pm.Array = zeroed(pm.Array, grid*grid)
	if threeD {
		pm.SRAM = zeroed(pm.SRAM, grid*grid)
	} else {
		pm.SRAM = nil
	}
	for i, rect := range p.Chiplets {
		if threeD {
			p.splat(pm.Array, grid, rect, powers[i].ArrayWatts)
			p.splat(pm.SRAM, grid, rect, powers[i].SRAMWatts)
			continue
		}
		// 2-D: array on the left arrayFrac of the footprint, SRAMs on
		// the right.
		arr := Rect{X: rect.X, Y: rect.Y, W: rect.W * arrayFrac, H: rect.H}
		sr := Rect{X: rect.X + arr.W, Y: rect.Y, W: rect.W - arr.W, H: rect.H}
		p.splat(pm.Array, grid, arr, powers[i].ArrayWatts)
		if sr.W > 0 {
			p.splat(pm.Array, grid, sr, powers[i].SRAMWatts)
		} else {
			p.splat(pm.Array, grid, arr, powers[i].SRAMWatts)
		}
	}
	return nil
}

// zeroed returns s resliced to n zeroed entries, reallocating only when
// its capacity is short.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Coverage returns, for each cell of a grid x grid discretization of the
// interposer, the fraction of the cell covered by chiplet silicon. The
// thermal model uses it to assign silicon conductivity inside footprints
// and underfill conductivity in the whitespace.
func (p *Placement) Coverage(grid int) []float64 {
	cov := make([]float64, grid*grid)
	cell := p.InterposerMM / float64(grid)
	cellArea := cell * cell
	for _, rect := range p.Chiplets {
		i0 := int(rect.X / cell)
		j0 := int(rect.Y / cell)
		i1 := int(math.Ceil((rect.X + rect.W) / cell))
		j1 := int(math.Ceil((rect.Y + rect.H) / cell))
		for j := max(0, j0); j < min(grid, j1); j++ {
			for i := max(0, i0); i < min(grid, i1); i++ {
				c := Rect{X: float64(i) * cell, Y: float64(j) * cell, W: cell, H: cell}
				cov[j*grid+i] += rect.Overlap(c) / cellArea
			}
		}
	}
	for i, v := range cov {
		if v > 1 {
			cov[i] = 1
		}
	}
	return cov
}

// splat adds `watts` distributed over rect into the map by exact
// cell-overlap areas.
func (p *Placement) splat(m []float64, grid int, rect Rect, watts float64) {
	if watts == 0 || rect.Area() <= 0 {
		return
	}
	cell := p.InterposerMM / float64(grid)
	perArea := watts / rect.Area()
	i0 := int(rect.X / cell)
	j0 := int(rect.Y / cell)
	i1 := int(math.Ceil((rect.X + rect.W) / cell))
	j1 := int(math.Ceil((rect.Y + rect.H) / cell))
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > grid {
			return grid
		}
		return v
	}
	i0, i1, j0, j1 = clamp(i0), clamp(i1), clamp(j0), clamp(j1)
	for j := j0; j < j1; j++ {
		for i := i0; i < i1; i++ {
			c := Rect{X: float64(i) * cell, Y: float64(j) * cell, W: cell, H: cell}
			if ov := rect.Overlap(c); ov > 0 {
				m[j*grid+i] += perArea * ov
			}
		}
	}
}
