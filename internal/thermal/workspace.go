package thermal

import (
	"fmt"
	"math"
)

// coarsestGrid is the lateral grid at or below which the multigrid
// hierarchy stops coarsening and solves its level exactly.
const coarsestGrid = 4

// basisCap is the number of earlier solution directions a Workspace
// keeps for the stack whose operator it holds. In the grid-32 optimize
// benchmark's leakage loops, solves started from a basis of 0, 1, 2 and
// 3 directions took 8.5, 6.2, 5.1 and 3.2 CG iterations on average,
// and solves from the full basis of four 1.2; a cap of six or eight
// saves under 6% more iterations for 50% or 100% more basis memory.
const basisCap = 4

// negligibleDirection is the relative A-norm below which a solve's
// correction to the projection is rounding noise rather than a new
// direction, and is not recorded.
const negligibleDirection = 1e-10

// cgItersPerNode caps a solve at this many CG iterations per grid node
// before it fails with ErrNoConvergence; no solve of the design space
// has taken more than 12 at grids 32 and 88. A variable only so a test
// can reach the cap.
var cgItersPerNode = 20

// Workspace is the reusable arena of the package's one solver,
// multigrid-preconditioned conjugate gradients: the conductance operator
// of every multigrid level, the smoother's column factors, the CG
// vectors, and the dense Cholesky factor of the coarsest level, all
// allocated once and recycled across solves (growing monotonically when
// a larger stack arrives). A Workspace is NOT safe for concurrent use —
// keep one per goroutine (e.g. via sync.Pool); a solve that recycles its
// workspace allocates nothing.
//
// The workspace remembers the Stack its steady operator was assembled
// for: a later solve of the same *Stack (see the Stack contract) skips
// validation of everything but the power maps, skips the assembly, and
// starts CG from the projection of its right-hand side onto the
// directions the earlier solves of that stack recorded.
type Workspace struct {
	// levels[0] is the stack's own grid; each further level halves the
	// lateral grid and keeps every layer. levels[0].b and levels[0].z
	// are also the CG residual and preconditioned residual.
	levels []level
	// CG iterate, search direction and operator image, padded like
	// levels[0].
	x, p, ap []float64
	// chol is the lower Cholesky factor of the coarsest level's matrix.
	chol []float64
	// op is the stack whose steady operator the levels and chol hold;
	// nil when they hold none, or a transient stepper's A + C/dt.
	op *Stack
	// basis holds nb directions of n unpadded entries each, back to back
	// in a slab of basisCap*n, A-orthonormal under op's operator A.
	basis []float64
	nb    int
	// coef[h] is dir(h)·q for the current solve's right-hand side q: the
	// solve started from the projection sum over h of coef[h] dir(h).
	coef [basisCap]float64
}

// level is one grid of the multigrid hierarchy. Every per-node array is
// laid out layer-major, row-major within a layer, and padded by one row
// (off = g entries) on each side. Conductances vanish across the grid
// boundary and in the pads, so the lateral stencil reads idx±1 and
// idx±g without branching; the vertical neighbours are chosen per layer.
type level struct {
	g, nc, nl, n, off int
	// gx couples (i,j) to (i+1,j), gy couples (i,j) to (i,j+1), gz
	// couples layer l to l+1 (zero on the top layer); diag is the
	// operator's diagonal.
	gx, gy, gz, diag []float64
	// invW holds the reciprocal pivots of each column's tridiagonal
	// factorization (Thomas algorithm), the smoother's exact line solve;
	// elim holds its forward-elimination weights, gz*invW of the cell
	// below (zero on layer 0, which has none).
	invW, elim []float64
	// b is the right-hand side of the level's V-cycle and z its result.
	b, z []float64
}

// NewWorkspace returns an empty workspace; buffers are allocated on
// first use and reused afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// grow returns s resliced to n entries, reallocating only when its
// capacity is short.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// clearFloats zeroes s.
func clearFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// reserve sizes lv for a g x g grid of nl layers. The pads are zeroed
// on every call: a recycled buffer may hold a previous geometry's
// values there.
func (lv *level) reserve(g, nl int) {
	lv.g, lv.nc, lv.nl, lv.off = g, g*g, nl, g
	lv.n = nl * lv.nc
	size := lv.n + 2*g
	lv.gx, lv.gy, lv.gz = grow(lv.gx, size), grow(lv.gy, size), grow(lv.gz, size)
	lv.diag, lv.invW, lv.elim = grow(lv.diag, size), grow(lv.invW, size), grow(lv.elim, size)
	lv.b, lv.z = grow(lv.b, size), grow(lv.z, size)
	clearPads(g, lv.gx, lv.gy, lv.gz, lv.diag, lv.invW, lv.elim, lv.b, lv.z)
}

// clearPads zeroes the first and last pad entries of each array.
func clearPads(pad int, arrays ...[]float64) {
	for _, a := range arrays {
		clearFloats(a[:pad])
		clearFloats(a[len(a)-pad:])
	}
}

// reserve sizes the workspace for a g x g grid of nl layers: the
// hierarchy halves the lateral grid until it is coarsestGrid or
// smaller.
func (ws *Workspace) reserve(g, nl int) {
	depth := 1
	for gg := g; gg > coarsestGrid; gg = (gg + 1) / 2 {
		depth++
	}
	if cap(ws.levels) < depth {
		ws.levels = append(ws.levels[:cap(ws.levels)], make([]level, depth-cap(ws.levels))...)
	}
	ws.levels = ws.levels[:depth]
	size := nl*g*g + 2*g
	ws.x, ws.p, ws.ap = grow(ws.x, size), grow(ws.p, size), grow(ws.ap, size)
	clearPads(g, ws.x, ws.p, ws.ap)
	for k := range ws.levels {
		ws.levels[k].reserve(g, nl)
		g = (g + 1) / 2
	}
	m := ws.levels[depth-1].n
	ws.chol = grow(ws.chol, m*m)
	ws.basis = grow(ws.basis, basisCap*ws.levels[0].n)
}

// assemble builds every level's operator for s, with extra (nil, or one
// value per node) added to the diagonal — the implicit-Euler C/dt term
// of the transient solver — and factors the coarsest level.
//
// Level 0 is the conductance network of the package doc. A coarse level
// aggregates 2x2 cells of the level below, layer by layer: its vertical
// couplings and its diagonal sinks (ambient film, C/dt) are the sums
// over the aggregate, as in the Galerkin product, but its lateral
// couplings are half the summed face conductances, which is what
// rediscretizing on cells twice as wide gives. The plain Galerkin sum
// over-couples the coarse grid: the CG iterations then grow with the
// grid (13, 18 and 26 cold iterations at grids 16, 32 and 64, against
// 9, 9 and 10).
func (ws *Workspace) assemble(s *Stack, extra []float64) error {
	lv := &ws.levels[0]
	g, nc, off := lv.g, lv.nc, lv.off
	nl := lv.nl
	area := s.CellM * s.CellM
	gamb := 1 / (s.ConvectionKPerW * float64(nc))
	for l := 0; l < nl; l++ {
		t, k := s.Layers[l].ThicknessM, s.Layers[l].K
		base := off + l*nc
		for j := 0; j < g; j++ {
			for i := 0; i < g; i++ {
				c := j*g + i
				var vx, vy, vz float64
				if i+1 < g {
					vx = t * harm(k[c], k[c+1])
				}
				if j+1 < g {
					vy = t * harm(k[c], k[c+g])
				}
				if l+1 < nl {
					up := s.Layers[l+1]
					vz = area / (t/(2*k[c]) + up.ThicknessM/(2*up.K[c]))
				}
				lv.gx[base+c], lv.gy[base+c], lv.gz[base+c] = vx, vy, vz
			}
		}
		// Diagonal sinks first; the coupling sums follow below, once
		// the coarse levels have aggregated the sinks.
		film := 0.0
		if l == nl-1 {
			film = gamb
		}
		for c := 0; c < nc; c++ {
			d := film
			if extra != nil {
				d += extra[l*nc+c]
			}
			lv.diag[base+c] = d
		}
	}
	for k := 1; k < len(ws.levels); k++ {
		f, c := &ws.levels[k-1], &ws.levels[k]
		f.aggregate(f.diag, c.diag, c)
		f.aggregate(f.gz, c.gz, c)
		c.coarsenLateral(f)
	}
	for k := range ws.levels {
		ws.levels[k].finish()
	}
	return ws.factorCoarsest()
}

// aggregate sets dst (on coarse level c) to the sums of src (on lv)
// over each 2x2 aggregate, layer by layer.
func (lv *level) aggregate(src, dst []float64, c *level) {
	clearFloats(dst[c.off : c.off+c.n])
	for l := 0; l < lv.nl; l++ {
		for j := 0; j < lv.g; j++ {
			fine := lv.off + l*lv.nc + j*lv.g
			coarse := c.off + l*c.nc + (j>>1)*c.g
			for i := 0; i < lv.g; i++ {
				dst[coarse+i>>1] += src[fine+i]
			}
		}
	}
}

// coarsenLateral sets lv's lateral couplings from the finer level f:
// half the sum of the fine face conductances crossing each aggregate
// boundary.
func (lv *level) coarsenLateral(f *level) {
	for l := 0; l < lv.nl; l++ {
		for jc := 0; jc < lv.g; jc++ {
			for ic := 0; ic < lv.g; ic++ {
				var sx, sy float64
				for d := 0; d < 2; d++ {
					// Faces on the aggregate's +x edge (fine column
					// 2ic+1, rows 2jc+d) and +y edge (fine row 2jc+1,
					// columns 2ic+d); a face past the fine grid adds
					// nothing.
					if i, j := 2*ic+1, 2*jc+d; i < f.g && j < f.g {
						sx += f.gx[f.off+l*f.nc+j*f.g+i]
					}
					if i, j := 2*ic+d, 2*jc+1; i < f.g && j < f.g {
						sy += f.gy[f.off+l*f.nc+j*f.g+i]
					}
				}
				k := lv.off + l*lv.nc + jc*lv.g + ic
				lv.gx[k], lv.gy[k] = sx/2, sy/2
			}
		}
	}
}

// finish adds the coupling sums to the diagonal sinks and factors each
// vertical column's tridiagonal block for the line smoother, storing the
// pivots and the elimination weights the sweeps would otherwise form per
// cell on every pass.
func (lv *level) finish() {
	g, nc := lv.g, lv.nc
	for l := 0; l < lv.nl; l++ {
		base := lv.off + l*nc
		for c := 0; c < nc; c++ {
			k := base + c
			d := lv.gx[k] + lv.gx[k-1] + lv.gy[k] + lv.gy[k-g] + lv.gz[k]
			if l > 0 {
				d += lv.gz[k-nc]
			}
			lv.diag[k] += d
		}
	}
	for k := lv.off; k < lv.off+nc; k++ {
		lv.invW[k], lv.elim[k] = 1/lv.diag[k], 0
		for l := 1; l < lv.nl; l++ {
			up := k + l*nc
			gz := lv.gz[up-nc]
			lv.elim[up] = gz * lv.invW[up-nc]
			lv.invW[up] = 1 / (lv.diag[up] - gz*gz*lv.invW[up-nc])
		}
	}
}

// factorCoarsest builds the coarsest level's matrix densely and
// overwrites ws.chol with its lower Cholesky factor.
func (ws *Workspace) factorCoarsest() error {
	lv := &ws.levels[len(ws.levels)-1]
	g, nc, m := lv.g, lv.nc, lv.n
	a := ws.chol
	clearFloats(a)
	for k := 0; k < m; k++ {
		p := lv.off + k
		a[k*m+k] = lv.diag[p]
		if k%g+1 < g {
			a[(k+1)*m+k] = -lv.gx[p]
		}
		if k%nc/g+1 < g {
			a[(k+g)*m+k] = -lv.gy[p]
		}
		if k+nc < m {
			a[(k+nc)*m+k] = -lv.gz[p]
		}
	}
	for j := 0; j < m; j++ {
		d := a[j*m+j]
		for k := 0; k < j; k++ {
			d -= a[j*m+k] * a[j*m+k]
		}
		if !(d > 0) {
			return fmt.Errorf("%w: coarse operator not positive definite (pivot %g)", ErrNoConvergence, d)
		}
		d = math.Sqrt(d)
		a[j*m+j] = d
		for i := j + 1; i < m; i++ {
			v := a[i*m+j]
			for k := 0; k < j; k++ {
				v -= a[i*m+k] * a[j*m+k]
			}
			a[i*m+j] = v / d
		}
	}
	return nil
}

// coarseSolve sets lv.z to the exact solution for lv.b by forward and
// back substitution through the Cholesky factor.
func (ws *Workspace) coarseSolve(lv *level) {
	a, m := ws.chol, lv.n
	z := lv.z[lv.off : lv.off+m]
	copy(z, lv.b[lv.off:lv.off+m])
	for i := 0; i < m; i++ {
		v := z[i]
		row := a[i*m : i*m+i]
		for k, lik := range row {
			v -= lik * z[k]
		}
		z[i] = v / a[i*m+i]
	}
	for i := m - 1; i >= 0; i-- {
		v := z[i]
		for k := i + 1; k < m; k++ {
			v -= a[k*m+i] * z[k]
		}
		z[i] = v / a[i*m+i]
	}
}

// vertical returns the per-layer views the 7-point stencil needs for
// layer l of vector v: the couplings to the layer below, and v's values
// in the layers below and above. A missing neighbour layer gets the top
// layer's all-zero gz row as its coupling and v's own layer as its
// values, so its term vanishes without a branch.
func (lv *level) vertical(v []float64, l int) (gzBelow, below, above []float64) {
	lo := lv.off + l*lv.nc
	hi := lo + lv.nc
	gzBelow, below, above = lv.gz[lv.off+lv.n-lv.nc:lv.off+lv.n], v[lo:hi], v[lo:hi]
	if l > 0 {
		gzBelow, below = lv.gz[lo-lv.nc:hi-lv.nc], v[lo-lv.nc:hi-lv.nc]
	}
	if l+1 < lv.nl {
		above = v[lo+lv.nc : hi+lv.nc]
	}
	return gzBelow, below, above
}

// apply sets y = A x over the level and returns dot(x, y).
func (lv *level) apply(x, y []float64) float64 {
	g, nc := lv.g, lv.nc
	var dot float64
	for l := 0; l < lv.nl; l++ {
		lo := lv.off + l*nc
		hi := lo + nc
		gzm, xdn, xup := lv.vertical(x, l)
		xc, yc := x[lo:hi], y[lo:hi:hi]
		diag := lv.diag[lo:hi][:nc]
		gxc, gxm := lv.gx[lo:hi][:nc], lv.gx[lo-1 : hi-1][:nc]
		gyc, gym := lv.gy[lo:hi][:nc], lv.gy[lo-g : hi-g][:nc]
		gzc := lv.gz[lo:hi][:nc]
		xp1, xm1 := x[lo+1 : hi+1][:nc], x[lo-1 : hi-1][:nc]
		xpg, xmg := x[lo+g : hi+g][:nc], x[lo-g : hi-g][:nc]
		gzm, xdn, xup = gzm[:nc], xdn[:nc], xup[:nc]
		for i := range xc {
			v := diag[i]*xc[i] -
				gxc[i]*xp1[i] - gxm[i]*xm1[i] -
				gyc[i]*xpg[i] - gym[i]*xmg[i] -
				gzc[i]*xup[i] - gzm[i]*xdn[i]
			yc[i] = v
			dot += xc[i] * v
		}
	}
	return dot
}

// The two colours of the column sweeps: a column (i,j) is red when
// (i+j)%2 == 0, black otherwise.
const (
	red   = 0
	black = 1
)

// below returns the forward-elimination views for layer l of vector v:
// the weights elim and v's values one layer down. Layer 0 has no layer
// below; its elim row, all zeros, stands in for both, so its term is
// zero without reading v.
func (lv *level) below(v []float64, l int) (e, vb []float64) {
	lo := lv.off + l*lv.nc
	e = lv.elim[lo : lo+lv.nc]
	if l == 0 {
		return e, e
	}
	return e, v[lo-lv.nc : lo]
}

// eliminate is the forward pass of a column Gauss-Seidel sweep over the
// columns of one colour, bottom-up: each cell takes its right-hand side,
// its lateral terms and the elimination of the cell below. The lateral
// neighbours of a column all have the other colour and stay fixed, so
// with substitute the column's tridiagonal system is solved exactly.
// fromZero drops the lateral terms, which are exactly zero when the
// other colour's cells hold zero: the V-cycle's first half-sweep starts
// from a zero field, so z needs no clearing and every cell is written
// before a non-zero coupling reads it.
func (lv *level) eliminate(color int, fromZero bool) {
	g, nc := lv.g, lv.nc
	for l := 0; l < lv.nl; l++ {
		e, zdn := lv.below(lv.z, l)
		base := lv.off + l*nc
		for j := 0; j < g; j++ {
			row := base + j*g
			z := lv.z[row : row+g]
			b := lv.b[row : row+g][:len(z)]
			eb, zb := e[j*g:][:len(z)], zdn[j*g:][:len(z)]
			if fromZero {
				for i := (color + j) & 1; i < len(z); i += 2 {
					z[i] = b[i] + eb[i]*zb[i]
				}
				continue
			}
			gxc, gxm := lv.gx[row : row+g][:len(z)], lv.gx[row-1 : row-1+g][:len(z)]
			gyc, gym := lv.gy[row : row+g][:len(z)], lv.gy[row-g : row][:len(z)]
			zp1, zm1 := lv.z[row+1 : row+1+g][:len(z)], lv.z[row-1 : row-1+g][:len(z)]
			zpg, zmg := lv.z[row+g : row+2*g][:len(z)], lv.z[row-g : row][:len(z)]
			for i := (color + j) & 1; i < len(z); i += 2 {
				z[i] = b[i] + gxc[i]*zp1[i] + gxm[i]*zm1[i] + gyc[i]*zpg[i] + gym[i]*zmg[i] +
					eb[i]*zb[i]
			}
		}
	}
}

// substitute is the back substitution of a column sweep for layer l,
// which must follow that of every layer above it.
func (lv *level) substitute(color, l int) {
	g := lv.g
	_, _, zup := lv.vertical(lv.z, l)
	base := lv.off + l*lv.nc
	for j := 0; j < g; j++ {
		row := base + j*g
		z := lv.z[row : row+g]
		gzc, w := lv.gz[row : row+g][:len(z)], lv.invW[row : row+g][:len(z)]
		zu := zup[j*g:][:len(z)]
		for i := (color + j) & 1; i < len(z); i += 2 {
			z[i] = (z[i] + gzc[i]*zu[i]) * w[i]
		}
	}
}

// sweep is one column Gauss-Seidel pass over the columns of one colour.
func (lv *level) sweep(color int, fromZero bool) {
	lv.eliminate(color, fromZero)
	for l := lv.nl - 1; l >= 0; l-- {
		lv.substitute(color, l)
	}
}

// restrictLayer sets layer l of c.b to the 2x2 aggregate sums of lv's
// residual b - A z after the pre-smoothing sweep. The black sweep leaves
// every black column's residual exactly zero. The red sweep solved the
// red columns exactly against zero lateral neighbours, so a red cell's
// residual is exactly the sum of its four lateral terms. The sum reads
// only layer l's black cells, so it runs right after that layer's back
// substitution, while they are in cache.
func (lv *level) restrictLayer(c *level, l int) {
	g := lv.g
	base := lv.off + l*lv.nc
	for j := 0; j < g; j++ {
		row := base + j*g
		z := lv.z[row : row+g]
		gxc, gxm := lv.gx[row : row+g][:len(z)], lv.gx[row-1 : row-1+g][:len(z)]
		gyc, gym := lv.gy[row : row+g][:len(z)], lv.gy[row-g : row][:len(z)]
		zp1, zm1 := lv.z[row+1 : row+1+g][:len(z)], lv.z[row-1 : row-1+g][:len(z)]
		zpg, zmg := lv.z[row+g : row+2*g][:len(z)], lv.z[row-g : row][:len(z)]
		cb := c.b[c.off+l*c.nc+(j>>1)*c.g:][:c.g]
		// Aggregate (ic,jc) holds red cell (2ic,2jc), which sets its sum,
		// and, if on the grid, red cell (2ic+1,2jc+1), which adds to it.
		if j&1 == 0 {
			for i := 0; i < len(z); i += 2 {
				cb[i>>1] = gxc[i]*zp1[i] + gxm[i]*zm1[i] + gyc[i]*zpg[i] + gym[i]*zmg[i]
			}
		} else {
			for i := 1; i < len(z); i += 2 {
				cb[i>>1] += gxc[i]*zp1[i] + gxm[i]*zm1[i] + gyc[i]*zpg[i] + gym[i]*zmg[i]
			}
		}
	}
}

// prolongRed adds the coarse correction c.z to the red cells of lv.z,
// constant over each aggregate. The black cells need none: the
// post-smoothing black sweep that follows overwrites them without
// reading their old values.
func (lv *level) prolongRed(c *level) {
	for l := 0; l < lv.nl; l++ {
		for j := 0; j < lv.g; j++ {
			z := lv.z[lv.off+l*lv.nc+j*lv.g:][:lv.g]
			cz := c.z[c.off+l*c.nc+(j>>1)*c.g:][:c.g]
			for i := j & 1; i < len(z); i += 2 {
				z[i] += cz[i>>1]
			}
		}
	}
}

// vcycle sets levels[k].z to the V-cycle's approximation of
// A_k^-1 levels[k].b: one red-black column sweep from zero, the coarse
// correction of the aggregated residual, and the same sweep in reverse
// colour order. The reversal makes the cycle a symmetric
// positive-definite operator, as a CG preconditioner must be.
func (ws *Workspace) vcycle(k int) {
	lv := &ws.levels[k]
	if k == len(ws.levels)-1 {
		ws.coarseSolve(lv)
		return
	}
	c := &ws.levels[k+1]
	lv.sweep(red, true)
	lv.eliminate(black, false)
	for l := lv.nl - 1; l >= 0; l-- {
		lv.substitute(black, l)
		lv.restrictLayer(c, l)
	}
	ws.vcycle(k + 1)
	lv.prolongRed(c)
	lv.sweep(black, false)
	lv.sweep(red, false)
}

// solve runs multigrid-preconditioned conjugate gradients on the
// assembled system, from the right-hand side the caller left in the
// level-0 residual vector (see rhs) and, when warm, from the initial
// iterate the caller left in ws.x (see rises; else from zero), leaving
// the temperature rises in ws.x. It stops once the residual norm
// ||q - A x|| drops below 3e-8 ||q||, or fails with ErrNoConvergence
// after cgItersPerNode iterations per node. The returned count is the
// number of CG steps before the one that converged; atStart reports
// that the initial iterate already met the target, so no step ran (a
// solve that converges in one step also counts 0, but is not atStart).
// It allocates nothing.
func (ws *Workspace) solve(warm bool) (iters int, atStart bool, err error) {
	lv := &ws.levels[0]
	lo, hi := lv.off, lv.off+lv.n
	n := lv.n
	xc, rc := ws.x[lo:hi][:n], lv.b[lo:hi][:n]
	pc, apc, zc := ws.p[lo:hi][:n], ws.ap[lo:hi][:n], lv.z[lo:hi][:n]
	qnorm := math.Sqrt(dot(rc, rc))
	if qnorm == 0 {
		clearFloats(xc)
		return 0, true, nil
	}
	if warm {
		lv.apply(ws.x, ws.ap)
		for i := range rc {
			rc[i] -= apc[i]
		}
	} else {
		clearFloats(xc)
	}
	tol := 3e-8 * qnorm
	maxIter := cgItersPerNode * n
	// An already-converged start (a transient stepper at its fixed
	// point reaches r exactly zero, a projection onto a basis that spans
	// q's solution nearly so) must not enter the loop: alpha would be
	// 0/0.
	rn := math.Sqrt(dot(rc, rc))
	if rn < tol {
		return 0, true, nil
	}
	ws.vcycle(0)
	copy(pc, zc)
	rz := dot(rc, zc)
	for ; iters < maxIter; iters++ {
		alpha := rz / lv.apply(ws.p, ws.ap)
		var rn2 float64
		for i := range rc {
			xc[i] += alpha * pc[i]
			ri := rc[i] - alpha*apc[i]
			rc[i] = ri
			rn2 += ri * ri
		}
		rn = math.Sqrt(rn2)
		if rn < tol {
			break
		}
		ws.vcycle(0)
		rzNew := dot(rc, zc)
		beta := rzNew / rz
		rz = rzNew
		for i := range pc {
			pc[i] = zc[i] + beta*pc[i]
		}
	}
	if iters >= maxIter {
		return 0, false, fmt.Errorf("%w in %d iterations (residual %g, target %g)", ErrNoConvergence, maxIter, rn, tol)
	}
	return iters, false, nil
}

// rhs returns the unpadded level-0 view the next solve reads its
// right-hand side from.
func (ws *Workspace) rhs() []float64 {
	lv := &ws.levels[0]
	return lv.b[lv.off : lv.off+lv.n]
}

// rises returns the unpadded view of the last solve's temperature rises.
func (ws *Workspace) rises() []float64 {
	lv := &ws.levels[0]
	return ws.x[lv.off : lv.off+lv.n]
}

// SolveWorkspace computes the steady-state temperature field in ws's
// reusable arena; a nil ws allocates a throwaway workspace.
func (s *Stack) SolveWorkspace(ws *Workspace) (*Result, error) {
	res := &Result{}
	if err := s.SolveWorkspaceInto(ws, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SolveWorkspaceInto is SolveWorkspace writing into a caller-owned
// Result, reusing its Temps and Rises buffers when already sized: a
// solve loop that recycles both ws and res runs with zero allocations.
//
// When ws last assembled its steady operator for this same *Stack, the
// solve re-checks only the power maps, reuses the operator, and starts
// CG from the projection of the right-hand side onto the A-orthonormal
// basis the earlier solves of s recorded in ws. Otherwise it validates
// s, assembles its operator, empties the basis and starts from zero.
// Each converged solve records its correction to the projection as a
// new basis direction until the basis holds basisCap. The result is the
// same fixed point either way; only the iteration count differs, and
// res.Projected reports a solve the projection alone finished.
func (s *Stack) SolveWorkspaceInto(ws *Workspace, res *Result) error {
	if ws == nil {
		ws = NewWorkspace()
	}
	if err := ws.prepare(s); err != nil {
		return err
	}
	nc := s.Grid * s.Grid
	q := ws.rhs()
	for l, layer := range s.Layers {
		if layer.Power != nil {
			copy(q[l*nc:(l+1)*nc], layer.Power)
		} else {
			clearFloats(q[l*nc : (l+1)*nc])
		}
	}
	projecting := ws.nb > 0
	iters, atStart, err := ws.solve(ws.start())
	if err != nil {
		return err
	}
	ws.record()
	publishResult(s, ws.rises(), iters, res)
	res.Projected = projecting && atStart
	return nil
}

// prepare leaves s's steady operator assembled in ws. A workspace that
// already holds it keeps it, and its basis, after re-checking the power
// maps; any other stack is validated and assembled, with an empty basis.
func (ws *Workspace) prepare(s *Stack) error {
	if ws.op == s {
		return s.validatePower()
	}
	if err := s.Validate(); err != nil {
		return err
	}
	ws.op, ws.nb = nil, 0
	ws.reserve(s.Grid, len(s.Layers))
	if err := ws.assemble(s, nil); err != nil {
		return err
	}
	ws.op = s
	return nil
}

// dir returns basis direction h.
func (ws *Workspace) dir(h int) []float64 {
	n := ws.levels[0].n
	return ws.basis[h*n : (h+1)*n]
}

// start sets the initial CG iterate in ws.x for the right-hand side in
// ws.rhs() and reports whether it is non-zero: the projection
// x̄ = sum over h of (dir(h)·q) dir(h) while the basis holds directions,
// which is the best approximation of the solution in their span in the
// A-norm; else zero.
func (ws *Workspace) start() bool {
	x := ws.rises()
	clearFloats(x)
	if ws.nb == 0 {
		return false
	}
	q := ws.rhs()
	for h := 0; h < ws.nb; h++ {
		d := ws.dir(h)
		ws.coef[h] = dot(d, q)
		axpy(ws.coef[h], d, x)
	}
	return true
}

// record appends the converged solve's correction to its projection,
// x - x̄ with x̄ rebuilt from coef, to the basis while it holds fewer
// than basisCap directions: A-orthogonalized against the basis (which
// it already nearly is, since x̄ is the A-orthogonal projection of the
// solution) and normalized in the A-norm. A correction whose A-norm is
// negligible next to the solution's — the projection alone solved the
// system — adds nothing and is skipped. It uses the CG direction
// vectors as scratch.
func (ws *Workspace) record() {
	if ws.nb == basisCap {
		return
	}
	lv := &ws.levels[0]
	lo, hi := lv.off, lv.off+lv.n
	d := ws.dir(ws.nb)
	copy(d, ws.rises())
	for h := 0; h < ws.nb; h++ {
		axpy(-ws.coef[h], ws.dir(h), d)
	}
	p, ap := ws.p[lo:hi], ws.ap[lo:hi]
	copy(p, d)
	lv.apply(ws.p, ws.ap)
	for h := 0; h < ws.nb; h++ {
		axpy(-dot(ws.dir(h), ap), ws.dir(h), d)
	}
	copy(p, d)
	norm2 := lv.apply(ws.p, ws.ap)
	// x̄'s squared A-norm is the sum of coef², the projection being
	// A-orthonormal.
	energy := norm2
	for h := 0; h < ws.nb; h++ {
		energy += ws.coef[h] * ws.coef[h]
	}
	if !(norm2 > negligibleDirection*negligibleDirection*energy) {
		return
	}
	scale := 1 / math.Sqrt(norm2)
	for i := range d {
		d[i] *= scale
	}
	ws.nb++
}

// publishResult fills res from the solved temperature-rise vector,
// reusing res's buffers when their capacity suffices.
func publishResult(s *Stack, rises []float64, iters int, res *Result) {
	g := s.Grid
	nc := g * g
	nl := len(s.Layers)
	res.Iterations = iters
	if cap(res.Rises) >= len(rises) {
		res.Rises = res.Rises[:len(rises)]
	} else {
		res.Rises = make([]float64, len(rises))
	}
	copy(res.Rises, rises)
	if cap(res.Temps) >= nl {
		res.Temps = res.Temps[:nl]
	} else {
		res.Temps = make([][]float64, nl)
	}
	res.PeakC = math.Inf(-1)
	res.PeakLayer, res.PeakCell = 0, 0
	for l := 0; l < nl; l++ {
		if cap(res.Temps[l]) >= nc {
			res.Temps[l] = res.Temps[l][:nc]
		} else {
			res.Temps[l] = make([]float64, nc)
		}
		base := l * nc
		for idx := 0; idx < nc; idx++ {
			t := s.AmbientC + rises[base+idx]
			res.Temps[l][idx] = t
			if t > res.PeakC {
				res.PeakC = t
				res.PeakLayer = l
				res.PeakCell = idx
			}
		}
	}
	res.MeanC = 0
	for l := nl - 1; l >= 0; l-- {
		if s.Layers[l].Power == nil {
			continue
		}
		var sum float64
		for _, t := range res.Temps[l] {
			sum += t
		}
		res.MeanC = sum / float64(nc)
		break
	}
}
