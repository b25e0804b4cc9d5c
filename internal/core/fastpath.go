package core

import (
	"sync"

	"tesa/internal/floorplan"
	"tesa/internal/sram"
)

// warmQuantMM is the floorplan-similarity quantum of the warm-start
// cache: evaluations whose chiplet dimensions agree within this step
// share a cache slot, so neighboring annealer moves (which typically
// perturb the array dimension or ICS by one step) reuse the previous
// temperature field as the CG starting guess. The guess only affects
// the iteration count, never the fixed point, so the quantum trades hit
// rate against guess quality without any accuracy risk; 0.25 mm keeps
// one-step array-dimension neighbors in the same slot.
const warmQuantMM = 0.25

// warmCacheCap bounds the warm-start cache; one entry per thermal
// geometry class is ample for any realistic sweep (the design space has
// far fewer distinct mesh/chiplet geometries than points).
const warmCacheCap = 256

// warmKey identifies a thermal geometry equivalence class: same grid,
// integration tech (hence layer stack), chiplet mesh, and quantized
// chiplet dimensions. The grid and tech pin the rise vector's length;
// the mesh and dimensions pin its rough shape. Key construction lives in
// geom.go (warmKeyFor) alongside the coverage memo's exact-geometry
// keys, so the two caches' quantization choices stay side by side.
type warmKey struct {
	grid       int
	tech       Tech
	rows, cols int
	wq, hq     int // chiplet width/height in warmQuantMM steps
}

// warmCache is the thread-safe warm-start store. Stored slices are
// immutable after insertion, so concurrent evaluations may share one
// slice as a read-only CG guess while a newer field replaces the map
// entry.
type warmCache struct {
	mu           sync.Mutex
	m            map[warmKey][]float64
	hits, misses int64
}

// get returns the cached temperature-rise field for k, or nil, counting
// the lookup. The returned slice must be treated as read-only.
func (c *warmCache) get(k warmKey) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	rises := c.m[k]
	if rises != nil {
		c.hits++
	} else {
		c.misses++
	}
	return rises
}

// stats returns the cumulative hit and miss counts.
func (c *warmCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// put stores a copy of rises under k, evicting an arbitrary entry once
// the cache is full.
func (c *warmCache) put(k warmKey, rises []float64) {
	if len(rises) == 0 {
		return
	}
	cp := make([]float64, len(rises))
	copy(cp, rises)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[warmKey][]float64, warmCacheCap)
	}
	if _, ok := c.m[k]; !ok && len(c.m) >= warmCacheCap {
		for victim := range c.m {
			delete(c.m, victim)
			break
		}
	}
	c.m[k] = cp
}

// surrogatePrescreen is the fast path's pre-screen gate: before paying
// for a grid solve it brackets the true peak temperature with the two
// closed-form surrogates and skips the solve when the bracket clears
// the budget by the guard band (prescreenBandC) on either side.
//
//   - Hot skip: thermal.LumpedEstimate rounds the spatial peak toward
//     the mean, so lumped > budget+band certifies a genuine temperature
//     violation. The leakage fixed point runs at the (under-estimated)
//     lumped temperature, so the attempt's TotalPowerW under-estimates
//     too, and lumped total power > the power budget certifies a
//     genuine power violation; either certificate (or a lumped-loop
//     runaway) skips the solve. On realistic budgets the power
//     certificate dominates: most hot designs blow the power budget
//     long before the lumped mean temperature clears budget+band.
//   - Cool skip, tier 1: thermal.BoundEstimate leads the peak
//     (no-lateral-spreading column bound), evaluated once with leakage
//     pinned at the test temperature u = budget-band. A bound peak
//     <= u is a super-solution of the monotone leakage-temperature map
//     (G(u) <= u), so the true fixed point — and hence the real peak —
//     lies below u; the attempt's TotalPowerW carries the pinned
//     (over-estimated) leakage, so it clearing the power budget
//     certifies power feasibility too. This tier is O(n) and fully
//     rigorous, but the column bound leads the true peak by 3-5x on
//     well-spread floorplans, so it only fires on very lightly loaded
//     designs.
//   - Cool skip, tier 2: one pinned-leakage CG solve on the coarse
//     (half-resolution) grid. The same super-solution argument bounds
//     the coarse fixed point by u; the guard band then covers the
//     coarse-to-full discretization transfer (measured below 2 C at
//     grid 24 vs 12 across the test sweep, inside the 3 C
//     band). One coarse solve costs about an eighth of the full-grid
//     leakage fixed point it replaces. u is capped at the runaway
//     classification limit so a certified-cool point can never be one
//     the reference ladder would classify as runaway.
//
// Either skip leaves ev fully populated from the surrogate attempt and
// tags ThermalFidelity "surrogate-hot" / "surrogate-cool"; a true
// return means the grid ladder should not run. Points inside the band —
// where the surrogates cannot decide — fall through to the grid solve,
// so no feasible point is ever wrongly rejected
// (and no infeasible point wrongly accepted); the fastpath tests sweep
// the design space to verify both directions.
func (e *Evaluator) surrogatePrescreen(ev *Evaluation, phases []phasePower, place *floorplan.Placement, domainMM float64, est sram.Estimate) bool {
	coarse := e.Opts.Grid / 2
	if coarse < 8 {
		coarse = 8
	}
	hot := thermalFidelity{name: "surrogate-hot", grid: coarse, lumped: true}
	if err := e.thermalAttempt(ev, phases, place, domainMM, est, hot); err == nil {
		if ev.Runaway || ev.PeakTempC > e.Cons.TempBudgetC+prescreenBandC || ev.TotalPowerW > e.Cons.PowerBudgetW {
			ev.ThermalFidelity = hot.name
			e.tel.Registry().Counter("thermal.fidelity." + hot.name).Inc()
			e.tel.Registry().Counter("thermal.surrogate.skip.hot").Inc()
			return true
		}
	}
	pin := e.Cons.TempBudgetC - prescreenBandC
	if pin > runawayLimitC {
		pin = runawayLimitC
	}
	if pin > e.Models.Materials.AmbientC {
		coolOK := func(fid thermalFidelity) bool {
			if err := e.thermalAttempt(ev, phases, place, domainMM, est, fid); err != nil {
				return false
			}
			return !ev.Runaway && ev.PeakTempC <= pin && ev.TotalPowerW <= e.Cons.PowerBudgetW
		}
		tiers := []thermalFidelity{
			{name: "surrogate-cool", grid: coarse, bound: true, leakPinC: pin},
			{name: "surrogate-cool", grid: coarse, tolScale: 1, iterScale: 1, leakPinC: pin},
		}
		for _, fid := range tiers {
			if coolOK(fid) {
				ev.ThermalFidelity = fid.name
				e.tel.Registry().Counter("thermal.fidelity." + fid.name).Inc()
				e.tel.Registry().Counter("thermal.surrogate.skip.cool").Inc()
				return true
			}
		}
	}
	e.tel.Registry().Counter("thermal.surrogate.fallthrough").Inc()
	return false
}
