package core

import (
	"errors"
	"fmt"
	"math"

	"tesa/internal/floorplan"
	"tesa/internal/sram"
	"tesa/internal/thermal"
)

// maxLeakIters bounds the leakage-temperature fixed point. The paper
// reports convergence in up to 3 (2-D) and 6 (3-D) HotSpot iterations;
// anything still diverging well past that is classified as runaway.
const maxLeakIters = 12

// leakConvergedC is the per-chiplet temperature delta below which the
// leakage-temperature loop is considered converged.
const leakConvergedC = 0.1

// packageMarginMM extends the thermal domain beyond the interposer on
// each side: the lid and mold compound of a real package reach past the
// interposer, so heat from chiplets near the interposer edge still
// spreads laterally. Without this margin the adiabatic boundary would sit
// directly against edge chiplets and invert the corner-coolest assumption
// the paper's scheduler relies on.
const packageMarginMM = 1.5

// phasePower is one execution phase's per-chiplet dynamic power split.
type phasePower struct {
	arr []float64 // systolic-array dynamic watts per chiplet
	srm []float64 // SRAM (+TSV) dynamic watts per chiplet
}

func (p phasePower) totalDyn() float64 {
	var t float64
	for i := range p.arr {
		t += p.arr[i] + p.srm[i]
	}
	return t
}

// dominatedBy reports whether q is pointwise >= p (then p's steady state
// is pointwise cooler and need not be solved).
func (p phasePower) dominatedBy(q phasePower) bool {
	for i := range p.arr {
		if p.arr[i] > q.arr[i]+1e-12 || p.srm[i] > q.srm[i]+1e-12 {
			return false
		}
	}
	return true
}

// thermalAnalysis runs the paper's per-phase steady-state evaluation
// with leakage-temperature convergence at Options.Grid and fills the
// thermal/power fields of ev. A CG solve that does not converge fails
// the analysis with ErrSolverDiverged, which quarantines the point.
func (e *Evaluator) thermalAnalysis(ev *Evaluation, profiles []netProfile, place *floorplan.Placement, est sram.Estimate) error {
	n := ev.Mesh.Count()

	// Per-phase per-chiplet dynamic power decomposition.
	var phases []phasePower
	for _, ph := range ev.Schedule.Phases {
		pp := phasePower{arr: make([]float64, n), srm: make([]float64, n)}
		for c, d := range ph.Running {
			if d < 0 {
				continue
			}
			dyn := profiles[d].dyn
			pp.arr[c] = dyn.ArrayWatts
			pp.srm[c] = dyn.SRAMWatts + dyn.TSVWatts
		}
		phases = append(phases, pp)
	}
	// Prune pointwise-dominated phases: a phase whose every chiplet
	// dissipates no more than in some other phase is strictly cooler.
	// kept must be a fresh slice: filtering in place would overwrite
	// entries the dominance scan still reads.
	kept := make([]phasePower, 0, len(phases))
	for i, p := range phases {
		dominated := false
		for j, q := range phases {
			if i != j && p.dominatedBy(q) && !(q.dominatedBy(p) && j > i) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, p)
		}
	}
	phases = kept

	// The thermal domain is the interposer plus the package margin; the
	// chiplet block stays centered, so re-placing over the wider domain
	// preserves the geometry while giving edge chiplets lateral spreading
	// room in the lid and mold.
	domainMM := e.Cons.InterposerMM + 2*packageMarginMM
	place, err := floorplan.Place(domainMM, place.WidthMM, place.HeightMM, place.ICSmm, place.Mesh)
	if err != nil {
		return err
	}

	if e.injected != nil && e.injected.Diverge(ev.Point.ArrayDim, ev.Point.ICSUM) {
		return fmt.Errorf("%w: %w (injected)", ErrSolverDiverged, thermal.ErrNoConvergence)
	}

	ev.PeakTempC = math.Inf(-1)
	grid := e.Opts.Grid
	// Every grid solve runs in a pooled solver arena.
	ws := e.workspace()
	defer e.wsPool.Put(ws)
	coverage := place.Coverage(grid)
	// Power is injected only into the active die area (inside the 3-D
	// assembly margin); the margin silicon still conducts.
	powerPlace := place.Inset(ev.Chiplet.ActiveInsetMM)
	numPEs := ev.Point.ArrayDim * ev.Point.ArrayDim
	arrayFrac := ev.Chiplet.ArrayMM2 / ev.Chiplet.FootprintMM2
	if arrayFrac > 1 {
		arrayFrac = 1
	}
	threeD := e.Opts.Tech == Tech3D
	// Warm-start the leakage fixed point near typical operating
	// temperatures instead of ambient: the loop is a contraction for
	// every non-runaway configuration, so the start only affects the
	// iteration count, not the fixed point.
	warmStartC := e.Models.Materials.AmbientC + 15

	// One stack serves every leakage iteration of every phase: the
	// geometry is identical, only the power maps change. Solved
	// repeatedly in one workspace, it is assembled once, and every solve
	// after the first starts CG from the projection onto the earlier
	// solutions (see thermal.SolveWorkspaceInto). Outside Full mode every
	// solve writes into one Result; Full mode keeps each, since
	// ev.Hottest may hold it.
	var stk *thermal.Stack
	var scratch thermal.Result
	reg := e.tel.Registry()
	solveIters := reg.Counter("thermal.solve.iterations")
	solveCount := reg.Counter("thermal.solve.count")
	solveProjected := reg.Counter("thermal.solve.projected")
	cell := domainMM * 1e-3 / float64(grid)
	for _, pp := range phases {
		tArr := fill(n, warmStartC)
		tSrm := fill(n, warmStartC)
		var res *thermal.Result
		var leakW float64
		iters := 0
		runaway := false
		prevDelta := math.Inf(1)
		for ; iters < maxLeakIters; iters++ {
			powers := make([]floorplan.ChipletPower, n)
			leakW = 0
			for c := 0; c < n; c++ {
				aLeak := e.leakage(e.Models.Power.ArrayLeakage(numPEs, e.Models.Power.RefTempC), tArr[c])
				sLeak := e.leakage(e.Models.Power.SRAMLeakage(est, e.Models.Power.RefTempC), tSrm[c])
				powers[c] = floorplan.ChipletPower{
					ArrayWatts: pp.arr[c] + aLeak,
					SRAMWatts:  pp.srm[c] + sLeak,
				}
				leakW += aLeak + sLeak
			}
			if math.IsInf(leakW, 0) || math.IsNaN(leakW) {
				// Exponential leakage overflowed: the fixed point has no
				// finite solution. Classify as runaway instead of feeding
				// a non-finite heat map to the solver.
				runaway = true
				leakW = 0
				break
			}
			maps, err := powerPlace.Rasterize(grid, powers, threeD, arrayFrac)
			if err != nil {
				return err
			}
			switch {
			case stk == nil:
				if threeD {
					stk, err = thermal.BuildStack3D(grid, cell, coverage, maps.SRAM, maps.Array, ev.Chiplet.TSVCopperFraction, e.Models.Materials)
				} else {
					stk, err = thermal.BuildStack2D(grid, cell, coverage, maps.Array, e.Models.Materials)
				}
				if err != nil {
					return err
				}
			case threeD:
				setLayerPower(stk, "sram", maps.SRAM)
				setLayerPower(stk, "array", maps.Array)
			default:
				setLayerPower(stk, "die", maps.Array)
			}
			res = &scratch
			if ev.Full {
				res = new(thermal.Result)
			}
			if err := stk.SolveWorkspaceInto(ws, res); err != nil {
				if errors.Is(err, thermal.ErrNoConvergence) {
					return fmt.Errorf("%w: %w", ErrSolverDiverged, err)
				}
				return err
			}
			if res.Projected {
				solveProjected.Inc()
			}
			solveCount.Inc()
			solveIters.Add(int64(res.Iterations))
			if math.IsNaN(res.PeakC) || math.IsInf(res.PeakC, 0) {
				// A non-finite solve means the linear system itself broke
				// down; classify the point as runaway rather than letting
				// the NaN poison the evaluation.
				runaway = true
				break
			}
			var newArr, newSrm []float64
			if threeD {
				newArr = chipletPeaks(res.LayerTemps(stk, "array"), grid, domainMM, place.Chiplets)
				newSrm = chipletPeaks(res.LayerTemps(stk, "sram"), grid, domainMM, place.Chiplets)
			} else {
				die := chipletPeaks(res.LayerTemps(stk, "die"), grid, domainMM, place.Chiplets)
				newArr, newSrm = die, die
			}
			delta := 0.0
			for c := 0; c < n; c++ {
				delta = math.Max(delta, math.Abs(newArr[c]-tArr[c]))
				delta = math.Max(delta, math.Abs(newSrm[c]-tSrm[c]))
			}
			tArr, tSrm = newArr, newSrm
			if res.PeakC > runawayLimitC {
				runaway = true
				iters++
				break
			}
			if delta < leakConvergedC {
				iters++
				break
			}
			// A growing step after several contractions means the loop
			// gain exceeded one: thermal runaway.
			if iters >= 3 && delta > prevDelta {
				runaway = true
				iters++
				break
			}
			prevDelta = delta
		}
		if iters >= maxLeakIters && prevDelta > 1 {
			runaway = true
		}

		if iters > ev.LeakIters {
			ev.LeakIters = iters
		}
		dyn := pp.totalDyn()
		if dyn > ev.DynamicPowerW {
			ev.DynamicPowerW = dyn
		}
		if dyn+leakW > ev.TotalPowerW {
			ev.TotalPowerW = dyn + leakW
			ev.LeakageW = leakW
		}
		if runaway {
			ev.Runaway = true
		}
		if res != nil && res.PeakC > ev.PeakTempC {
			ev.PeakTempC = res.PeakC
			if ev.Full {
				// The live stack's power maps change with the next
				// solve; the snapshot keeps this phase's.
				snap := *stk
				snap.Layers = append([]thermal.Layer(nil), stk.Layers...)
				ev.Hottest = res
				ev.HottestStack = &snap
			}
		}
	}
	if math.IsInf(ev.PeakTempC, -1) && !ev.Runaway {
		// No phase produced a temperature (e.g. an empty phase list);
		// report a deterministic ambient instead of -Inf.
		ev.PeakTempC = e.Models.Materials.AmbientC
	}
	if ev.Runaway && (math.IsInf(ev.PeakTempC, 0) || math.IsNaN(ev.PeakTempC)) {
		// Runaway evaluations clamp the (meaningless) peak so the result
		// stays finite end to end.
		ev.PeakTempC = runawayLimitC
	}
	return nil
}

// workspace checks a solver arena out of the pool (workspaces are
// per-goroutine; thermalAnalysis holds one for its whole leakage loop, a
// sim job's draws share the operator assembled in one).
func (e *Evaluator) workspace() *thermal.Workspace {
	if v := e.wsPool.Get(); v != nil {
		return v.(*thermal.Workspace)
	}
	return thermal.NewWorkspace()
}

// setLayerPower replaces the power map of stk's layer name.
func setLayerPower(stk *thermal.Stack, name string, power []float64) {
	for l := range stk.Layers {
		if stk.Layers[l].Name == name {
			stk.Layers[l].Power = power
			return
		}
	}
}

// leakage scales a 45 C-reference leakage value to temperature tC using
// the configured model: exponential (TESA), linear under-estimate (W2),
// or none (W1).
func (e *Evaluator) leakage(ref45 float64, tC float64) float64 {
	if e.Opts.NoLeakage {
		return 0
	}
	k := e.Models.Power.LeakTempCoeffPerC
	dT := tC - e.Models.Power.RefTempC
	if e.Opts.LinearLeakage {
		s := 1 + k*dT
		if s < 0 {
			s = 0
		}
		return ref45 * s
	}
	return ref45 * math.Exp(k*dT)
}

// chipletPeaks extracts, for each chiplet rectangle, the peak temperature
// among grid cells whose centers fall inside it.
func chipletPeaks(temps []float64, grid int, interposerMM float64, rects []floorplan.Rect) []float64 {
	return chipletPeaksInto(make([]float64, len(rects)), temps, grid, interposerMM, rects)
}

// chipletPeaksInto is chipletPeaks writing into peaks, one entry per
// rectangle, and returning it.
func chipletPeaksInto(peaks, temps []float64, grid int, interposerMM float64, rects []floorplan.Rect) []float64 {
	cell := interposerMM / float64(grid)
	for ri, r := range rects {
		peak := math.Inf(-1)
		i0 := int(r.X / cell)
		j0 := int(r.Y / cell)
		i1 := int(math.Ceil((r.X + r.W) / cell))
		j1 := int(math.Ceil((r.Y + r.H) / cell))
		for j := max(0, j0); j < min(grid, j1); j++ {
			for i := max(0, i0); i < min(grid, i1); i++ {
				cx := (float64(i) + 0.5) * cell
				cy := (float64(j) + 0.5) * cell
				if cx >= r.X && cx < r.X+r.W && cy >= r.Y && cy < r.Y+r.H {
					if t := temps[j*grid+i]; t > peak {
						peak = t
					}
				}
			}
		}
		if math.IsInf(peak, -1) {
			// Degenerate: chiplet smaller than one cell; fall back to
			// the nearest cell.
			i := clampInt(int(r.CenterX()/cell), 0, grid-1)
			j := clampInt(int(r.CenterY()/cell), 0, grid-1)
			peak = temps[j*grid+i]
		}
		peaks[ri] = peak
	}
	return peaks
}

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
