package main

import (
	"fmt"
	"math"

	"tesa/internal/jobspec"
)

// defaultSeed is the workload seed the goldens below were recorded at.
const defaultSeed = 1

// thermalTolC is the repository's thermal-agreement contract: a
// temperature may differ from its golden by at most this much, so a
// thermal solver rewrite that keeps the contract still passes.
const thermalTolC = 0.1

// optimumObjective is the exhaustive Table II optimum of the AR/VR
// workload at optimize-grid32's corner (30 fps, 15 W, 75 C, 8 mm, grid
// 32). No seed may report a lower objective; the default seed reaches it.
const optimumObjective = 2.5535121051397645

// Goldens of the default seed: the optimize-grid32 winner, and for
// sim-throttle the base run's arrivals per tenant (unet, mobilenet,
// resnet), its peak, and the point's steady-state peak.
var (
	goldenOptimize      = jobspec.Best{ArrayDim: 250, ICSUM: 900, PeakTempC: 71.18196760797319}
	goldenSimReqs       = []int64{1891, 211, 116}
	goldenSimPeakC      = 64.26654207750111
	goldenSimStaticPeak = 71.10188296810583
)

// checkResult verifies what must hold for every job: a result of the
// right kind, and every design it reports lies in the job's space and
// meets the job's constraints. A sim job's point must fit and be
// statically feasible.
func checkResult(r *jobspec.Resolved, res *jobspec.Result) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.Kind != r.Kind {
		return fmt.Errorf("result kind %q for a %q job", res.Kind, r.Kind)
	}
	switch r.Kind {
	case jobspec.KindOptimize, jobspec.KindSweep:
		if res.Found {
			return checkBest(r, res.Best, true)
		}
	case jobspec.KindPareto:
		for i, fp := range res.Front {
			if !fp.Found {
				continue
			}
			if err := checkBest(r, fp.Best, true); err != nil {
				return fmt.Errorf("front point %d: %w", i, err)
			}
		}
	case jobspec.KindSim:
		if !res.Found || res.Sim == nil {
			return fmt.Errorf("sim point %dx%d/%d did not fit", r.SimPoint.ArrayDim, r.SimPoint.ArrayDim, r.SimPoint.ICSUM)
		}
		if res.Best.ArrayDim != r.SimPoint.ArrayDim || res.Best.ICSUM != r.SimPoint.ICSUM {
			return fmt.Errorf("sim evaluated %d/%d, asked for %d/%d",
				res.Best.ArrayDim, res.Best.ICSUM, r.SimPoint.ArrayDim, r.SimPoint.ICSUM)
		}
		return checkBest(r, res.Best, false)
	}
	return nil
}

// checkBest verifies one reported design: in the job's space (when the
// job has one) and within its temperature, power and latency budgets.
func checkBest(r *jobspec.Resolved, b *jobspec.Best, inSpace bool) error {
	if b == nil {
		return fmt.Errorf("found a design but reported none")
	}
	if inSpace && (!contains(r.Space.ArrayDims, b.ArrayDim) || !contains(r.Space.ICSUMs, b.ICSUM)) {
		return fmt.Errorf("design %d/%d lies outside the job's space", b.ArrayDim, b.ICSUM)
	}
	switch {
	case !(b.PeakTempC <= r.Cons.TempBudgetC):
		return fmt.Errorf("design %d/%d peaks at %.3f C over the %g C budget", b.ArrayDim, b.ICSUM, b.PeakTempC, r.Cons.TempBudgetC)
	case !(b.TotalPowerW <= r.Cons.PowerBudgetW):
		return fmt.Errorf("design %d/%d draws %.3f W over the %g W budget", b.ArrayDim, b.ICSUM, b.TotalPowerW, r.Cons.PowerBudgetW)
	case !(b.MakespanMS <= 1000/r.Cons.FPS*(1+1e-12)):
		return fmt.Errorf("design %d/%d takes %.3f ms, over the %g fps frame", b.ArrayDim, b.ICSUM, b.MakespanMS, r.Cons.FPS)
	}
	return nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// checkOptimizeGolden holds optimize-grid32 to the exhaustive optimum:
// no seed may beat it, and the default seed must reach it with the
// golden design at the golden temperature.
func checkOptimizeGolden(seed int64, res *jobspec.Result) error {
	if !res.Found {
		return fmt.Errorf("no feasible design found")
	}
	obj := res.Best.Objective
	if obj < optimumObjective*(1-1e-12) {
		return fmt.Errorf("objective %.17g beats the exhaustive optimum %.17g", obj, optimumObjective)
	}
	if seed != defaultSeed {
		return nil
	}
	g := goldenOptimize
	switch {
	case math.Abs(obj-optimumObjective) > optimumObjective*1e-12:
		return fmt.Errorf("objective %.17g, want the optimum %.17g", obj, optimumObjective)
	case res.Best.ArrayDim != g.ArrayDim || res.Best.ICSUM != g.ICSUM:
		return fmt.Errorf("winner %d/%d, want %d/%d", res.Best.ArrayDim, res.Best.ICSUM, g.ArrayDim, g.ICSUM)
	case math.Abs(res.Best.PeakTempC-g.PeakTempC) > thermalTolC:
		return fmt.Errorf("winner peaks at %.4f C, want %.4f +- %g C", res.Best.PeakTempC, g.PeakTempC, thermalTolC)
	}
	return nil
}

// checkSimGolden requires sim-throttle to throttle at least once and
// its tallies to add up; at the default seed the per-tenant arrival
// counts must match the golden exactly and the base run's peak must
// agree within the thermal contract.
func checkSimGolden(seed int64, res *jobspec.Result) error {
	sim := res.Sim
	if sim.ThrottleEvents < 1 {
		return fmt.Errorf("the governor never throttled")
	}
	var reqs int64
	for _, ts := range sim.Tenants {
		reqs += ts.Requests
	}
	if reqs != sim.Requests || sim.Completed > sim.Requests {
		return fmt.Errorf("tallies do not add up: tenants %d, requests %d, completed %d", reqs, sim.Requests, sim.Completed)
	}
	if seed != defaultSeed {
		return nil
	}
	if len(sim.Tenants) != len(goldenSimReqs) {
		return fmt.Errorf("%d tenants, want %d", len(sim.Tenants), len(goldenSimReqs))
	}
	for i, ts := range sim.Tenants {
		if ts.Requests != goldenSimReqs[i] {
			return fmt.Errorf("tenant %s: %d requests, want %d", ts.Name, ts.Requests, goldenSimReqs[i])
		}
	}
	if math.Abs(sim.PeakTempC-goldenSimPeakC) > thermalTolC {
		return fmt.Errorf("base run peaks at %.4f C, want %.4f +- %g C", sim.PeakTempC, goldenSimPeakC, thermalTolC)
	}
	if math.Abs(res.Best.PeakTempC-goldenSimStaticPeak) > thermalTolC {
		return fmt.Errorf("steady state peaks at %.4f C, want %.4f +- %g C", res.Best.PeakTempC, goldenSimStaticPeak, thermalTolC)
	}
	return nil
}
