package jobspec

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tesa/internal/core"
	"tesa/internal/des"
	"tesa/internal/dnn"
	"tesa/internal/faults"
	"tesa/internal/systolic"
)

// defaultThermalDtSec is the scenario thermal tick used when a sim
// section leaves thermal_dt_sec unset.
const defaultThermalDtSec = 0.05

// Resolved is a spec materialized into the core types: defaults filled,
// workload loaded, axes validated. It is the unit Execute and Run
// consume, whether called by the tesa command, tesa-server or the
// library.
type Resolved struct {
	// Kind is the validated job kind.
	Kind string
	// Workload is the loaded multi-DNN workload. For the built-in
	// workload_ref ("" or "arvr") it is the process-wide AR/VR workload
	// (dnn.SharedARVRWorkload), shared by every resolved job and
	// read-only; inline and file workloads are the job's own.
	Workload dnn.Workload
	// Opts and Cons are the evaluation configuration.
	Opts core.Options
	Cons core.Constraints
	// Space is the design space to search.
	Space core.Space
	// Seed is the optimizer seed (ignored by sweeps).
	Seed int64
	// ParetoFront is the front engine of a pareto job ("weights" or
	// "exact"); ParetoPoints is the weight-setting count of a weight
	// front.
	ParetoFront  string
	ParetoPoints int
	// MaxFailures / FailFast / StageTimeout are the failure policies.
	MaxFailures  int
	FailFast     bool
	StageTimeout time.Duration
	// Faults is the raw fault-injection spec ("" = none); FaultPlan is
	// its compiled form (nil = none).
	Faults    string
	FaultPlan *faults.Plan
	// Deadline bounds the job's wall time (0 = none).
	Deadline time.Duration
	// SimPoint is the design point of a sim job; Scenario its
	// materialized dynamic scenario (seeded with Seed, throttle trip
	// defaulted to the temperature budget) and SimDraws the
	// distribution size (>= 1). Zero values for the other kinds.
	SimPoint core.DesignPoint
	Scenario des.Scenario
	SimDraws int
}

// Resolve materializes the spec: validates it, loads the workload
// (workload_file paths are resolved against baseDir when relative),
// overlays the option/constraint sections onto the paper defaults, and
// compiles the fault plan. The result is self-contained — executing it
// needs no further file access.
func (s *Spec) Resolve(baseDir string) (*Resolved, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := &Resolved{
		Kind:         s.Kind,
		Opts:         core.DefaultOptions(),
		Cons:         core.DefaultConstraints(),
		Seed:         1,
		ParetoFront:  "weights",
		ParetoPoints: 9,
	}
	w, err := s.resolveWorkload(baseDir)
	if err != nil {
		return nil, err
	}
	r.Workload = w
	if o := s.Options; o != nil {
		if o.Tech != nil {
			switch strings.ToLower(*o.Tech) {
			case "2d":
				r.Opts.Tech = core.Tech2D
			case "3d":
				r.Opts.Tech = core.Tech3D
			default:
				return nil, fmt.Errorf("jobspec: unknown tech %q (want 2d or 3d)", *o.Tech)
			}
		}
		if o.FreqMHz != nil {
			r.Opts.FreqHz = *o.FreqMHz * 1e6
		}
		if o.Dataflow != nil {
			switch strings.ToLower(*o.Dataflow) {
			case "os":
				r.Opts.Dataflow = systolic.OutputStationary
			case "ws":
				r.Opts.Dataflow = systolic.WeightStationary
			default:
				return nil, fmt.Errorf("jobspec: unknown dataflow %q (want os or ws)", *o.Dataflow)
			}
		}
		if o.Grid != nil {
			r.Opts.Grid = *o.Grid
		}
		if o.Alpha != nil {
			r.Opts.Alpha = *o.Alpha
		}
		if o.Beta != nil {
			r.Opts.Beta = *o.Beta
		}
	}
	if c := s.Constraints; c != nil {
		if c.FPS != nil {
			r.Cons.FPS = *c.FPS
		}
		if c.PowerW != nil {
			r.Cons.PowerBudgetW = *c.PowerW
		}
		if c.TempC != nil {
			r.Cons.TempBudgetC = *c.TempC
		}
		if c.InterposerMM != nil {
			r.Cons.InterposerMM = *c.InterposerMM
		}
	}
	if err := r.Opts.Validate(); err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	if err := r.Cons.Validate(); err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	r.Space, err = s.resolveSpace()
	if err != nil {
		return nil, err
	}
	if s.Seed != nil {
		r.Seed = *s.Seed
	}
	if p := s.Pareto; p != nil {
		if p.Front != "" {
			r.ParetoFront = p.Front
		}
		if p.Points != 0 {
			r.ParetoPoints = p.Points
		}
	}
	if p := s.Policies; p != nil {
		r.MaxFailures = p.MaxFailures
		r.FailFast = p.FailFast
		r.StageTimeout = time.Duration(p.StageTimeoutMS) * time.Millisecond
		r.Faults = p.Faults
		if p.Faults != "" {
			plan, err := faults.Parse(p.Faults)
			if err != nil {
				return nil, fmt.Errorf("jobspec: faults: %w", err)
			}
			r.FaultPlan = plan
		}
	}
	if s.DeadlineSec > 0 {
		r.Deadline = time.Duration(s.DeadlineSec * float64(time.Second))
	}
	if s.Kind == KindSim {
		if err := s.resolveSim(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// resolveSim materializes the sim section into a validated scenario:
// the spec seed becomes the scenario seed, an unset tick takes the
// default, and an absent throttle section trips at the job's
// temperature budget with the standard DVFS ladder.
func (s *Spec) resolveSim(r *Resolved) error {
	sim := s.Sim
	r.SimPoint = core.DesignPoint{ArrayDim: sim.ArrayDim, ICSUM: sim.ICSUM}
	r.SimDraws = sim.Draws
	if r.SimDraws < 1 {
		r.SimDraws = 1
	}
	sc := des.Scenario{
		Seed:         r.Seed,
		DurationSec:  sim.DurationSec,
		ThermalDtSec: sim.ThermalDtSec,
		Tenants:      sim.Tenants,
	}
	if sc.ThermalDtSec == 0 {
		sc.ThermalDtSec = defaultThermalDtSec
	}
	if sim.Throttle != nil {
		sc.Throttle = *sim.Throttle
	} else {
		sc.Throttle = des.Throttle{TripC: r.Cons.TempBudgetC}
	}
	if err := sc.Validate(); err != nil {
		return fmt.Errorf("jobspec: %w", err)
	}
	r.Scenario = sc
	return nil
}

// resolveWorkload loads the spec's workload: inline JSON, a file
// reference, a built-in name, or (absent all three) the AR/VR default.
// The built-in is shared, not copied: no job writes its workload.
func (s *Spec) resolveWorkload(baseDir string) (dnn.Workload, error) {
	switch {
	case len(s.Workload) > 0:
		w, err := dnn.UnmarshalWorkload(s.Workload)
		if err != nil {
			return dnn.Workload{}, fmt.Errorf("jobspec: inline workload: %w", err)
		}
		return w, nil
	case s.WorkloadFile != "":
		path := s.WorkloadFile
		if !filepath.IsAbs(path) && baseDir != "" {
			path = filepath.Join(baseDir, path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return dnn.Workload{}, fmt.Errorf("jobspec: workload_file: %w", err)
		}
		w, err := dnn.UnmarshalWorkload(data)
		if err != nil {
			return dnn.Workload{}, fmt.Errorf("jobspec: workload_file %s: %w", path, err)
		}
		return w, nil
	case s.WorkloadRef == "" || strings.EqualFold(s.WorkloadRef, "arvr"):
		return dnn.SharedARVRWorkload(), nil
	default:
		return dnn.Workload{}, fmt.Errorf("jobspec: unknown workload_ref %q (built-ins: arvr)", s.WorkloadRef)
	}
}

// resolveSpace materializes the space section; absent, each kind gets
// its default — the Table II space for optimize and pareto, the
// exhaustively-enumerable validation space for sweep.
func (s *Spec) resolveSpace() (core.Space, error) {
	if s.Space == nil {
		if s.Kind == KindSweep {
			return core.ValidationSpace(), nil
		}
		return core.DefaultSpace(), nil
	}
	var sp core.Space
	switch {
	case s.Space.Preset == "validation":
		sp = core.ValidationSpace()
	case s.Space.Preset == "default":
		sp = core.DefaultSpace()
	default:
		sp = core.Space{ArrayDims: s.Space.ArrayDims, ICSUMs: s.Space.ICSUMs}
	}
	if err := sp.Validate(); err != nil {
		return core.Space{}, fmt.Errorf("jobspec: %w", err)
	}
	return sp, nil
}
