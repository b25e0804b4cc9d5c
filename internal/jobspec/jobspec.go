// Package jobspec defines the versioned JSON job specification shared
// by the tesa command and tesa-server: one schema describes an
// optimize, sweep, pareto, or sim run — workload, evaluation options,
// constraints, design space or scenario, and failure policies — so a
// job file handed to `tesa <kind> -job` or POSTed to `tesa-server`
// means exactly the same run everywhere.
//
// The schema is strict and versioned: decoding rejects unknown fields
// (a typo fails loudly instead of silently falling back to a default)
// and every spec must carry the exact Version string, so a file written
// for a future revision is refused rather than half-understood.
//
// A minimal optimize spec:
//
//	{
//	  "version": "tesa.jobspec/v1",
//	  "kind": "optimize",
//	  "constraints": {"fps": 30, "temp_c": 75},
//	  "space": {"preset": "validation"},
//	  "seed": 1
//	}
//
// Every omitted field takes the paper's default (DefaultOptions,
// DefaultConstraints, the per-kind default space), so the empty-ish
// spec above is a complete job description. Spec.Resolve materializes
// the spec into the core types, Execute runs it on its engine, and Run
// projects the outcome into the wire-form Result.
package jobspec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tesa/internal/des"
)

// Version is the schema revision this package reads and writes. Specs
// carrying any other (or no) version string are rejected by Parse, so
// schema evolution is explicit.
const Version = "tesa.jobspec/v1"

// Job kinds — the engines a spec can ask for.
const (
	// KindOptimize runs the multi-start annealer (Evaluator.OptimizeContext).
	KindOptimize = "optimize"
	// KindSweep exhaustively evaluates the space (Evaluator.ExhaustiveContext).
	KindSweep = "sweep"
	// KindPareto sweeps the Eq. (6) weights and traces the cost/DRAM front.
	KindPareto = "pareto"
	// KindSim runs a seeded dynamic multi-tenant scenario against one
	// design point (Evaluator.Simulate / SimulateDistribution).
	KindSim = "sim"
)

// Spec is the versioned job specification. The zero value is invalid;
// decode one with Parse/Read/Load or fill Version and Kind explicitly.
// All sections are optional — nil means "the defaults".
type Spec struct {
	// Version must equal the package's Version constant.
	Version string `json:"version"`
	// Kind selects the engine: "optimize", "sweep", "pareto", or "sim".
	Kind string `json:"kind"`

	// Workload selection — at most one of the three. WorkloadRef names a
	// built-in workload ("arvr", the default). WorkloadFile points at a
	// JSON workload file (the internal/dnn schema), resolved relative to
	// the spec file's directory. Workload embeds the same JSON inline.
	WorkloadRef  string          `json:"workload_ref,omitempty"`
	WorkloadFile string          `json:"workload_file,omitempty"`
	Workload     json.RawMessage `json:"workload,omitempty"`

	// Options override evaluation options (nil = DefaultOptions).
	Options *Options `json:"options,omitempty"`
	// Constraints override the constraint corner (nil = DefaultConstraints).
	Constraints *Constraints `json:"constraints,omitempty"`
	// Space selects the design space (nil = the kind's default: the
	// Table II space for optimize/pareto, the validation space for sweep).
	Space *Space `json:"space,omitempty"`
	// Seed is the optimizer seed (nil = 1). Sweeps ignore it.
	Seed *int64 `json:"seed,omitempty"`

	// Pareto tunes the weight sweep; only valid when Kind is "pareto".
	Pareto *Pareto `json:"pareto,omitempty"`
	// Sim describes the dynamic scenario; required when Kind is "sim".
	Sim *Sim `json:"sim,omitempty"`
	// Policies are the failure-handling knobs shared by every kind.
	Policies *Policies `json:"policies,omitempty"`

	// DeadlineSec bounds the job's wall-clock time; the engines observe
	// the deadline between evaluations. 0 means no deadline.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
}

// Options is the spec's view of core.Options: every field is a pointer
// so "absent" (keep the default) and "zero" stay distinguishable.
type Options struct {
	// Tech is "2d" or "3d".
	Tech *string `json:"tech,omitempty"`
	// FreqMHz is the operating frequency in MHz.
	FreqMHz *float64 `json:"freq_mhz,omitempty"`
	// Dataflow is "os" (output-stationary) or "ws" (weight-stationary).
	Dataflow *string `json:"dataflow,omitempty"`
	// Grid is the thermal grid resolution (cells per interposer side).
	Grid *int `json:"grid,omitempty"`
	// Alpha and Beta are the Eq. (6) objective weights.
	Alpha *float64 `json:"alpha,omitempty"`
	Beta  *float64 `json:"beta,omitempty"`
}

// Constraints is the spec's view of core.Constraints; absent fields
// keep the paper's canonical corner.
type Constraints struct {
	// FPS is the frame-rate (latency) constraint.
	FPS *float64 `json:"fps,omitempty"`
	// PowerW is the chiplet power budget in watts.
	PowerW *float64 `json:"power_w,omitempty"`
	// TempC is the peak-junction-temperature budget in Celsius.
	TempC *float64 `json:"temp_c,omitempty"`
	// InterposerMM is the square interposer side in millimeters.
	InterposerMM *float64 `json:"interposer_mm,omitempty"`
}

// Space selects the design space: a named preset or explicit axes,
// never both.
type Space struct {
	// Preset is "default" (the Table II space) or "validation" (the
	// small Sec. IV-A space).
	Preset string `json:"preset,omitempty"`
	// ArrayDims and ICSUMs are explicit axes for a custom space.
	ArrayDims []int `json:"array_dims,omitempty"`
	ICSUMs    []int `json:"ics_ums,omitempty"`
}

// Pareto tunes the front engine.
type Pareto struct {
	// Front selects the engine: "weights" (the Eq. 6 weight sweep, the
	// default) or "exact" (the non-dominated front over cost, DRAM
	// power, and peak temperature, from a sweep of the whole space).
	Front string `json:"front,omitempty"`
	// Points is the number of weight settings to sweep (>= 2; 0 = 9).
	// Weight fronts only.
	Points int `json:"points,omitempty"`
}

// Sim describes a dynamic multi-tenant scenario run: the design point
// to simulate and the traffic/throttle model of internal/des. The
// scenario seed is the spec's top-level Seed.
type Sim struct {
	// ArrayDim and ICSUM select the design point to simulate.
	ArrayDim int `json:"array_dim"`
	ICSUM    int `json:"ics_um"`
	// DurationSec is the simulated horizon.
	DurationSec float64 `json:"duration_sec"`
	// ThermalDtSec is the thermal coupling tick (0 = 0.05 s).
	ThermalDtSec float64 `json:"thermal_dt_sec,omitempty"`
	// Tenants are the traffic sources (the des.Tenant JSON shape).
	Tenants []des.Tenant `json:"tenants"`
	// Throttle is the DVFS policy; absent, the trip point defaults to
	// the job's temperature budget with the standard level ladder.
	Throttle *des.Throttle `json:"throttle,omitempty"`
	// Draws scores the design over this many seeded scenario draws
	// (0 or 1 = the single base-seed run).
	Draws int `json:"draws,omitempty"`
}

// Policies are the failure-handling knobs of a run.
type Policies struct {
	// MaxFailures aborts the run once more than this many points are
	// quarantined (0 = unlimited).
	MaxFailures int `json:"max_failures,omitempty"`
	// FailFast aborts on the first failed evaluation.
	FailFast bool `json:"fail_fast,omitempty"`
	// StageTimeoutMS quarantines a point when one pipeline stage exceeds
	// this many milliseconds (0 = off).
	StageTimeoutMS int `json:"stage_timeout_ms,omitempty"`
	// Faults is a deterministic fault-injection spec (the -faults /
	// TESA_FAULTS grammar) for chaos runs.
	Faults string `json:"faults,omitempty"`
}

// Parse decodes a spec from JSON. Decoding is strict: unknown fields
// anywhere in the document (except inside an inline workload, which
// internal/dnn validates) are errors, and the version string must match
// this package's Version exactly.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	// Anything but whitespace after the object — a second document, a
	// stray closing delimiter — is a malformed spec, not extra input.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("jobspec: trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Read decodes a spec from r (see Parse).
func Read(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	return Parse(data)
}

// Load reads and decodes the spec file at path (see Parse). Relative
// workload_file references are resolved against the spec file's
// directory by Resolve, so pass filepath.Dir(path) as its baseDir.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Marshal renders the spec in the canonical on-disk form: two-space
// indented JSON with a trailing newline. Parse(Marshal(s)) round-trips.
func (s *Spec) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	return append(data, '\n'), nil
}

// Validate checks the spec's internal consistency — version, kind,
// workload-selection exclusivity, space shape, and kind-section
// pairing. Resolve calls it; CLIs can call it early for fast feedback.
func (s *Spec) Validate() error {
	if s.Version == "" {
		return fmt.Errorf("jobspec: missing version (want %q)", Version)
	}
	if s.Version != Version {
		return fmt.Errorf("jobspec: unsupported version %q (this build reads %q)", s.Version, Version)
	}
	switch s.Kind {
	case KindOptimize, KindSweep, KindPareto, KindSim:
	case "":
		return fmt.Errorf("jobspec: missing kind (optimize, sweep, pareto, or sim)")
	default:
		return fmt.Errorf("jobspec: unknown kind %q (want optimize, sweep, pareto, or sim)", s.Kind)
	}
	n := 0
	if s.WorkloadRef != "" {
		n++
	}
	if s.WorkloadFile != "" {
		n++
	}
	if len(s.Workload) > 0 {
		n++
	}
	if n > 1 {
		return fmt.Errorf("jobspec: workload_ref, workload_file, and workload are mutually exclusive")
	}
	if s.Space != nil {
		explicit := len(s.Space.ArrayDims) > 0 || len(s.Space.ICSUMs) > 0
		if s.Space.Preset != "" && explicit {
			return fmt.Errorf("jobspec: space preset and explicit axes are mutually exclusive")
		}
		if s.Space.Preset == "" && !explicit {
			return fmt.Errorf("jobspec: empty space section (give a preset or axes)")
		}
		if explicit && (len(s.Space.ArrayDims) == 0 || len(s.Space.ICSUMs) == 0) {
			return fmt.Errorf("jobspec: an explicit space needs both array_dims and ics_ums")
		}
		switch s.Space.Preset {
		case "", "default", "validation":
		default:
			return fmt.Errorf("jobspec: unknown space preset %q (want default or validation)", s.Space.Preset)
		}
	}
	if s.Pareto != nil && s.Kind != KindPareto {
		return fmt.Errorf("jobspec: pareto section on a %q job", s.Kind)
	}
	if p := s.Pareto; p != nil {
		switch p.Front {
		case "", "weights", "exact":
		default:
			return fmt.Errorf("jobspec: unknown pareto front %q (want weights or exact)", p.Front)
		}
		if p.Points != 0 && p.Points < 2 {
			return fmt.Errorf("jobspec: pareto needs at least 2 weight points, got %d", p.Points)
		}
		if p.Front == "exact" && p.Points != 0 {
			return fmt.Errorf("jobspec: points only applies to the weights front")
		}
	}
	if s.Sim != nil && s.Kind != KindSim {
		return fmt.Errorf("jobspec: sim section on a %q job", s.Kind)
	}
	if s.Kind == KindSim {
		switch {
		case s.Sim == nil:
			return fmt.Errorf("jobspec: a sim job needs a sim section")
		case s.Sim.ArrayDim <= 0 || s.Sim.ICSUM < 0:
			return fmt.Errorf("jobspec: sim needs a design point (array_dim > 0, ics_um >= 0), got %d/%d", s.Sim.ArrayDim, s.Sim.ICSUM)
		case s.Sim.Draws < 0:
			return fmt.Errorf("jobspec: negative sim draws %d", s.Sim.Draws)
		case s.Space != nil:
			return fmt.Errorf("jobspec: a sim job takes a design point, not a space section")
		}
	}
	if s.DeadlineSec < 0 {
		return fmt.Errorf("jobspec: negative deadline_sec %g", s.DeadlineSec)
	}
	if p := s.Policies; p != nil {
		if p.MaxFailures < 0 || p.StageTimeoutMS < 0 {
			return fmt.Errorf("jobspec: negative policy values %+v", *p)
		}
	}
	return nil
}
