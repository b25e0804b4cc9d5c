// Package faults is TESA's deterministic fault-injection subsystem: a
// seedable chaos layer that the evaluation pipeline consults at every
// stage boundary. It exists to prove the hardened pipeline — panic
// isolation, non-finite validation, stage timeouts, and the quarantine
// ledger — against the failure modes a multi-hour DSE run actually
// meets: a pathological design point that panics a model, feeds a NaN
// downstream, stalls a stage, or defeats the thermal CG solver.
//
// A Plan is a list of rules parsed from a compact spec (the TESA_FAULTS
// environment variable or the CLIs' -faults flag):
//
//	kind@stage[:key=value,...][;kind@stage...]
//
// where kind is one of panic, error, nan, latency, diverge; stage is a
// pipeline stage name (systolic, floorplan, sched, dram, cost, thermal)
// or * for any stage; and the options select which design points the
// rule poisons:
//
//	dim=64      exact array dimension, or dim=64-128 for a range
//	ics=500     exact inter-chiplet spacing (um), or a range
//	rate=0.05   poison this fraction of matching points (default: all)
//	seed=7      PRNG seed for the rate decision (default 1)
//	delay=50ms  sleep duration for latency faults (default 25ms)
//
// Example: panic 2% of all systolic-stage evaluations and force thermal
// divergence for every point at 500 um spacing:
//
//	TESA_FAULTS="panic@systolic:rate=0.02,seed=3;diverge@thermal:ics=500"
//
// Decisions are pure functions of (rule seed, stage, design point), so
// a plan poisons the identical set of points on every run — which is
// what lets tests assert exact quarantine sets.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the injectable failure modes.
type Kind int

const (
	// KindPanic panics at the stage boundary (exercises the per-worker
	// recover and ErrStagePanic conversion).
	KindPanic Kind = iota
	// KindError returns ErrInjected from the stage (exercises the
	// structured-error quarantine path).
	KindError
	// KindNaN corrupts a stage output scalar to NaN (exercises the
	// non-finite boundary validation and ErrNonFinite).
	KindNaN
	// KindLatency sleeps at the stage boundary (exercises the stage
	// wall-clock budget and ErrStageTimeout).
	KindLatency
	// KindDiverge forces the thermal solver to report non-convergence
	// (exercises the ErrSolverDiverged quarantine path).
	KindDiverge
)

// String returns the spec keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindNaN:
		return "nan"
	case KindLatency:
		return "latency"
	case KindDiverge:
		return "diverge"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ErrInjected is the cause carried by every error-kind injection, so
// callers can tell chaos-run failures from organic ones with errors.Is.
var ErrInjected = errors.New("faults: injected error")

// DefaultLatency is the sleep applied by latency rules without an
// explicit delay option.
const DefaultLatency = 25 * time.Millisecond

// Rule is one parsed injection rule. The zero values of the predicate
// fields mean "match anything".
type Rule struct {
	Kind  Kind
	Stage string // pipeline stage name, or "*"

	// DimLo/DimHi and ICSLo/ICSHi bound the matching design points
	// (inclusive); the bounds only apply when the corresponding Set flag
	// is true, so an exact-zero bound (ics=0 is a legal spacing) still
	// works.
	DimSet       bool
	DimLo, DimHi int
	ICSSet       bool
	ICSLo, ICSHi int

	// Rate poisons this fraction of matching points via a deterministic
	// per-point hash; 0 means 1 (every matching point).
	Rate float64
	// Seed feeds the per-point hash so distinct rules (or runs) can
	// poison distinct subsets.
	Seed int64
	// Delay is the latency-kind sleep.
	Delay time.Duration
}

// String renders the rule back in spec syntax (not necessarily
// byte-identical to the input, but re-parseable).
func (r Rule) String() string {
	var opts []string
	if r.DimSet {
		opts = append(opts, rangeOpt("dim", r.DimLo, r.DimHi))
	}
	if r.ICSSet {
		opts = append(opts, rangeOpt("ics", r.ICSLo, r.ICSHi))
	}
	if r.Rate > 0 && r.Rate < 1 {
		opts = append(opts, fmt.Sprintf("rate=%g", r.Rate))
	}
	if r.Seed != 1 { // the seed a rule without a seed option parses to
		opts = append(opts, fmt.Sprintf("seed=%d", r.Seed))
	}
	if r.Kind == KindLatency && r.Delay > 0 {
		opts = append(opts, fmt.Sprintf("delay=%s", r.Delay))
	}
	s := fmt.Sprintf("%s@%s", r.Kind, r.Stage)
	if len(opts) > 0 {
		s += ":" + strings.Join(opts, ",")
	}
	return s
}

func rangeOpt(key string, lo, hi int) string {
	if lo == hi {
		return fmt.Sprintf("%s=%d", key, lo)
	}
	return fmt.Sprintf("%s=%d-%d", key, lo, hi)
}

// matches reports whether the rule's predicate covers (stage, dim, ics),
// including the deterministic rate decision.
func (r *Rule) matches(stage string, dim, ics int) bool {
	if r.Stage != "*" && r.Stage != stage {
		return false
	}
	if r.DimSet && (dim < r.DimLo || dim > r.DimHi) {
		return false
	}
	if r.ICSSet && (ics < r.ICSLo || ics > r.ICSHi) {
		return false
	}
	if r.Rate > 0 && r.Rate < 1 {
		return hash01(r.Seed, r.Stage, dim, ics) < r.Rate
	}
	return true
}

// hash01 maps (seed, stage, dim, ics) to a uniform [0,1) value — the
// deterministic replacement for a coin flip, stable across runs.
func hash01(seed int64, stage string, dim, ics int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d", seed, stage, dim, ics)
	// 53 mantissa bits of the hash, scaled to [0,1).
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Outcome is the set of faults firing at one stage boundary. Multiple
// rules can fire together (e.g. a latency rule plus an error rule).
type Outcome struct {
	// Panic requests an injected panic at the boundary.
	Panic bool
	// Err, when non-nil, is the injected stage error (wraps ErrInjected).
	Err error
	// NaN requests corruption of a stage output scalar to NaN.
	NaN bool
	// Delay is the total injected latency.
	Delay time.Duration
}

// Plan is a parsed set of injection rules. The nil plan is the disabled
// fast path: every probe is a single nil check.
type Plan struct {
	Rules []Rule
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Rules) == 0 }

// String renders the plan in spec syntax.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ";")
}

// At returns the faults firing at the given stage boundary for the
// given design point, or nil when none do. Deterministic: the same
// (plan, stage, point) always yields the same outcome.
func (p *Plan) At(stage string, dim, ics int) *Outcome {
	if p == nil {
		return nil
	}
	var out *Outcome
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Kind == KindDiverge || !r.matches(stage, dim, ics) {
			continue
		}
		if out == nil {
			out = &Outcome{}
		}
		switch r.Kind {
		case KindPanic:
			out.Panic = true
		case KindError:
			out.Err = fmt.Errorf("%w: rule %s at stage %s for dim=%d ics=%d", ErrInjected, r, stage, dim, ics)
		case KindNaN:
			out.NaN = true
		case KindLatency:
			d := r.Delay
			if d <= 0 {
				d = DefaultLatency
			}
			out.Delay += d
		}
	}
	return out
}

// Diverge reports whether a diverge rule forces thermal-solver
// non-convergence for the given design point.
func (p *Plan) Diverge(dim, ics int) bool {
	if p == nil {
		return false
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Kind == KindDiverge && r.matches("thermal", dim, ics) {
			return true
		}
	}
	return false
}

// FromEnv parses the TESA_FAULTS-style value; an empty spec returns a
// nil plan (injection disabled).
func FromEnv(spec string) (*Plan, error) { return Parse(spec) }

// Parse parses a fault spec (see the package comment for the syntax).
// An empty or all-whitespace spec returns a nil plan.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var plan Plan
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rule, err := parseRule(part)
		if err != nil {
			return nil, fmt.Errorf("faults: rule %q: %w", part, err)
		}
		plan.Rules = append(plan.Rules, rule)
	}
	if len(plan.Rules) == 0 {
		return nil, nil
	}
	return &plan, nil
}

// knownStages guards against silently-dead rules from typo'd stage
// names.
var knownStages = map[string]bool{
	"*": true, "systolic": true, "floorplan": true, "sched": true,
	"dram": true, "cost": true, "thermal": true,
}

func parseRule(s string) (Rule, error) {
	head, opts, hasOpts := strings.Cut(s, ":")
	kindStr, stage, ok := strings.Cut(head, "@")
	if !ok {
		return Rule{}, fmt.Errorf("want kind@stage, got %q", head)
	}
	var r Rule
	switch strings.TrimSpace(kindStr) {
	case "panic":
		r.Kind = KindPanic
	case "error":
		r.Kind = KindError
	case "nan":
		r.Kind = KindNaN
	case "latency":
		r.Kind = KindLatency
	case "diverge":
		r.Kind = KindDiverge
	default:
		return Rule{}, fmt.Errorf("unknown fault kind %q", kindStr)
	}
	r.Stage = strings.TrimSpace(stage)
	if !knownStages[r.Stage] {
		return Rule{}, fmt.Errorf("unknown stage %q", r.Stage)
	}
	if r.Kind == KindDiverge && r.Stage != "thermal" && r.Stage != "*" {
		return Rule{}, fmt.Errorf("diverge applies to the thermal stage, not %q", r.Stage)
	}
	r.Seed = 1
	if !hasOpts {
		return r, nil
	}
	for _, opt := range strings.Split(opts, ",") {
		opt = strings.TrimSpace(opt)
		if opt == "" {
			continue
		}
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return Rule{}, fmt.Errorf("want key=value, got %q", opt)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "dim":
			lo, hi, err := parseRange(val)
			if err != nil {
				return Rule{}, fmt.Errorf("dim: %w", err)
			}
			r.DimSet, r.DimLo, r.DimHi = true, lo, hi
		case "ics":
			lo, hi, err := parseRange(val)
			if err != nil {
				return Rule{}, fmt.Errorf("ics: %w", err)
			}
			r.ICSSet, r.ICSLo, r.ICSHi = true, lo, hi
		case "rate":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(f) || f <= 0 || f > 1 {
				return Rule{}, fmt.Errorf("rate must be in (0,1], got %q", val)
			}
			r.Rate = f
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Rule{}, fmt.Errorf("seed: %w", err)
			}
			r.Seed = n
		case "delay":
			if r.Kind != KindLatency {
				return Rule{}, fmt.Errorf("delay only applies to latency rules")
			}
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return Rule{}, fmt.Errorf("delay must be a positive duration, got %q", val)
			}
			r.Delay = d
		default:
			return Rule{}, fmt.Errorf("unknown option %q", key)
		}
	}
	return r, nil
}

// parseRange parses "64" (lo==hi) or "64-128".
func parseRange(s string) (int, int, error) {
	loStr, hiStr, isRange := strings.Cut(s, "-")
	lo, err := strconv.Atoi(strings.TrimSpace(loStr))
	if err != nil {
		return 0, 0, fmt.Errorf("bad bound %q", loStr)
	}
	hi := lo
	if isRange {
		if hi, err = strconv.Atoi(strings.TrimSpace(hiStr)); err != nil {
			return 0, 0, fmt.Errorf("bad bound %q", hiStr)
		}
	}
	if lo < 0 || hi < lo {
		return 0, 0, fmt.Errorf("bad range %d-%d", lo, hi)
	}
	return lo, hi, nil
}
