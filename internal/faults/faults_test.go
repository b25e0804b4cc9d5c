package faults

import (
	"errors"
	"testing"
	"time"
)

// TestParseEmpty: empty and all-whitespace specs disable injection.
func TestParseEmpty(t *testing.T) {
	for _, spec := range []string{"", "   ", ";", " ; ; "} {
		p, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q) err = %v", spec, err)
		}
		if !p.Empty() {
			t.Errorf("Parse(%q) = %v, want empty plan", spec, p)
		}
	}
}

// TestParseSpec walks the spec grammar: every kind, every option, ranges,
// and multi-rule plans.
func TestParseSpec(t *testing.T) {
	p, err := Parse("panic@systolic:rate=0.02,seed=3;diverge@thermal:ics=500;latency@*:delay=50ms;nan@cost:dim=64-128;error@dram:ics=0")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 5 {
		t.Fatalf("parsed %d rules, want 5", len(p.Rules))
	}
	r := p.Rules[0]
	if r.Kind != KindPanic || r.Stage != "systolic" || r.Rate != 0.02 || r.Seed != 3 {
		t.Errorf("rule 0 = %+v", r)
	}
	r = p.Rules[1]
	if r.Kind != KindDiverge || !r.ICSSet || r.ICSLo != 500 || r.ICSHi != 500 {
		t.Errorf("rule 1 = %+v", r)
	}
	r = p.Rules[2]
	if r.Kind != KindLatency || r.Stage != "*" || r.Delay != 50*time.Millisecond {
		t.Errorf("rule 2 = %+v", r)
	}
	r = p.Rules[3]
	if r.Kind != KindNaN || !r.DimSet || r.DimLo != 64 || r.DimHi != 128 {
		t.Errorf("rule 3 = %+v", r)
	}
	// ics=0 is a legal spacing: the Set flag must distinguish it from
	// "match anything".
	r = p.Rules[4]
	if r.Kind != KindError || !r.ICSSet || r.ICSLo != 0 || r.ICSHi != 0 {
		t.Errorf("rule 4 = %+v", r)
	}
}

// FuzzParse: every accepted spec renders to a fixed point of
// Parse∘String that parses back to the same rules, so a plan logged or
// forwarded in its rendered form poisons the same points as the
// original.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"panic@systolic:rate=0.02,seed=3;diverge@thermal:ics=500;latency@*:delay=50ms",
		"nan@cost:dim=64-128;error@dram:ics=0",
		"error@cost:rate=0.5,seed=0",
		"panic@*:dim=64,ics=250-500,rate=0.3,seed=7",
	} {
		f.Add(spec)
	}
	// rate=1 and no rate option are two spellings of one rule.
	canon := func(r Rule) Rule {
		if r.Rate == 1 {
			r.Rate = 0
		}
		return r
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil || p == nil {
			return
		}
		out := p.String()
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, out, err)
		}
		if got := p2.String(); got != out {
			t.Fatalf("%q renders as %q, which re-renders as %q", spec, out, got)
		}
		for i := range p.Rules {
			if canon(p.Rules[i]) != canon(p2.Rules[i]) {
				t.Fatalf("%q renders as %q: rule %d %+v parses back as %+v", spec, out, i, p.Rules[i], p2.Rules[i])
			}
		}
	})
}

// TestParseRoundTrip: String() renders re-parseable specs.
func TestParseRoundTrip(t *testing.T) {
	spec := "panic@systolic:rate=0.02,seed=3;diverge@thermal:ics=500;latency@*:delay=50ms"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if len(p2.Rules) != len(p.Rules) {
		t.Fatalf("round-trip lost rules: %q -> %q", spec, p2.String())
	}
	for i := range p.Rules {
		if p.Rules[i] != p2.Rules[i] {
			t.Errorf("rule %d round-trip: %+v != %+v", i, p.Rules[i], p2.Rules[i])
		}
	}
}

// TestParseErrors: malformed specs fail with a rule-attributed error.
func TestParseErrors(t *testing.T) {
	bad := []string{
		"panic",                       // no @stage
		"explode@thermal",             // unknown kind
		"panic@warp",                  // unknown stage
		"diverge@systolic",            // diverge is thermal-only
		"panic@thermal:rate=0",        // rate out of (0,1]
		"panic@thermal:rate=1.5",      // rate out of (0,1]
		"panic@thermal:rate",          // no value
		"panic@thermal:vibe=high",     // unknown option
		"panic@thermal:dim=128-64",    // inverted range
		"panic@thermal:dim=-4",        // negative bound
		"panic@thermal:delay=10ms",    // delay on a non-latency rule
		"latency@thermal:delay=-5ms",  // non-positive delay
		"diverge@thermal:attempts=2",  // no attempts option
		"panic@thermal;explode@sched", // bad rule in a multi-rule spec
		"crash@shard:shard=0",         // no worker-level kinds or shard stage
		"stall@shard:delay=600ms",     // no worker-level kinds or shard stage
		"lie@shard",                   // no worker-level kinds or shard stage
		"panic@thermal:shard=0",       // no shard option
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

// TestAtPredicates: stage and dim/ics predicates select exactly the
// specified boundaries.
func TestAtPredicates(t *testing.T) {
	p, err := Parse("error@sched:dim=64-128,ics=250")
	if err != nil {
		t.Fatal(err)
	}
	if o := p.At("sched", 96, 250); o == nil || o.Err == nil {
		t.Error("in-range point not poisoned")
	} else if !errors.Is(o.Err, ErrInjected) {
		t.Errorf("injected error does not wrap ErrInjected: %v", o.Err)
	}
	for _, tc := range []struct {
		stage    string
		dim, ics int
	}{
		{"thermal", 96, 250}, // wrong stage
		{"sched", 130, 250},  // dim above range
		{"sched", 63, 250},   // dim below range
		{"sched", 96, 0},     // wrong ics
	} {
		if o := p.At(tc.stage, tc.dim, tc.ics); o != nil {
			t.Errorf("At(%s,%d,%d) = %+v, want nil", tc.stage, tc.dim, tc.ics, o)
		}
	}
}

// TestAtCombinesRules: multiple firing rules merge into one outcome.
func TestAtCombinesRules(t *testing.T) {
	p, err := Parse("latency@cost:delay=10ms;latency@*:delay=5ms;nan@cost")
	if err != nil {
		t.Fatal(err)
	}
	o := p.At("cost", 64, 0)
	if o == nil || !o.NaN || o.Delay != 15*time.Millisecond {
		t.Errorf("combined outcome = %+v, want NaN with 15ms delay", o)
	}
}

// TestRateDeterminism: rate decisions are pure functions of
// (seed, stage, point) — identical across calls, plans, and (by
// construction) processes — and the hit fraction tracks the rate.
func TestRateDeterminism(t *testing.T) {
	p1, _ := Parse("panic@systolic:rate=0.3,seed=7")
	p2, _ := Parse("panic@systolic:rate=0.3,seed=7")
	p3, _ := Parse("panic@systolic:rate=0.3,seed=8")
	hits, diff := 0, 0
	n := 0
	for dim := 8; dim <= 256; dim += 2 {
		for ics := 0; ics <= 1000; ics += 100 {
			n++
			a := p1.At("systolic", dim, ics) != nil
			b := p2.At("systolic", dim, ics) != nil
			if a != b {
				t.Fatalf("identical plans disagree at dim=%d ics=%d", dim, ics)
			}
			if a {
				hits++
			}
			if c := p3.At("systolic", dim, ics) != nil; c != a {
				diff++
			}
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("rate=0.3 poisoned %.2f of points", frac)
	}
	if diff == 0 {
		t.Error("changing the seed changed nothing: hash ignores the seed")
	}
}

// TestDiverge: diverge rules select their points through Diverge and
// never surface through At (the thermal analysis consults Diverge
// directly).
func TestDiverge(t *testing.T) {
	all, _ := Parse("diverge@thermal")
	some, _ := Parse("diverge@thermal:ics=500")
	if !all.Diverge(64, 0) || !some.Diverge(64, 500) {
		t.Error("matching point did not diverge")
	}
	if some.Diverge(64, 0) {
		t.Error("ics=500 rule diverged at ics=0")
	}
	if o := all.At("thermal", 64, 0); o != nil {
		t.Errorf("diverge rule leaked into At: %+v", o)
	}
	if (&Plan{}).Diverge(64, 0) {
		t.Error("empty plan diverges")
	}
	var nilPlan *Plan
	if nilPlan.Diverge(64, 0) || nilPlan.At("thermal", 64, 0) != nil || !nilPlan.Empty() {
		t.Error("nil plan must be the disabled fast path")
	}
}
