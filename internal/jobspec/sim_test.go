package jobspec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"tesa/internal/core"
	"tesa/internal/des"
)

// TestSimSpecValidation pins the sim-section pairing and field rules.
func TestSimSpecValidation(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"sim section on optimize",
			`{"version":"tesa.jobspec/v1","kind":"optimize","sim":{"array_dim":200,"duration_sec":1,"tenants":[]}}`,
			"sim section"},
		{"sim job without section",
			`{"version":"tesa.jobspec/v1","kind":"sim"}`,
			"needs a sim section"},
		{"non-positive array dim",
			`{"version":"tesa.jobspec/v1","kind":"sim","sim":{"array_dim":0,"duration_sec":1,"tenants":[{"name":"a","arrival":{"kind":"poisson","rate_rps":1},"sla_sec":1}]}}`,
			"array_dim"},
		{"negative ics spacing",
			`{"version":"tesa.jobspec/v1","kind":"sim","sim":{"array_dim":64,"ics_um":-1,"duration_sec":1,"tenants":[{"name":"a","arrival":{"kind":"poisson","rate_rps":1},"sla_sec":1}]}}`,
			"ics_um"},
		{"negative draws",
			`{"version":"tesa.jobspec/v1","kind":"sim","sim":{"array_dim":64,"duration_sec":1,"draws":-2,"tenants":[{"name":"a","arrival":{"kind":"poisson","rate_rps":1},"sla_sec":1}]}}`,
			"draws"},
		{"space section on sim",
			`{"version":"tesa.jobspec/v1","kind":"sim","space":{"preset":"default"},"sim":{"array_dim":64,"duration_sec":1,"tenants":[{"name":"a","arrival":{"kind":"poisson","rate_rps":1},"sla_sec":1}]}}`,
			"space section"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.in))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Parse err = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

// TestResolveSim pins the scenario materialization: the spec seed seeds
// the scenario, an unset tick takes the 0.05 s default, an absent
// throttle section trips at the temperature budget, and draws floor at
// one.
func TestResolveSim(t *testing.T) {
	minimal := `{
	  "version": "tesa.jobspec/v1",
	  "kind": "sim",
	  "constraints": {"temp_c": 75},
	  "seed": 9,
	  "sim": {
	    "array_dim": 200, "ics_um": 1700, "duration_sec": 1,
	    "tenants": [{"name": "a", "network": "MobileNet",
	                 "arrival": {"kind": "poisson", "rate_rps": 2}, "sla_sec": 0.5}]
	  }
	}`
	spec, err := Parse([]byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if r.SimPoint.ArrayDim != 200 || r.SimPoint.ICSUM != 1700 {
		t.Errorf("sim point lost: %+v", r.SimPoint)
	}
	if r.Scenario.Seed != 9 {
		t.Errorf("scenario seed = %d, want the spec seed 9", r.Scenario.Seed)
	}
	if r.Scenario.ThermalDtSec != defaultThermalDtSec {
		t.Errorf("thermal dt = %g, want default %g", r.Scenario.ThermalDtSec, defaultThermalDtSec)
	}
	if r.Scenario.Throttle.TripC != 75 {
		t.Errorf("throttle trip = %g, want the 75 C budget", r.Scenario.Throttle.TripC)
	}
	if r.SimDraws != 1 {
		t.Errorf("draws = %d, want floor of 1", r.SimDraws)
	}

	spec, err = Load(filepath.Join("testdata", "sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	r, err = spec.Resolve("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if r.Scenario.ThermalDtSec != 0.1 || r.SimDraws != 3 || len(r.Scenario.Tenants) != 2 {
		t.Errorf("sim overlay lost: dt=%g draws=%d tenants=%d",
			r.Scenario.ThermalDtSec, r.SimDraws, len(r.Scenario.Tenants))
	}

	// An invalid scenario (zero-rate tenant) fails at resolve, not run.
	bad := strings.Replace(minimal, `"rate_rps": 2`, `"rate_rps": 0`, 1)
	spec, err = Parse([]byte(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = spec.Resolve(""); err == nil {
		t.Error("zero-rate tenant resolved without error")
	}
}

// TestRunSim executes the testdata sim job end to end and checks the
// wire form is coherent and deterministic.
func TestRunSim(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("testdata")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		res, err := Run(context.Background(), r, Runtime{})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(res)
		return b
	}
	b1 := run()
	var res Result
	if err := json.Unmarshal(b1, &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindSim || !res.Found || res.Sim == nil || res.Best == nil {
		t.Fatalf("sim result incoherent: %s", b1)
	}
	s := res.Sim
	if s.ArrayDim != 200 || s.ICSUM != 1700 || s.Seed != 42 || s.Draws != 3 {
		t.Errorf("sim identity drifted: %+v", s)
	}
	if s.Requests == 0 || s.PeakTempC <= 0 || len(s.Tenants) != 2 {
		t.Errorf("sim run saw no traffic or heat: %+v", s)
	}
	if s.CombinedObjective < s.StaticObjective {
		t.Errorf("combined objective %g below static %g", s.CombinedObjective, s.StaticObjective)
	}
	if b2 := run(); string(b1) != string(b2) {
		t.Errorf("sim job is not deterministic:\n%s\n%s", b1, b2)
	}

	// A point that cannot fit the interposer is Found=false, not an error.
	tight := *r
	tight.Cons.InterposerMM = 3
	tight.SimPoint = core.DesignPoint{ArrayDim: 256, ICSUM: 1000}
	miss, err := Run(context.Background(), &tight, Runtime{})
	if err != nil {
		t.Fatalf("non-fitting sim point errored: %v", err)
	}
	if miss.Found || miss.Sim != nil {
		t.Errorf("non-fitting point reported a sim outcome: %+v", miss)
	}
}

// simThrottleSpec is the benchmark's sim-throttle job at seed 1: the
// 200x200 / ICS 1700 point at 15 fps and grid 32, three tenants for
// 10 s at a 0.05 s tick, a 64 C trip point, four draws.
func simThrottleSpec(t testing.TB) *Resolved {
	t.Helper()
	seed := int64(1)
	grid, fps := 32, 15.0
	spec := &Spec{
		Version:     Version,
		Kind:        KindSim,
		Options:     &Options{Grid: &grid},
		Constraints: &Constraints{FPS: &fps},
		Seed:        &seed,
		Sim: &Sim{
			ArrayDim:     200,
			ICSUM:        1700,
			DurationSec:  10,
			ThermalDtSec: 0.05,
			Tenants: []des.Tenant{
				{Name: "unet", Network: "U-Net", SLASec: 0.02,
					Arrival: des.ArrivalSpec{Kind: des.ArrivalMMPP, RateRPS: 120}},
				{Name: "mobilenet", Network: "MobileNet", SLASec: 0.1,
					Arrival: des.ArrivalSpec{Kind: des.ArrivalDiurnal, RateRPS: 20, PeriodSec: 2}},
				{Name: "resnet", Network: "ResNet-50", SLASec: 0.2,
					Arrival: des.ArrivalSpec{Kind: des.ArrivalPoisson, RateRPS: 10}},
			},
			Throttle: &des.Throttle{TripC: 64},
			Draws:    4,
		},
	}
	raw, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	r, err := parsed.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSimThrottleJobPinned pins the SHA-256 of the sim-throttle job's
// wire result (compact JSON) and of its event log. Both are pure
// functions of the spec: a change to how the draws are scheduled must
// leave every byte alone. Run it with -cpu 1,2,4 to cover worker
// widths. The hashes hold for amd64, which fuses no multiply-adds.
func TestSimThrottleJobPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 10 s, four-draw sim-throttle job")
	}
	const (
		wantResult = "67b02d3f6a32dbb58856e0107d9cb898883df99aa4b9a118cc31c57fd4bcdd29"
		wantEvents = "579dafb3d14df2d57af7beba1bf5e6443f990e21e0c551276d30d9a9c75bf699"
	)
	r := simThrottleSpec(t)
	var events bytes.Buffer
	res, err := Run(context.Background(), r, Runtime{Events: &events})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != wantResult {
		t.Errorf("wire result SHA-256 %s, want %s:\n%s", got, wantResult, b)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(events.Bytes())); got != wantEvents {
		t.Errorf("event log SHA-256 %s, want %s (%d bytes)", got, wantEvents, events.Len())
	}
}
