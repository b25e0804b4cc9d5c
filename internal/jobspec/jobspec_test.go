package jobspec

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tesa/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// FuzzParse: every spec Parse accepts marshals to a document that
// parses again and marshals to the same bytes, so a spec forwarded in
// canonical form (a server's job record) is the job that was
// submitted.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		out, err := spec.Marshal()
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, out)
		}
		out2, err := again.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", out, out2)
		}
	})
}

// TestGoldenRoundTrip pins the canonical encoding: every spec in
// testdata decodes strictly, re-encodes to its golden file byte for
// byte, and the golden re-decodes to an identical spec.
func TestGoldenRoundTrip(t *testing.T) {
	for _, name := range []string{"optimize", "sweep", "pareto", "sim"} {
		t.Run(name, func(t *testing.T) {
			in := filepath.Join("testdata", name+".json")
			golden := filepath.Join("testdata", name+".golden.json")
			spec, err := Load(in)
			if err != nil {
				t.Fatalf("Load(%s): %v", in, err)
			}
			out, err := spec.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if *update {
				if err := os.WriteFile(golden, out, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("golden missing (run with -update): %v", err)
			}
			if string(out) != string(want) {
				t.Errorf("canonical encoding drifted from %s:\n got: %s\nwant: %s", golden, out, want)
			}
			// The golden itself must round-trip to the same spec.
			again, err := Parse(want)
			if err != nil {
				t.Fatalf("Parse(golden): %v", err)
			}
			a, _ := json.Marshal(spec)
			b, _ := json.Marshal(again)
			if string(a) != string(b) {
				t.Errorf("golden round-trip changed the spec:\n got: %s\nwant: %s", b, a)
			}
		})
	}
}

func TestParseStrict(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown top-level field",
			`{"version":"tesa.jobspec/v1","kind":"optimize","kinds":"x"}`, "unknown field"},
		{"unknown nested field",
			`{"version":"tesa.jobspec/v1","kind":"optimize","options":{"freq_ghz":1}}`, "unknown field"},
		{"removed pre-screen band",
			`{"version":"tesa.jobspec/v1","kind":"optimize","options":{"surrogate_band_c":3}}`, "unknown field"},
		{"removed fast thermal path",
			`{"version":"tesa.jobspec/v1","kind":"optimize","options":{"thermal_fast":true}}`, "unknown field"},
		{"removed learned ranking",
			`{"version":"tesa.jobspec/v1","kind":"optimize","options":{"surrogate":true}}`, "unknown field"},
		{"removed learned ranking size",
			`{"version":"tesa.jobspec/v1","kind":"optimize","options":{"surrogate_k":4}}`, "unknown field"},
		{"missing version", `{"kind":"optimize"}`, "missing version"},
		{"wrong version", `{"version":"tesa.jobspec/v0","kind":"optimize"}`, "unsupported version"},
		{"missing kind", `{"version":"tesa.jobspec/v1"}`, "missing kind"},
		{"unknown kind", `{"version":"tesa.jobspec/v1","kind":"search"}`, "unknown kind"},
		{"trailing data", `{"version":"tesa.jobspec/v1","kind":"optimize"}{}`, "trailing data"},
		{"trailing brace", `{"version":"tesa.jobspec/v1","kind":"optimize"}}`, "trailing data"},
		{"trailing bracket", `{"version":"tesa.jobspec/v1","kind":"optimize"}]`, "trailing data"},
		{"trailing bracket line", "{\"version\":\"tesa.jobspec/v1\",\"kind\":\"optimize\"}\n]\n", "trailing data"},
		{"two workload sources",
			`{"version":"tesa.jobspec/v1","kind":"optimize","workload_ref":"arvr","workload_file":"w.json"}`,
			"mutually exclusive"},
		{"preset plus axes",
			`{"version":"tesa.jobspec/v1","kind":"optimize","space":{"preset":"default","array_dims":[64]}}`,
			"mutually exclusive"},
		{"half an explicit space",
			`{"version":"tesa.jobspec/v1","kind":"optimize","space":{"array_dims":[64]}}`,
			"both array_dims and ics_ums"},
		{"sweep section on optimize",
			`{"version":"tesa.jobspec/v1","kind":"optimize","sweep":{"shard_size":4}}`,
			"unknown field"},
		{"removed sweep section",
			`{"version":"tesa.jobspec/v1","kind":"sweep","sweep":{"shard_size":4}}`,
			"unknown field"},
		{"pareto section on sweep",
			`{"version":"tesa.jobspec/v1","kind":"sweep","pareto":{"points":3}}`,
			"pareto section"},
		{"one pareto point",
			`{"version":"tesa.jobspec/v1","kind":"pareto","pareto":{"points":1}}`,
			"at least 2"},
		{"removed nsga2 front",
			`{"version":"tesa.jobspec/v1","kind":"pareto","pareto":{"front":"nsga2"}}`,
			"unknown pareto front"},
		{"removed pareto pop",
			`{"version":"tesa.jobspec/v1","kind":"pareto","pareto":{"pop":6}}`,
			"unknown field"},
		{"removed pareto gens",
			`{"version":"tesa.jobspec/v1","kind":"pareto","pareto":{"gens":2}}`,
			"unknown field"},
		{"exact front with points",
			`{"version":"tesa.jobspec/v1","kind":"pareto","pareto":{"front":"exact","points":5}}`,
			"points only applies"},
		{"negative deadline",
			`{"version":"tesa.jobspec/v1","kind":"optimize","deadline_sec":-1}`,
			"negative deadline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.in))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Parse(%s) err = %v, want containing %q", c.in, err, c.wantErr)
			}
		})
	}
}

func TestResolveDefaults(t *testing.T) {
	spec, err := Parse([]byte(`{"version":"tesa.jobspec/v1","kind":"optimize"}`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if r.Opts != core.DefaultOptions() {
		t.Errorf("defaults drifted: %+v", r.Opts)
	}
	if r.Cons != core.DefaultConstraints() {
		t.Errorf("constraint defaults drifted: %+v", r.Cons)
	}
	if r.Space.Fingerprint() != core.DefaultSpace().Fingerprint() {
		t.Error("optimize default space is not the Table II space")
	}
	if r.Seed != 1 || r.ParetoPoints != 9 {
		t.Errorf("seed/points defaults drifted: %d %d", r.Seed, r.ParetoPoints)
	}
	if r.Workload.Name == "" || len(r.Workload.Networks) != 6 {
		t.Errorf("default workload is not the six-DNN AR/VR set: %q", r.Workload.Name)
	}

	sweep, err := Parse([]byte(`{"version":"tesa.jobspec/v1","kind":"sweep"}`))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sweep.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Space.Fingerprint() != core.ValidationSpace().Fingerprint() {
		t.Error("sweep default space is not the validation space")
	}
}

func TestResolveOverlays(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "optimize.json"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if r.Opts.Grid != 16 || r.Opts.Tech != core.Tech2D || r.Opts.FreqHz != 400e6 {
		t.Errorf("options overlay lost: %+v", r.Opts)
	}
	if r.Cons.FPS != 30 || r.Cons.TempBudgetC != 75 {
		t.Errorf("constraints overlay lost: %+v", r.Cons)
	}
	if r.Seed != 7 || r.MaxFailures != 5 {
		t.Errorf("seed/policies lost: seed=%d maxFailures=%d", r.Seed, r.MaxFailures)
	}
	if r.Deadline != 120*time.Second {
		t.Errorf("deadline lost: %v", r.Deadline)
	}
	if r.Space.Fingerprint() != core.ValidationSpace().Fingerprint() {
		t.Error("space preset lost")
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"bad tech",
			`{"version":"tesa.jobspec/v1","kind":"optimize","options":{"tech":"4d"}}`, "unknown tech"},
		{"bad dataflow",
			`{"version":"tesa.jobspec/v1","kind":"optimize","options":{"dataflow":"rs"}}`, "unknown dataflow"},
		{"bad workload ref",
			`{"version":"tesa.jobspec/v1","kind":"optimize","workload_ref":"mlperf"}`, "unknown workload_ref"},
		{"bad fault spec",
			`{"version":"tesa.jobspec/v1","kind":"optimize","policies":{"faults":"zap@nowhere"}}`, "faults"},
		{"removed shard fault",
			`{"version":"tesa.jobspec/v1","kind":"optimize","policies":{"faults":"lie@shard"}}`, "faults"},
		{"invalid space axis",
			`{"version":"tesa.jobspec/v1","kind":"optimize","space":{"array_dims":[-4],"ics_ums":[0]}}`,
			"array dim"},
		{"missing workload file",
			`{"version":"tesa.jobspec/v1","kind":"optimize","workload_file":"no/such.json"}`, "workload_file"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := Parse([]byte(c.in))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			_, err = spec.Resolve("")
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Resolve err = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

// tinySpec is a fast optimize job for execution tests: a 3x2 space at
// a coarse grid.
const tinySpec = `{
  "version": "tesa.jobspec/v1",
  "kind": "optimize",
  "options": {"tech": "2d", "freq_mhz": 400, "grid": 16},
  "constraints": {"fps": 15, "temp_c": 85},
  "space": {"array_dims": [180, 200, 220], "ics_ums": [0, 500, 1000]},
  "seed": 1
}`

// TestRunMatchesLibraryPath proves the Run executor is the library path:
// the same resolved spec driven directly through OptimizeContext yields
// a bit-identical wire result.
func TestRunMatchesLibraryPath(t *testing.T) {
	spec, err := Parse([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), r, Runtime{})
	if err != nil {
		t.Fatal(err)
	}

	ev, err := core.NewEvaluator(r.Workload, r.Opts, r.Cons, core.Models{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.OptimizeContext(context.Background(), r.Space, r.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := FromOptimize(res)
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Errorf("Run drifted from the library path:\n got: %s\nwant: %s", a, b)
	}
	if !got.Found || got.Best == nil {
		t.Fatalf("tiny optimize found nothing: %s", a)
	}
}

// TestRunSweepAndPareto smoke-runs the other two kinds and checks their
// wire-form tallies are coherent.
func TestRunSweepAndPareto(t *testing.T) {
	sweep := `{
	  "version": "tesa.jobspec/v1",
	  "kind": "sweep",
	  "options": {"grid": 8},
	  "constraints": {"fps": 15, "temp_c": 85},
	  "space": {"array_dims": [180, 200, 220], "ics_ums": [0, 1000]}
	}`
	spec, err := Parse([]byte(sweep))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), r, Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindSweep || res.Total != 6 || res.Evaluated != 6 {
		t.Errorf("sweep tallies off: %+v", res)
	}

	pareto := `{
	  "version": "tesa.jobspec/v1",
	  "kind": "pareto",
	  "options": {"grid": 8},
	  "constraints": {"fps": 15, "temp_c": 85},
	  "space": {"array_dims": [180, 200, 220], "ics_ums": [0, 1000]},
	  "pareto": {"points": 3}
	}`
	spec, err = Parse([]byte(pareto))
	if err != nil {
		t.Fatal(err)
	}
	r, err = spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(context.Background(), r, Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindPareto || len(res.Front) != 3 {
		t.Errorf("pareto front off: %+v", res)
	}
	for i, fp := range res.Front {
		if fp.Found && fp.Best == nil {
			t.Errorf("front[%d] found without a best", i)
		}
	}
}

// TestResolveFront covers the pareto front-engine selection: front
// defaults to the weight sweep, and the exact section validates
// strictly.
func TestResolveFront(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "version": "tesa.jobspec/v1",
	  "kind": "pareto",
	  "pareto": {"front": "exact"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if r.ParetoFront != "exact" {
		t.Errorf("front section lost: %q", r.ParetoFront)
	}

	plain, err := Parse([]byte(`{"version":"tesa.jobspec/v1","kind":"pareto"}`))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if rp.ParetoFront != "weights" {
		t.Errorf("default front drifted: %q", rp.ParetoFront)
	}

	for _, bad := range []string{
		`{"version":"tesa.jobspec/v1","kind":"pareto","pareto":{"front":"hull"}}`,
		`{"version":"tesa.jobspec/v1","kind":"pareto","pareto":{"front":"exact","points":5}}`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("accepted invalid pareto section: %s", bad)
		}
	}
}

// TestRunExactFront executes an exact pareto job end to end: the wire
// result carries the engine tag, the sweep's tallies, and the sweep's
// front member for member, each with a full projection and no weights.
func TestRunExactFront(t *testing.T) {
	const job = `{
	  "version": "tesa.jobspec/v1",
	  "kind": %q,
	  "options": {"grid": 8},
	  "constraints": {"fps": 15, "temp_c": 85},
	  "space": {"array_dims": [180, 200, 220], "ics_ums": [0, 1000]}%s
	}`
	run := func(kind, pareto string) *Outcome {
		spec, err := Parse([]byte(fmt.Sprintf(job, kind, pareto)))
		if err != nil {
			t.Fatal(err)
		}
		r, err := spec.Resolve("")
		if err != nil {
			t.Fatal(err)
		}
		out, err := Execute(context.Background(), r, Runtime{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := run(KindPareto, `, "pareto": {"front": "exact"}`)
	sweep := run(KindSweep, "").Sweep
	res := out.Result()
	if res.Kind != KindPareto || res.FrontEngine != "exact" {
		t.Fatalf("engine tag off: %+v", res)
	}
	if res.Feasible != sweep.Feasible || res.Evaluated != sweep.Evaluated || res.Total != sweep.Total {
		t.Errorf("tallies %d/%d/%d, sweep %d/%d/%d", res.Feasible, res.Evaluated, res.Total,
			sweep.Feasible, sweep.Evaluated, sweep.Total)
	}
	if !res.Found || len(res.Front) == 0 || len(res.Front) != len(sweep.Front) {
		t.Fatalf("front has %d members, sweep %d", len(res.Front), len(sweep.Front))
	}
	for i, fp := range res.Front {
		if !fp.Found || fp.Best == nil {
			t.Fatalf("front[%d] missing its evaluation", i)
		}
		if fp.Alpha != 0 || fp.Beta != 0 {
			t.Errorf("front[%d] carries weight-sweep fields: %+v", i, fp)
		}
		if *fp.Best != *bestOf(sweep.Front[i]) {
			t.Errorf("front[%d] = %+v, sweep %+v", i, *fp.Best, *bestOf(sweep.Front[i]))
		}
	}
}

// TestRunDeadline proves the spec's own deadline cancels a job.
func TestRunDeadline(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "version": "tesa.jobspec/v1",
	  "kind": "sweep",
	  "space": {"preset": "default"},
	  "options": {"grid": 32},
	  "deadline_sec": 0.05
	}`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), r, Runtime{})
	if err == nil || (err != context.DeadlineExceeded && !strings.Contains(err.Error(), "deadline")) {
		t.Errorf("deadline_sec did not cancel the job: %v", err)
	}
}

// TestParallelStartsKeepObjective pins what the annealer's worker-pool
// width (Runtime.Parallel, 0 = GOMAXPROCS) may not change on tinySpec:
// the winning point and objective are identical for every width, and
// the last incumbent the progress stream announces is the returned
// winner — the stream, the cross-start merge and the sweep all order
// ties by BetterPoint.
func TestParallelStartsKeepObjective(t *testing.T) {
	spec, err := Parse([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	var first *Best
	for _, parallel := range []int{0, 1, 2, 4} {
		var last *core.Evaluation
		progress := func(p core.Progress) {
			if p.Improved {
				last = p.Incumbent
			}
		}
		res, err := Run(context.Background(), r, Runtime{Parallel: parallel, Progress: progress})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || last == nil {
			t.Fatalf("parallel=%d found nothing (streamed incumbent %v)", parallel, last)
		}
		b := res.Best
		if last.Point.ArrayDim != b.ArrayDim || last.Point.ICSUM != b.ICSUM || last.Objective != b.Objective {
			t.Errorf("parallel=%d streamed %d/%d (objective %v) last, returned %d/%d (objective %v)",
				parallel, last.Point.ArrayDim, last.Point.ICSUM, last.Objective, b.ArrayDim, b.ICSUM, b.Objective)
		}
		if first == nil {
			first = b
		} else if b.ArrayDim != first.ArrayDim || b.ICSUM != first.ICSUM || b.Objective != first.Objective {
			t.Errorf("parallel=%d picked %d/%d (objective %v), parallel=0 picked %d/%d (objective %v)",
				parallel, b.ArrayDim, b.ICSUM, b.Objective, first.ArrayDim, first.ICSUM, first.Objective)
		}
		t.Logf("parallel=%d: %d/%d peak %.2f C objective %v", parallel, b.ArrayDim, b.ICSUM, b.PeakTempC, b.Objective)
	}
}
