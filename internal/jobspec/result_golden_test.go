package jobspec

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tesa/internal/golden"
)

// runResult resolves and runs one spec document in an isolated runtime
// and returns its wire result.
func runResult(t *testing.T, raw []byte) *Result {
	t.Helper()
	spec, err := Parse(raw)
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
	return res
}

// resultGolden renders res as indented JSON and returns that rendering
// with the bytes of the golden file testdata/<name>.result.json,
// rewriting the golden first under -update.
func resultGolden(t *testing.T, name string, res *Result) (got, want []byte) {
	t.Helper()
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", name+".result.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err = os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with -update): %v", err)
	}
	return got, want
}

// TestRunResultGoldens pins what each reference job computes: the wire
// result of tinySpec and of the sweep, pareto and sim testdata specs,
// run in the zero Runtime, must match its golden byte for byte, except
// the temperatures and total power, which match within 1e-6 (see
// golden.Compare).
func TestRunResultGoldens(t *testing.T) {
	cases := []struct {
		name string
		raw  func() ([]byte, error)
	}{
		{"tiny", func() ([]byte, error) { return []byte(tinySpec), nil }},
		{"sweep", func() ([]byte, error) { return os.ReadFile(filepath.Join("testdata", "sweep.json")) }},
		{"pareto", func() ([]byte, error) { return os.ReadFile(filepath.Join("testdata", "pareto.json")) }},
		{"sim", func() ([]byte, error) { return os.ReadFile(filepath.Join("testdata", "sim.json")) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw, err := c.raw()
			if err != nil {
				t.Fatal(err)
			}
			got, want := resultGolden(t, c.name, runResult(t, raw))
			if err := golden.Compare(got, want); err != nil {
				t.Errorf("result drifted from testdata/%s.result.json: %v\n got: %s\nwant: %s", c.name, err, got, want)
			}
		})
	}
}

// TestRunResultGoldenThermalFast pins the thermal_fast optimize job:
// its fast-path solves warm-start from whatever the evaluator solved
// before, so the winner and its objective must match the golden exactly
// and the peak temperature within 1e-3 C.
func TestRunResultGoldenThermalFast(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "optimize.json"))
	if err != nil {
		t.Fatal(err)
	}
	res := runResult(t, raw)
	_, want := resultGolden(t, "optimize", res)
	var ref Result
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if res.Found != ref.Found || (res.Best == nil) != (ref.Best == nil) {
		t.Fatalf("found = %v (best %v), golden found = %v", res.Found, res.Best, ref.Found)
	}
	if res.Best == nil {
		return
	}
	g, w := res.Best, ref.Best
	if g.ArrayDim != w.ArrayDim || g.ICSUM != w.ICSUM || g.Objective != w.Objective {
		t.Errorf("winner (%d, %d) objective %v, golden (%d, %d) objective %v",
			g.ArrayDim, g.ICSUM, g.Objective, w.ArrayDim, w.ICSUM, w.Objective)
	}
	if d := math.Abs(g.PeakTempC - w.PeakTempC); d > 1e-3 {
		t.Errorf("peak %.6f C, golden %.6f C (|diff| %.2g > 1e-3)", g.PeakTempC, w.PeakTempC, d)
	}
}
