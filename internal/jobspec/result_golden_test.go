package jobspec

import (
	"context"
	"encoding/json"
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
// with the bytes of the golden file testdata/<name>.result.json. Under
// -update it rewrites the golden first, but only when the rendering no
// longer matches it under golden.Compare, so regenerating one golden
// leaves the last-digit solver noise of the others on disk alone.
func resultGolden(t *testing.T, name string, res *Result) (got, want []byte) {
	t.Helper()
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name+".result.json")
	want, err = os.ReadFile(path)
	if *update && (err != nil || golden.Compare(got, want) != nil) {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		want, err = got, nil
	}
	if err != nil {
		t.Fatalf("golden missing (run with -update): %v", err)
	}
	return got, want
}

// TestRunResultGoldens pins what each reference job computes: the wire
// result of tinySpec and of the optimize, sweep, pareto and sim testdata
// specs, run in the zero Runtime, must match its golden byte for byte,
// except the temperatures and total power, which match within 1e-6 (see
// golden.Compare).
func TestRunResultGoldens(t *testing.T) {
	cases := []struct {
		name string
		raw  func() ([]byte, error)
	}{
		{"tiny", func() ([]byte, error) { return []byte(tinySpec), nil }},
		{"optimize", func() ([]byte, error) { return os.ReadFile(filepath.Join("testdata", "optimize.json")) }},
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
