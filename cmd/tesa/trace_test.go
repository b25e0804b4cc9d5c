package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"tesa/internal/cli"
	"tesa/internal/jobspec"
	"tesa/internal/memo"
)

// traceJob runs a job of the given kind (sweep or optimize) over a
// nine-point space at the given thermal grid and temperature budget in
// process, against store (nil: a private one), with the observability
// session the tesa command builds for -trace path, and returns path.
func traceJob(t *testing.T, kind string, grid int, tempC float64, store *memo.Store) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("%s-grid%d-%gC.jsonl", kind, grid, tempC))
	fs := flag.NewFlagSet(kind, flag.ContinueOnError)
	obs := cli.ObservabilityFlags(fs)
	if err := fs.Parse([]string{"-trace", path}); err != nil {
		t.Fatal(err)
	}
	sess, err := obs.Setup("tesa", []string{kind, "-trace", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := jobspec.Parse([]byte(fmt.Sprintf(`{
  "version": "tesa.jobspec/v1",
  "kind": %q,
  "options": {"grid": %d},
  "constraints": {"fps": 15, "temp_c": %g},
  "space": {"array_dims": [180, 200, 220], "ics_ums": [0, 500, 1000]}
}`, kind, grid, tempC)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jobspec.Run(context.Background(), r, jobspec.Runtime{Tel: sess.Tel, Store: store}); err != nil {
		t.Fatal(err)
	}
	sess.Finish("ok")
	return path
}

// TestTraceReportAndDiff traces two sweeps that differ only in thermal
// grid, one optimize, and two sweeps against one store that differ only
// in temperature budget, and drives both modes of `tesa trace` over
// them: report lists the thermal stage, the evaluator cache, (for the
// optimize) start screening and (for the second sweep on the shared
// store) thermal memo hits, diff reports per-stage p95 deltas, and a
// strict diff exits 0 on one run against itself and 3 on the grid-32
// run against the grid-8 one.
func TestTraceReportAndDiff(t *testing.T) {
	a, b := traceJob(t, "sweep", 8, 85, nil), traceJob(t, "sweep", 32, 85, nil)

	code, out, stderr := runTesa(t, "trace", "report", a, b)
	if code != 0 {
		t.Fatalf("report: exit %d; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"thermal", "evaluator cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "start screening") {
		t.Errorf("report of two sweeps has a start screening row:\n%s", out)
	}
	for _, gone := range []string{"warm start", "pre-screen"} {
		if strings.Contains(out, gone) {
			t.Errorf("report still has a %q row:\n%s", gone, out)
		}
	}
	code, out, stderr = runTesa(t, "trace", "report", traceJob(t, "optimize", 8, 85, nil))
	if code != 0 {
		t.Fatalf("report: exit %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "start screening") {
		t.Errorf("optimize report lacks a start screening row:\n%s", out)
	}

	store := memo.NewStore()
	traceJob(t, "sweep", 8, 75, store)
	code, out, stderr = runTesa(t, "trace", "report", traceJob(t, "sweep", 8, 85, store))
	if code != 0 {
		t.Fatalf("report: exit %d; stderr:\n%s", code, stderr)
	}
	var hits, total int
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "thermal memo"); ok {
			if _, err := fmt.Sscanf(rest[strings.Index(rest, "(")+1:], "%d of %d", &hits, &total); err != nil {
				t.Fatalf("thermal memo row %q: %v", line, err)
			}
		}
	}
	if total == 0 || hits == 0 {
		t.Errorf("the 85 C sweep after a 75 C sweep on one store shows %d thermal memo hits of %d:\n%s", hits, total, out)
	}

	code, out, stderr = runTesa(t, "trace", "diff", a, b)
	if code != 0 {
		t.Fatalf("diff: exit %d; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"thermal", "p95"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff lacks %q:\n%s", want, out)
		}
	}

	if code, out, stderr := runTesa(t, "trace", "diff", "-strict", a, a); code != 0 {
		t.Errorf("strict self-diff: exit %d, want 0; stdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	// Grid 32 solves sixteen times the cells of grid 8, so its thermal
	// p95 is a regression far past the 10% threshold even when a
	// scheduler stall inflates the grid-8 tail.
	if code, out, stderr := runTesa(t, "trace", "diff", "-strict", a, b); code != 3 {
		t.Errorf("strict diff grid 8 -> 32: exit %d, want 3; stdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
}

// TestTraceUsageErrors: malformed trace command lines exit 2, an
// unreadable file exits 1, and -h exits 0.
func TestTraceUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	for _, c := range []struct {
		args []string
		exit int
	}{
		{nil, 2},
		{[]string{"summarize"}, 2},
		{[]string{"report"}, 2},
		{[]string{"diff", missing}, 2},
		{[]string{"diff", "-nope", missing, missing}, 2},
		{[]string{"report", missing}, 1},
		{[]string{"-h"}, 0},
		{[]string{"diff", "-h"}, 0},
	} {
		if code, _, stderr := runTesa(t, append([]string{"trace"}, c.args...)...); code != c.exit {
			t.Errorf("%q: exit %d, want %d; stderr:\n%s", c.args, code, c.exit, stderr)
		}
	}
}
