package jobspec

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"tesa/internal/dnn"
)

// resolveString parses and resolves one spec document.
func resolveString(t *testing.T, doc string) *Resolved {
	t.Helper()
	spec, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sharesBuiltin reports whether w is the process-wide AR/VR workload
// rather than a copy of it.
func sharesBuiltin(w dnn.Workload) bool {
	shared := dnn.SharedARVRWorkload()
	return len(w.Networks) == len(shared.Networks) && &w.Networks[0] == &shared.Networks[0]
}

// TestResolveSharesBuiltinWorkload: every spec naming the built-in
// workload, explicitly or by default, resolves to the same Networks
// backing array; an inline workload stays the job's own.
func TestResolveSharesBuiltinWorkload(t *testing.T) {
	a := resolveString(t, `{"version":"tesa.jobspec/v1","kind":"optimize"}`)
	b := resolveString(t, `{"version":"tesa.jobspec/v1","kind":"sweep","workload_ref":"arvr"}`)
	if &a.Workload.Networks[0] != &b.Workload.Networks[0] || !sharesBuiltin(a.Workload) {
		t.Error("two built-in resolves returned different Networks backing arrays")
	}

	w := dnn.ARVRWorkload()
	raw, err := dnn.MarshalWorkload(&w)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Version: Version, Kind: KindOptimize, Workload: raw}
	inline, err := spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if sharesBuiltin(inline.Workload) {
		t.Error("an inline workload resolved to the shared built-in")
	}
}

// TestRunLeavesSharedWorkloadIntact runs one job of every kind on the
// shared built-in workload and checks that none of them wrote to it.
func TestRunLeavesSharedWorkloadIntact(t *testing.T) {
	// A deep copy taken before any job resolves: a copy taken afterwards
	// would copy whatever the jobs wrote.
	want := dnn.ARVRWorkload()
	small := `"options": {"tech": "2d", "freq_mhz": 400, "grid": 8},
	  "constraints": {"fps": 15, "temp_c": 85},
	  "space": {"array_dims": [180, 200, 220], "ics_ums": [0, 1000]}`
	var jobs []*Resolved
	for _, doc := range []string{
		tinySpec,
		`{"version": "tesa.jobspec/v1", "kind": "sweep", ` + small + `}`,
		`{"version": "tesa.jobspec/v1", "kind": "pareto", ` + small + `, "pareto": {"points": 3}}`,
	} {
		jobs = append(jobs, resolveString(t, doc))
	}
	simSpec, err := Load(filepath.Join("testdata", "sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simSpec.Resolve("testdata")
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, sim)
	for _, r := range jobs {
		if !sharesBuiltin(r.Workload) {
			t.Fatalf("%s job did not resolve to the shared workload", r.Kind)
		}
	}

	// The jobs run at once, as on a server's worker pool, so a write to
	// the shared workload is also a data race under -race.
	var wg sync.WaitGroup
	for _, r := range jobs {
		wg.Add(1)
		go func(r *Resolved) {
			defer wg.Done()
			if _, err := Run(context.Background(), r, Runtime{}); err != nil {
				t.Errorf("%s job: %v", r.Kind, err)
			}
		}(r)
	}
	wg.Wait()
	if !reflect.DeepEqual(dnn.SharedARVRWorkload(), want) {
		t.Error("running jobs modified the shared AR/VR workload")
	}
}

// TestResolveBuiltinAllocs bounds what resolving a built-in spec
// allocates, so a per-job copy of the workload (~62 KB) cannot come back
// unnoticed.
func TestResolveBuiltinAllocs(t *testing.T) {
	spec, err := Parse([]byte(`{"version":"tesa.jobspec/v1","kind":"optimize"}`))
	if err != nil {
		t.Fatal(err)
	}
	dnn.SharedARVRWorkload() // build the workload outside the measurement
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := spec.Resolve(""); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > 8*1024 {
		t.Errorf("resolving a built-in spec allocates %d B, want <= 8 KiB", got)
	}
}
