package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"tesa/internal/dnn"
	"tesa/internal/memo"
	"tesa/internal/systolic"
	"tesa/internal/telemetry"
)

// memoCornerEvaluator builds a grid-10 evaluator (2-D, 400 MHz, 15 fps,
// 85 C unless vary changes them) on a private store.
func memoCornerEvaluator(t *testing.T, vary func(*Options, *Constraints)) *Evaluator {
	t.Helper()
	opts := DefaultOptions()
	opts.Grid = 10
	cons := DefaultConstraints()
	cons.FPS = 15
	cons.TempBudgetC = 85
	if vary != nil {
		vary(&opts, &cons)
	}
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// thermalRecords counts the thermal records store holds.
func thermalRecords(store *memo.Store) int {
	n := 0
	store.Range("thermal:", func(string, any) bool { n++; return true })
	return n
}

// thermalCalls returns how many thermal analyses the evaluators
// instrumented with tel ran.
func thermalCalls(tel *telemetry.Telemetry) int64 {
	return tel.Registry().Histogram("stage.thermal").Snapshot().Count
}

// TestThermalMemoSharesExcludedFields: an evaluator that differs from a
// first one only in a field the thermal key leaves out (the fps, power
// or temperature budget, the Eq. (6) weights, either normalization ref)
// runs no thermal analysis for a point the first one solved on the same
// store, and every evaluation it returns is bit-identical to a fresh
// evaluator's on a private store.
func TestThermalMemoSharesExcludedFields(t *testing.T) {
	space := midSpace().Enumerate()
	for _, v := range []struct {
		name string
		vary func(*Options, *Constraints)
	}{
		{"fps", func(_ *Options, c *Constraints) { c.FPS = 20 }},
		{"temperature budget", func(_ *Options, c *Constraints) { c.TempBudgetC = 75 }},
		{"power budget", func(_ *Options, c *Constraints) { c.PowerBudgetW = 12 }},
		{"weights", func(o *Options, _ *Constraints) { o.Alpha, o.Beta = 0.3, 2 }},
		{"cost ref", func(o *Options, _ *Constraints) { o.RefCostUSD = 20 }},
		{"DRAM ref", func(o *Options, _ *Constraints) { o.RefDRAMWatts = 8 }},
	} {
		t.Run(v.name, func(t *testing.T) {
			store := memo.NewStore()
			first := memoCornerEvaluator(t, nil)
			first.UseMemo(store)
			solved := make(map[DesignPoint]bool, len(space))
			for _, p := range space {
				ev, err := first.EvaluateContext(context.Background(), p)
				if err != nil {
					t.Fatalf("%v: %v", p, err)
				}
				solved[p] = !math.IsNaN(ev.PeakTempC)
			}

			second := memoCornerEvaluator(t, v.vary)
			second.UseMemo(store)
			tel := telemetry.New(nil)
			second.Instrument(tel)
			fresh := memoCornerEvaluator(t, v.vary)
			var shared, own int64
			for _, p := range space {
				got, err := second.EvaluateContext(context.Background(), p)
				if err != nil {
					t.Fatalf("%v: %v", p, err)
				}
				want, err := fresh.EvaluateContext(context.Background(), p)
				if err != nil {
					t.Fatalf("%v: fresh: %v", p, err)
				}
				if a, b := recordJSON(t, got), recordJSON(t, want); a != b {
					t.Errorf("%v: served evaluation diverged from a fresh one:\nshared %s\nfresh  %s", p, a, b)
				}
				if !math.IsNaN(got.PeakTempC) {
					if solved[p] {
						shared++
					} else {
						own++
					}
				}
			}
			if shared == 0 {
				t.Fatal("no point reached thermal under both settings; the variant tests nothing")
			}
			if n := thermalCalls(tel); n != own {
				t.Errorf("ran %d thermal analyses, want %d (the points the first evaluator never solved; %d were shared)", n, own, shared)
			}
		})
	}
}

// TestThermalFingerprintSplitsInputs: every input the thermal stage
// reads changes thermFP (and cfgFP), and every field it leaves out
// changes cfgFP alone.
func TestThermalFingerprintSplitsInputs(t *testing.T) {
	type inputs struct {
		w       dnn.Workload
		o       Options
		c       Constraints
		m       Models
		timeout time.Duration
	}
	fps := func(in inputs) (cfg, therm string) {
		e, err := NewEvaluator(in.w, in.o, in.c, in.m)
		if err != nil {
			t.Fatal(err)
		}
		e.SetStageTimeout(in.timeout)
		e.fingerprints()
		return e.cfgFP, e.thermFP
	}
	base := func() inputs {
		return inputs{dnn.ARVRWorkload(), DefaultOptions(), DefaultConstraints(), DefaultModels(), 0}
	}
	baseCfg, baseTherm := fps(base())
	for _, c := range []struct {
		name  string
		vary  func(*inputs)
		split bool // must the thermal key change?
	}{
		{"grid", func(in *inputs) { in.o.Grid = 32 }, true},
		{"tech", func(in *inputs) { in.o.Tech = Tech3D }, true},
		{"frequency", func(in *inputs) { in.o.FreqHz = 500e6 }, true},
		{"dataflow", func(in *inputs) { in.o.Dataflow = systolic.WeightStationary }, true},
		{"no leakage", func(in *inputs) { in.o.NoLeakage = true }, true},
		{"linear leakage", func(in *inputs) { in.o.LinearLeakage = true }, true},
		{"max chiplets", func(in *inputs) { in.o.MaxChiplets = 4 }, true},
		{"interposer", func(in *inputs) { in.c.InterposerMM = 10 }, true},
		{"materials", func(in *inputs) { in.m.Materials.TIMK *= 2 }, true},
		{"leakage model", func(in *inputs) { in.m.Power.LeakTempCoeffPerC = 0.03 }, true},
		{"layer", func(in *inputs) { in.w.Networks[0].Layers[0].OutC++ }, true},
		{"stage timeout", func(in *inputs) { in.timeout = time.Second }, true},
		{"fps", func(in *inputs) { in.c.FPS = 60 }, false},
		{"power budget", func(in *inputs) { in.c.PowerBudgetW = 10 }, false},
		{"temperature budget", func(in *inputs) { in.c.TempBudgetC = 85 }, false},
		{"alpha", func(in *inputs) { in.o.Alpha = 0.5 }, false},
		{"beta", func(in *inputs) { in.o.Beta = 0.5 }, false},
		{"cost ref", func(in *inputs) { in.o.RefCostUSD = 20 }, false},
		{"DRAM ref", func(in *inputs) { in.o.RefDRAMWatts = 8 }, false},
	} {
		in := base()
		c.vary(&in)
		cfg, therm := fps(in)
		if cfg == baseCfg {
			t.Errorf("%s: cfgFP unchanged", c.name)
		}
		if split := therm != baseTherm; split != c.split {
			t.Errorf("%s: thermFP changed = %v, want %v", c.name, split, c.split)
		}
	}
}

// TestFingerprintCoversEveryField perturbs, by reflection, every field
// of dnn.Layer, dnn.Network and dnn.Workload in turn and requires each
// fingerprint that binds the workload (cfgFP, perfFP, thermFP) to
// change, so a field added to those types cannot silently drop out of
// the memo keys. A field of a kind the test cannot perturb fails it
// until the test learns that kind.
func TestFingerprintCoversEveryField(t *testing.T) {
	fingerprints := func(w dnn.Workload) [3]string {
		// Built directly: perturbed layers need not validate.
		e := &Evaluator{Workload: w, Opts: DefaultOptions(), Cons: DefaultConstraints(), Models: DefaultModels()}
		e.fingerprints()
		return [3]string{e.cfgFP, e.perfFP, e.thermFP}
	}
	perturb := func(t *testing.T, v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Slice:
			v.Set(v.Slice(0, v.Len()-1))
		default:
			t.Fatalf("no perturbation for a field of kind %s", v.Kind())
		}
	}
	base := fingerprints(dnn.ARVRWorkload())
	check := func(target func(w *dnn.Workload) reflect.Value) {
		typ := target(&dnn.Workload{Networks: []dnn.Network{{Layers: []dnn.Layer{{}}}}}).Type()
		for i := 0; i < typ.NumField(); i++ {
			name := fmt.Sprintf("%s.%s", typ.Name(), typ.Field(i).Name)
			t.Run(name, func(t *testing.T) {
				w := dnn.ARVRWorkload()
				perturb(t, target(&w).Field(i))
				got := fingerprints(w)
				for k, label := range []string{"cfgFP", "perfFP", "thermFP"} {
					if got[k] == base[k] {
						t.Errorf("perturbing %s left %s unchanged", name, label)
					}
				}
			})
		}
	}
	check(func(w *dnn.Workload) reflect.Value { return reflect.ValueOf(w).Elem() })
	check(func(w *dnn.Workload) reflect.Value { return reflect.ValueOf(&w.Networks[0]).Elem() })
	check(func(w *dnn.Workload) reflect.Value { return reflect.ValueOf(&w.Networks[0].Layers[0]).Elem() })
}

// TestThermalMemoSkipsFailures: a thermal stage that fails — an
// injected error, a non-finite output, a stage timeout — leaves no
// thermal record, while the same point evaluated cleanly leaves one.
func TestThermalMemoSkipsFailures(t *testing.T) {
	p := DesignPoint{ArrayDim: 192, ICSUM: 500}
	clean := memoCornerEvaluator(t, nil)
	ev, err := clean.EvaluateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ev.PeakTempC) {
		t.Fatalf("%v never reaches thermal; the test exercises nothing", p)
	}
	if n := thermalRecords(clean.Memo()); n != 1 {
		t.Fatalf("a clean evaluation left %d thermal records, want 1", n)
	}
	at := fmt.Sprintf("dim=%d,ics=%d", p.ArrayDim, p.ICSUM)
	for _, c := range []struct {
		spec    string
		timeout time.Duration
		want    error
	}{
		{"error@thermal:" + at, 0, nil},
		{"nan@thermal:" + at, 0, ErrNonFinite},
		{"latency@thermal:" + at + ",delay=300ms", 100 * time.Millisecond, ErrStageTimeout},
	} {
		e := memoCornerEvaluator(t, nil)
		e.InjectFaults(injectPlan(t, c.spec))
		e.SetStageTimeout(c.timeout)
		_, err := e.EvaluateContext(context.Background(), p)
		ee, ok := asEvalError(err)
		if !ok || ee.Stage != stageThermal {
			t.Fatalf("%s: err = %v, want a thermal-stage failure", c.spec, err)
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.spec, err, c.want)
		}
		if n := thermalRecords(e.Memo()); n != 0 {
			t.Errorf("%s: the failed stage left %d thermal records", c.spec, n)
		}
	}
}

// TestThermalMemoFromDisk: a second process over the same -memo-dir at a
// different temperature budget serves every thermal stage from the
// first process's records and returns what a fresh evaluator returns.
func TestThermalMemoFromDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "memo")
	space := midSpace().Enumerate()
	at := func(tempC float64) func(*Options, *Constraints) {
		return func(_ *Options, c *Constraints) { c.TempBudgetC = tempC }
	}

	first := memoCornerEvaluator(t, at(85))
	store := memo.NewStore()
	closeFirst, err := LoadMemoDir(store, dir)
	if err != nil {
		t.Fatal(err)
	}
	first.UseMemo(store)
	for _, p := range space {
		if _, err := first.EvaluateContext(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := closeFirst(); err != nil {
		t.Fatal(err)
	}
	written := thermalRecords(store)
	if written == 0 {
		t.Fatal("the first process solved no thermal stage")
	}

	second := memoCornerEvaluator(t, at(75))
	reloaded := memo.NewStore()
	closeSecond, err := LoadMemoDir(reloaded, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSecond()
	if n := thermalRecords(reloaded); n != written {
		t.Fatalf("reloaded %d thermal records, want %d", n, written)
	}
	second.UseMemo(reloaded)
	tel := telemetry.New(nil)
	second.Instrument(tel)
	fresh := memoCornerEvaluator(t, at(75))
	for _, p := range space {
		got, err := second.EvaluateContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.EvaluateContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := recordJSON(t, got), recordJSON(t, want); a != b {
			t.Errorf("%v: disk-served evaluation diverged:\ndisk  %s\nfresh %s", p, a, b)
		}
	}
	if n := thermalCalls(tel); n != 0 {
		t.Errorf("second process ran %d thermal analyses, want 0", n)
	}
	if hits := tel.Registry().Counter("memo.hit.thermal").Value(); hits != int64(written) {
		t.Errorf("%d thermal memo hits, want %d", hits, written)
	}
}

// TestThermalMemoConcurrentCorners: sweeps at two temperature budgets
// run at once on one store (the -race target for thermal records shared
// across evaluators). Each thermal stage is solved once whichever sweep
// reaches it first, and every evaluation either sweep made is
// bit-identical to a fresh evaluator's.
func TestThermalMemoConcurrentCorners(t *testing.T) {
	space := midSpace()
	budgets := []float64{75, 85}
	store := memo.NewStore()
	tel := telemetry.New(nil)
	evs := make([]*Evaluator, len(budgets))
	errs := make([]error, len(budgets))
	var wg sync.WaitGroup
	for i, tempC := range budgets {
		evs[i] = memoCornerEvaluator(t, func(_ *Options, c *Constraints) { c.TempBudgetC = tempC })
		evs[i].UseMemo(store)
		evs[i].Instrument(tel)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = evs[i].ExhaustiveContext(context.Background(), space, nil)
		}(i)
	}
	wg.Wait()
	for i, tempC := range budgets {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		fresh := memoCornerEvaluator(t, func(_ *Options, c *Constraints) { c.TempBudgetC = tempC })
		for _, p := range space.Enumerate() {
			got, err := evs[i].EvaluateContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.EvaluateContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := recordJSON(t, got), recordJSON(t, want); a != b {
				t.Errorf("%g C %v: diverged from a fresh evaluation:\nshared %s\nfresh  %s", tempC, p, a, b)
			}
		}
	}
	records := thermalRecords(store)
	if records == 0 {
		t.Fatal("no thermal records")
	}
	if n := thermalCalls(tel); n != int64(records) {
		t.Errorf("%d thermal analyses for %d thermal records", n, records)
	}
}
