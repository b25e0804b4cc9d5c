package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tesa/internal/dnn"
	"tesa/internal/memo"
	"tesa/internal/sched"
	"tesa/internal/telemetry"
)

// TestPointKeysMatchMemoKey: the eval, screen, thermal and profiles
// records an evaluation leaves in its store sit under exactly the keys
// memo.Key(kind, fingerprint, strconv.Itoa(dim), strconv.Itoa(ics))
// builds, so the per-evaluator key prefixes keep persisted segments
// reachable.
func TestPointKeysMatchMemoKey(t *testing.T) {
	e := memoCornerEvaluator(t, nil)
	p := DesignPoint{ArrayDim: 192, ICSUM: 500}
	if _, _, err := e.screen(p); err != nil {
		t.Fatal(err)
	}
	ev, err := e.EvaluateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ev.PeakTempC) {
		t.Fatalf("%v never reaches thermal; the test exercises nothing", p)
	}
	keys := map[string]bool{}
	e.Memo().Range("", func(k string, _ any) bool {
		keys[k] = true
		return true
	})
	dim, ics := strconv.Itoa(p.ArrayDim), strconv.Itoa(p.ICSUM)
	for _, want := range []string{
		memo.Key("eval", e.cfgFP, dim, ics),
		memo.Key("screen", e.cfgFP, dim, ics),
		memo.Key("thermal", e.thermFP, dim, ics),
		memo.Key("profiles", e.perfFP, dim, dim),
	} {
		if !keys[want] {
			t.Errorf("store lacks key %q", want)
		}
	}
	if got, want := e.evalKey(p), memo.Key("eval", e.cfgFP, dim, ics); got != want {
		t.Errorf("evalKey = %q, want %q", got, want)
	}

	// Keys longer than pointKey's stack buffer, and negative values.
	long := strings.Repeat("f", 80)
	for _, c := range [][2]int{{0, 0}, {-1, 7}, {math.MaxInt, math.MinInt}} {
		got := pointKey(memo.Key("eval", long, ""), c[0], c[1])
		if want := memo.Key("eval", long, strconv.Itoa(c[0]), strconv.Itoa(c[1])); got != want {
			t.Errorf("pointKey(%d, %d) = %q, want %q", c[0], c[1], got, want)
		}
	}
}

// TestDefaultFingerprintsGolden pins the default configuration's
// fingerprints: a change to any of them orphans every record persisted
// under the old one, which only a ModelVersion bump should do.
func TestDefaultFingerprintsGolden(t *testing.T) {
	for name, w := range map[string]dnn.Workload{
		"shared": dnn.SharedARVRWorkload(),
		"copy":   dnn.ARVRWorkload(),
	} {
		e, err := NewEvaluator(w, DefaultOptions(), DefaultConstraints(), Models{})
		if err != nil {
			t.Fatal(err)
		}
		e.fingerprints()
		for _, c := range []struct{ label, got, want string }{
			{"cfgFP", e.cfgFP, "9dd33cedd2e053a6"},
			{"thermFP", e.thermFP, "eaebccb8767e5592"},
			{"perfFP", e.perfFP, "cb551172cd0d7c62"},
		} {
			if c.got != c.want {
				t.Errorf("%s workload: %s = %s, want %s", name, c.label, c.got, c.want)
			}
		}
	}
}

// TestBuiltinFingerprintsDoNotAliasCopies: the built-in workload's
// network fingerprints are computed once per process, but only an
// evaluator over the shared workload itself takes them. One over a copy
// with one layer changed hashes its own networks and gets another cfgFP.
func TestBuiltinFingerprintsDoNotAliasCopies(t *testing.T) {
	cfgFP := func(w dnn.Workload) string {
		e, err := NewEvaluator(w, DefaultOptions(), DefaultConstraints(), Models{})
		if err != nil {
			t.Fatal(err)
		}
		e.fingerprints()
		return e.cfgFP
	}
	shared := cfgFP(dnn.SharedARVRWorkload())
	if got := cfgFP(dnn.ARVRWorkload()); got != shared {
		t.Errorf("an unmodified copy's cfgFP %s differs from the shared workload's %s", got, shared)
	}
	w := dnn.ARVRWorkload()
	w.Networks[len(w.Networks)-1].Layers[0].OutC++
	if got := cfgFP(w); got == shared {
		t.Errorf("a copy with a changed layer shares the built-in cfgFP %s", got)
	}
	if got := cfgFP(dnn.SharedARVRWorkload()); got != shared {
		t.Errorf("the shared workload's cfgFP moved from %s to %s", shared, got)
	}
}

// TestEvaluateHitAllocs bounds what a DSE evaluation served by a warm
// store allocates: the eval key string and nothing else, with and
// without a telemetry hub.
func TestEvaluateHitAllocs(t *testing.T) {
	ctx := context.Background()
	p := DesignPoint{ArrayDim: 192, ICSUM: 500}
	for name, tel := range map[string]*telemetry.Telemetry{
		"uninstrumented": nil,
		"instrumented":   telemetry.New(nil),
	} {
		e := memoCornerEvaluator(t, nil)
		e.Instrument(tel)
		if _, err := e.EvaluateContext(ctx, p); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := e.EvaluateContext(ctx, p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: a warm-store hit allocates %v times, want <= 1", name, allocs)
		}
	}
}

// TestSchedKeyCoversEveryInput: equal schedule inputs give equal sched
// keys, and changing any one field of any profile, the chiplet count or
// the corner order gives another key. Every field of sched.DNNProfile is
// perturbed by reflection, so a field the key leaves out fails here.
func TestSchedKeyCoversEveryInput(t *testing.T) {
	base := func() []sched.DNNProfile {
		return []sched.DNNProfile{
			{Name: "ResNet-50", LatencySec: 0.012, PowerWatts: 1.5},
			{Name: "U-Net", LatencySec: 0.03, PowerWatts: 2.25},
		}
	}
	order := []int{0, 2, 1, 3}
	key := schedKey(base(), 4, order)
	if got := schedKey(base(), 4, []int{0, 2, 1, 3}); got != key {
		t.Fatalf("equal inputs gave keys %q and %q", key, got)
	}
	seen := map[string]string{key: "base"}
	distinct := func(what, k string) {
		t.Helper()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s gives the same key as %s", what, prev)
		}
		seen[k] = what
	}
	for i := range base() {
		for f := 0; f < reflect.TypeOf(sched.DNNProfile{}).NumField(); f++ {
			sp := base()
			v := reflect.ValueOf(&sp[i]).Elem().Field(f)
			switch v.Kind() {
			case reflect.String:
				v.SetString(v.String() + "x")
			case reflect.Float64:
				v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
			default:
				t.Fatalf("DNNProfile field %s has kind %s, which this test cannot perturb", v.Type().Field(f).Name, v.Kind())
			}
			distinct(fmt.Sprintf("profile %d field %d", i, f), schedKey(sp, 4, order))
		}
	}
	// A name byte moved into the next profile's name: the length
	// prefixes keep the boundary.
	moved := base()
	moved[0].Name, moved[1].Name = "ResNet-5", "0U-Net"
	distinct("a moved name byte", schedKey(moved, 4, order))
	distinct("one profile fewer", schedKey(base()[:1], 4, order))
	distinct("another n", schedKey(base(), 5, order))
	distinct("another order", schedKey(base(), 4, []int{0, 1, 2, 3}))
	distinct("a shorter order", schedKey(base(), 4, order[:3]))
	if memo.Kind(key) != "sched" {
		t.Errorf("key kind %q, want sched", memo.Kind(key))
	}
}
