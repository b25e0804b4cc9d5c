package jobspec

import (
	"context"
	"testing"

	"tesa/internal/memo"
)

// allHitsSpec is a serve-closed-sized optimize job: 5 array dims x 3 ICS
// values at grid 16. Once its store is warm, every annealing step and
// every start draw is served by the store, which makes it the typical
// job a tesa-server round serves.
const allHitsSpec = `{"version":"tesa.jobspec/v1","kind":"optimize","seed":1,
 "options":{"grid":16},
 "constraints":{"fps":15,"temp_c":75},
 "space":{"array_dims":[120,152,184,216,248],"ics_ums":[0,300,700]}}`

// BenchmarkOptimizeAllHits times one optimize job through Run on a warm
// memo store with one annealing worker: the jobspec -> engine -> memo
// cache-hit layer, with no pipeline stage run. Run with
//
//	go test -run '^$' -bench OptimizeAllHits -benchmem ./internal/jobspec
func BenchmarkOptimizeAllHits(b *testing.B) {
	spec, err := Parse([]byte(allHitsSpec))
	if err != nil {
		b.Fatal(err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	rt := Runtime{Store: memo.NewStore(), Parallel: 1}
	if _, err := Run(ctx, r, rt); err != nil {
		b.Fatal(err)
	}
	misses := rt.Store.Stats().Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, r, rt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := rt.Store.Stats().Misses; got != misses {
		b.Fatalf("warm runs missed the store %d times, want 0", got-misses)
	}
}
