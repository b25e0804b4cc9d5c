package anneal

import (
	"context"
	"math/rand"
	"testing"
)

// intLess is the state order the integer test problems hand MultiStart.
func intLess(a, b int) bool { return a < b }

// poolProblem is a deterministic synthetic minimization shared by the
// pool-invariance tests: minimize (s-42)^2 over integers, feasible
// everywhere, with seeded random walks.
func poolProblem() (Init[int], Neighbor[int], Eval[int]) {
	init := func(rng *rand.Rand) (int, bool) { return rng.Intn(200) - 100, true }
	neighbor := func(s int, rng *rand.Rand) int { return s + rng.Intn(21) - 10 }
	eval := func(s int) (float64, bool) {
		d := float64(s - 42)
		return d * d, true
	}
	return init, neighbor, eval
}

// TestMultiStartPoolWidthInvariance: every per-start result (and the
// merged ensemble result) is identical for any worker-pool width —
// each chain owns its config-seeded PRNG stream, so the width changes
// scheduling only.
func TestMultiStartPoolWidthInvariance(t *testing.T) {
	cfgs := DefaultStarts(7)
	init, neighbor, eval := poolProblem()
	ref, refPer, err := MultiStart(context.Background(), cfgs, 0, intLess, init, neighbor, eval)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= len(cfgs)+1; workers++ {
		got, per, err := MultiStart(context.Background(), cfgs, workers, intLess, init, neighbor, eval)
		if err != nil {
			t.Fatal(err)
		}
		if got.Found != ref.Found || got.Best != ref.Best || got.BestObj != ref.BestObj ||
			got.Evaluations != ref.Evaluations || got.Accepted != ref.Accepted ||
			got.Uphill != ref.Uphill || got.Levels != ref.Levels {
			t.Errorf("workers=%d: ensemble result diverged: %+v, want %+v", workers, got, ref)
		}
		if len(per) != len(refPer) {
			t.Fatalf("workers=%d: %d per-start results, want %d", workers, len(per), len(refPer))
		}
		for i := range per {
			p, w := per[i], refPer[i]
			if p.Found != w.Found || p.Best != w.Best || p.BestObj != w.BestObj ||
				p.Evaluations != w.Evaluations || p.Accepted != w.Accepted ||
				p.Uphill != w.Uphill || p.Levels != w.Levels {
				t.Errorf("workers=%d start %d: %+v, want %+v", workers, i, p, w)
			}
		}
	}
}

// TestMultiStartPoolLessTieBreak: when starts tie on the objective, the
// winner is the state ordering first under less, whatever its start
// index — under either order, and for every pool width.
func TestMultiStartPoolLessTieBreak(t *testing.T) {
	cfgs := DefaultStarts(3)
	// Flat landscape: every state is feasible with objective 0, so each
	// chain's best stays its seeded init draw and all chains tie.
	init := func(rng *rand.Rand) (int, bool) { return rng.Intn(1000), true }
	neighbor := func(s int, rng *rand.Rand) int { return s + rng.Intn(3) - 1 }
	eval := func(int) (float64, bool) { return 0, true }

	winners := map[string]int{}
	for _, order := range []struct {
		name string
		less func(a, b int) bool
	}{
		{"ascending", intLess},
		{"descending", func(a, b int) bool { return a > b }},
	} {
		for _, workers := range []int{0, 1, 2} {
			got, per, err := MultiStart(context.Background(), cfgs, workers, order.less, init, neighbor, eval)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStart := per[0].Best, 0
			for i, r := range per[1:] {
				if order.less(r.Best, want) {
					want, wantStart = r.Best, i+1
				}
			}
			if got.Best != want {
				t.Errorf("%s, workers=%d: winner %d, want start %d's %d", order.name, workers, got.Best, wantStart, want)
			}
			if got.BestObj != 0 || !got.Found {
				t.Errorf("%s, workers=%d: tie-break changed the objective: %+v", order.name, workers, got)
			}
			winners[order.name] = got.Best
		}
	}
	// The two orders must pick different starts, or the case would not
	// show that the start index plays no part.
	if winners["ascending"] == winners["descending"] {
		t.Fatalf("both orders picked %d; the tie-break case is vacuous", winners["ascending"])
	}
}
