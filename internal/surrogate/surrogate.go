// Package surrogate implements an online k-nearest-neighbor / RBF
// regressor over canonical design-point feature vectors, trained
// incrementally from completed full-fidelity evaluations. The search
// engines use it to RANK candidates — which point looks most promising
// — never to ANSWER for one: every ranked candidate that matters is
// still evaluated by the real pipeline, so the surrogate can only move
// wall-clock, not results (see DESIGN.md).
//
// Determinism under concurrency is load-bearing: the engines train the
// model from parallel workers, and a prediction must not depend on the
// interleaving. The model therefore keys its training set by the exact
// feature vector — the sample SET, not the insertion sequence, is the
// state — and rebuilds a canonical (lexicographically sorted) view
// before predicting. Duplicate feature vectors collapse to one sample,
// which is sound because the evaluation pipeline is deterministic: the
// same point always yields the same objective. Every quantity a
// prediction depends on (normalization statistics, neighbor order, tie
// breaks, kernel weights) is computed from that canonical view, so any
// two models holding the same samples predict identically, regardless
// of how or in what order the samples arrived.
package surrogate

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// DefaultK is the default neighborhood size: large enough to smooth
// over single-sample noise, small enough to stay local on the coarse
// design grids the engines search.
const DefaultK = 8

// sample is one training observation: a feature vector and the scalar
// objective the full-fidelity pipeline computed for it.
type sample struct {
	x []float64
	y float64
}

// Model is an online, concurrency-safe k-NN regressor with a Gaussian
// (RBF) distance kernel. The zero value is not usable; call New.
type Model struct {
	k int

	mu      sync.Mutex
	samples map[string]sample // keyed by canonical feature rendering
	dirty   bool              // canonical view stale after Add

	// Canonical view, rebuilt lazily: samples in lexicographic feature
	// order, plus per-dimension normalization statistics and the global
	// objective spread (the extrapolation-uncertainty scale).
	xs      [][]float64
	ys      []float64
	mean    []float64
	scale   []float64
	ySpread float64
}

// New returns an empty model that predicts from the k nearest training
// samples (k <= 0 selects DefaultK).
func New(k int) *Model {
	if k <= 0 {
		k = DefaultK
	}
	return &Model{k: k, samples: make(map[string]sample)}
}

// featureKey renders a feature vector exactly (shortest round-trip
// decimals), so equal vectors — and only equal vectors — collapse.
func featureKey(x []float64) string {
	parts := make([]string, len(x))
	for i, v := range x {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// Add records one completed full-fidelity observation. Non-finite
// objectives are ignored: infeasible evaluations carry +Inf and teach
// the model nothing a feasible neighborhood would not. Adding the same
// feature vector again keeps the latest value (the pipeline is
// deterministic, so the values are equal anyway).
func (m *Model) Add(x []float64, y float64) {
	if len(x) == 0 || math.IsNaN(y) || math.IsInf(y, 0) {
		return
	}
	cp := make([]float64, len(x))
	copy(cp, x)
	m.mu.Lock()
	m.samples[featureKey(cp)] = sample{x: cp, y: y}
	m.dirty = true
	m.mu.Unlock()
}

// Len returns the number of distinct training samples.
func (m *Model) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.samples)
}

// Ready reports whether the model holds enough samples to rank: at
// least k, so a prediction is never an extrapolation from fewer
// neighbors than the kernel assumes.
func (m *Model) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.samples) >= m.k
}

// rebuild refreshes the canonical view under m.mu: samples sorted by
// feature vector (lexicographic, exact), per-dimension mean and scale,
// and the objective spread. Everything Predict reads derives from this
// order, which is a pure function of the sample set.
func (m *Model) rebuild() {
	n := len(m.samples)
	m.xs = make([][]float64, 0, n)
	m.ys = make([]float64, 0, n)
	keys := make([]string, 0, n)
	for k := range m.samples {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return lexLess(m.samples[keys[i]].x, m.samples[keys[j]].x)
	})
	for _, k := range keys {
		s := m.samples[k]
		m.xs = append(m.xs, s.x)
		m.ys = append(m.ys, s.y)
	}
	d := len(m.xs[0])
	m.mean = make([]float64, d)
	m.scale = make([]float64, d)
	for j := 0; j < d; j++ {
		var sum float64
		for _, x := range m.xs {
			sum += x[j]
		}
		m.mean[j] = sum / float64(n)
		var ss float64
		for _, x := range m.xs {
			dv := x[j] - m.mean[j]
			ss += dv * dv
		}
		m.scale[j] = math.Sqrt(ss / float64(n))
		if m.scale[j] == 0 {
			m.scale[j] = 1 // constant dimension: distances ignore it
		}
	}
	var ySum float64
	for _, y := range m.ys {
		ySum += y
	}
	yMean := ySum / float64(n)
	var yss float64
	for _, y := range m.ys {
		dv := y - yMean
		yss += dv * dv
	}
	m.ySpread = math.Sqrt(yss / float64(n))
	m.dirty = false
}

// lexLess orders feature vectors lexicographically (shorter vectors
// first on a shared prefix) — the canonical sample order.
func lexLess(a, b []float64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Predict estimates the objective at x from the k nearest training
// samples under normalized Euclidean distance, with Gaussian kernel
// weights whose bandwidth adapts to the k-th neighbor's distance.
// sigma is the prediction's uncertainty: the weighted spread of the
// neighborhood's objectives plus an extrapolation term that grows with
// the distance to the nearest sample, so queries far from all training
// data report wide bands instead of false confidence. ok is false when
// the model is not Ready.
func (m *Model) Predict(x []float64) (mean, sigma float64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) < m.k {
		return 0, 0, false
	}
	if m.dirty {
		m.rebuild()
	}
	if len(x) != len(m.mean) {
		return 0, 0, false
	}
	n := len(m.xs)
	dists := make([]float64, n)
	for i, sx := range m.xs {
		var d2 float64
		for j := range x {
			dv := (x[j] - sx[j]) / m.scale[j]
			d2 += dv * dv
		}
		dists[i] = math.Sqrt(d2)
	}
	// Nearest-k selection with a deterministic tie break: canonical
	// index (lexicographic feature order), so equidistant samples pick
	// the same winner in every model holding this sample set.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if dists[idx[a]] != dists[idx[b]] {
			return dists[idx[a]] < dists[idx[b]]
		}
		return idx[a] < idx[b]
	})
	nb := idx[:m.k]
	if dists[nb[0]] == 0 {
		// The query IS a training sample: exact recall, zero band. The
		// pipeline is deterministic, so the stored value is the answer.
		return m.ys[nb[0]], 0, true
	}
	// Adaptive RBF bandwidth: the k-th neighbor sits at weight e^-1.
	h := dists[nb[m.k-1]]
	var wSum, wySum float64
	for _, i := range nb {
		w := math.Exp(-(dists[i] / h) * (dists[i] / h))
		wSum += w
		wySum += w * m.ys[i]
	}
	mean = wySum / wSum
	var wvSum float64
	for _, i := range nb {
		w := math.Exp(-(dists[i] / h) * (dists[i] / h))
		dv := m.ys[i] - mean
		wvSum += w * dv * dv
	}
	sigma = math.Sqrt(wvSum/wSum) + dists[nb[0]]*m.ySpread
	return mean, sigma, true
}

// LCB is the lower confidence bound mean - c*sigma: the optimistic
// (minimization) ranking score. Ranking by LCB prefers points that are
// either predicted good or still uncertain, so unexplored regions stay
// reachable — the surrogate narrows where the search looks first, not
// where it may go.
func LCB(mean, sigma, c float64) float64 { return mean - c*sigma }
