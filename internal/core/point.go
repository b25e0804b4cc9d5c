package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"tesa/internal/area"
)

// DesignPoint is one candidate MCM configuration: the optimizer's state.
// Exactly as in the paper's Fig. 4, the optimizer tunes two knobs — the
// chiplet size (array dimension) and the inter-chiplet spacing. The two
// remaining quantities of a configuration are DERIVED:
//
//   - The per-SRAM capacity follows from the array dimension through the
//     paper's area-ratio assumption (the systolic array and its three
//     SRAMs occupy roughly equal silicon), rounded to the nearest power
//     of two. Every chiplet the paper reports obeys that rule (200x200 ->
//     3x1,024 KB, 96x96 -> 3x256 KB, 186x186 -> 3x512 KB, 56x56 ->
//     3x64 KB, 16x16 -> 3x8 KB, 132x132 -> 3x512 KB).
//   - The mesh is the max-fit grid of the mesh estimator (capped at the
//     DNN count): the ICS knob therefore controls the chiplet count, the
//     way the paper's Table V rows flip between "2x" at 1,700-1,950 um
//     and "3x" at 1,250-1,400 um spacing.
type DesignPoint struct {
	// ArrayDim is the square systolic-array dimension (ArrayDim^2 PEs).
	ArrayDim int
	// ICSUM is the inter-chiplet spacing in micrometers.
	ICSUM int
}

// SRAMKB returns the derived per-SRAM capacity in KB (see DesignPoint).
func (p DesignPoint) SRAMKB() int {
	return SRAMKBForArray(p.ArrayDim)
}

// Less orders design points lexicographically (array dimension, then
// ICS). The engines use it to break objective ties deterministically, so
// parallel sweeps of the same space always report the same winner.
func (p DesignPoint) Less(q DesignPoint) bool {
	if p.ArrayDim != q.ArrayDim {
		return p.ArrayDim < q.ArrayDim
	}
	return p.ICSUM < q.ICSUM
}

// String formats the point the way the paper's tables do.
func (p DesignPoint) String() string {
	return fmt.Sprintf("%dx%d array, %d KB SRAM, ICS %d um",
		p.ArrayDim, p.ArrayDim, 3*p.SRAMKB(), p.ICSUM)
}

// SRAMKBForArray derives the per-SRAM capacity (KB, power of two in
// [8, 4096]) whose macro area is nearest one third of the array area —
// the paper's array:SRAM area ratio of ~1 with three equal SRAMs. Near
// log-space ties round UP: an undersized SRAM costs DRAM refetch traffic,
// while oversizing only costs a little area. This reproduces every
// capacity the paper reports, including the borderline 132x132 -> 512 KB.
func SRAMKBForArray(arrayDim int) int {
	arrayMM2 := float64(arrayDim) * float64(arrayDim) * area.MACAreaMM2
	// Invert the SRAM area model's capacity-proportional term.
	targetBytes := arrayMM2 / 3 / 1.18e-6
	targetKB := targetBytes / 1024
	const tieBand = 0.04
	best, bestDist := 8, math.Inf(1)
	for kb := 8; kb <= 4096; kb *= 2 {
		if targetKB <= 0 {
			break
		}
		d := math.Abs(math.Log(float64(kb) / targetKB))
		if d < bestDist-tieBand || (d < bestDist+tieBand && kb > best) {
			best, bestDist = kb, d
		}
	}
	return best
}

// Space is the discrete design space (Table II).
type Space struct {
	ArrayDims []int // square array dimensions
	ICSUMs    []int // inter-chiplet spacings in micrometers
}

// DefaultSpace returns the paper's Table II space: 121 array sizes
// (16x16 .. 256x256, step 2) and 21 ICS options (0..1 mm, 50 um steps).
// With the 14 candidate meshes the estimator can derive, this is the
// paper's 35.6k-MCM design space.
func DefaultSpace() Space {
	var s Space
	for d := 16; d <= 256; d += 2 {
		s.ArrayDims = append(s.ArrayDims, d)
	}
	for ics := 0; ics <= 1000; ics += 50 {
		s.ICSUMs = append(s.ICSUMs, ics)
	}
	return s
}

// ValidationSpace returns the small space of the paper's Sec. IV-A
// optimizer-correctness study: 64x64 .. 128x128 arrays with a coarse
// 200 um ICS step, exhaustively enumerable.
func ValidationSpace() Space {
	var s Space
	for d := 64; d <= 128; d += 2 {
		s.ArrayDims = append(s.ArrayDims, d)
	}
	for ics := 0; ics <= 1000; ics += 200 {
		s.ICSUMs = append(s.ICSUMs, ics)
	}
	return s
}

// Validate reports an error for empty or non-physical spaces. All
// failures wrap ErrInvalidSpace.
func (s Space) Validate() error {
	if len(s.ArrayDims) == 0 || len(s.ICSUMs) == 0 {
		return fmt.Errorf("%w: empty axis", ErrInvalidSpace)
	}
	for _, d := range s.ArrayDims {
		if d <= 0 {
			return fmt.Errorf("%w: non-positive array dim %d", ErrInvalidSpace, d)
		}
	}
	for _, ics := range s.ICSUMs {
		if ics < 0 {
			return fmt.Errorf("%w: negative ICS %d um", ErrInvalidSpace, ics)
		}
	}
	return nil
}

// Fingerprint is a stable hash of the space's axes, recorded in run
// manifests to identify the space a run searched.
func (s Space) Fingerprint() string {
	h := fnv.New64a()
	for _, d := range s.ArrayDims {
		fmt.Fprintf(h, "a%d,", d)
	}
	for _, ics := range s.ICSUMs {
		fmt.Fprintf(h, "i%d,", ics)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Size returns the number of design vectors in the space.
func (s Space) Size() int {
	return len(s.ArrayDims) * len(s.ICSUMs)
}

// Contains reports whether the point lies on the space's axes.
func (s Space) Contains(p DesignPoint) bool {
	return indexOf(s.ArrayDims, p.ArrayDim) >= 0 && indexOf(s.ICSUMs, p.ICSUM) >= 0
}

// Enumerate lists every design vector (used by exhaustive search).
func (s Space) Enumerate() []DesignPoint {
	pts := make([]DesignPoint, 0, s.Size())
	for _, d := range s.ArrayDims {
		for _, ics := range s.ICSUMs {
			pts = append(pts, DesignPoint{ArrayDim: d, ICSUM: ics})
		}
	}
	return pts
}

// Random draws a uniform point from the space.
func (s Space) Random(rng *rand.Rand) DesignPoint {
	return DesignPoint{
		ArrayDim: s.ArrayDims[rng.Intn(len(s.ArrayDims))],
		ICSUM:    s.ICSUMs[rng.Intn(len(s.ICSUMs))],
	}
}

// Neighbor perturbs the point per Fig. 4: each perturbation tunes either
// the chiplet size (array dimension, which also retunes the derived SRAM
// capacity and can change the derived mesh) or the ICS (which can change
// the derived mesh). The result always stays in the space.
func (s Space) Neighbor(p DesignPoint, rng *rand.Rand) DesignPoint {
	q := p
	if rng.Intn(2) == 0 {
		// Array dimension: up to 4 axis steps either way.
		q.ArrayDim = stepAxis(s.ArrayDims, p.ArrayDim, rng, 4)
	} else {
		// ICS: up to 2 steps.
		q.ICSUM = stepAxis(s.ICSUMs, p.ICSUM, rng, 2)
	}
	return q
}

// stepAxis moves value along axis by a uniform nonzero offset in
// [-maxStep, maxStep], clamped to the axis ends. A value not on the axis
// snaps to the nearest entry.
func stepAxis(axis []int, value int, rng *rand.Rand, maxStep int) int {
	i := indexOf(axis, value)
	if i < 0 {
		i = nearest(axis, value)
	}
	step := rng.Intn(2*maxStep) + 1
	if step > maxStep {
		step = maxStep - step // maps to -1..-maxStep
	}
	j := i + step
	if j < 0 {
		j = 0
	}
	if j >= len(axis) {
		j = len(axis) - 1
	}
	return axis[j]
}

func indexOf(axis []int, v int) int {
	for i, a := range axis {
		if a == v {
			return i
		}
	}
	return -1
}

func nearest(axis []int, v int) int {
	best, bestD := 0, -1
	for i, a := range axis {
		d := a - v
		if d < 0 {
			d = -d
		}
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
