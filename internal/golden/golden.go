// Package golden compares a rendered job result with its recorded
// golden. Every byte must match except the values of the fields the
// iterative thermal solve computes, which match within a tolerance: the
// conjugate-gradient solve stops at a relative residual of 3e-8, so a
// change of solver moves those values in their last bits without
// changing any answer. Winners, objectives, latency, cost and sim
// tallies still match byte for byte.
package golden

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
)

// tolerance maps each solver-computed JSON field to its allowed
// absolute difference: temperatures in degrees Celsius, power in watts.
var tolerance = map[string]float64{
	"peak_temp_c":   1e-6,
	"mean_peak_c":   1e-6,
	"max_peak_c":    1e-6,
	"total_power_w": 1e-6,
}

// field matches one solver-computed field and its numeric value.
var field = regexp.MustCompile(`"(peak_temp_c|mean_peak_c|max_peak_c|total_power_w)": (-?[0-9][0-9.eE+-]*)`)

// Compare returns nil when got matches want: byte for byte once the
// values of the fields in tolerance are masked, and those values pair
// up in order, each within its field's tolerance.
func Compare(got, want []byte) error {
	mask := []byte(`"$1": N`)
	if string(field.ReplaceAll(got, mask)) != string(field.ReplaceAll(want, mask)) {
		return fmt.Errorf("output differs outside the solver-computed fields")
	}
	g, w := field.FindAllSubmatch(got, -1), field.FindAllSubmatch(want, -1)
	for i := range g {
		name := string(g[i][1])
		gv, err := strconv.ParseFloat(string(g[i][2]), 64)
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		wv, err := strconv.ParseFloat(string(w[i][2]), 64)
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if d := math.Abs(gv - wv); !(d <= tolerance[name]) {
			return fmt.Errorf("%s #%d: %v, golden %v (|diff| %.3g > %g)", name, i+1, gv, wv, d, tolerance[name])
		}
	}
	return nil
}
