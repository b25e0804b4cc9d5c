package golden

import "testing"

func TestCompare(t *testing.T) {
	want := []byte(`{"objective": 1.5, "peak_temp_c": 70.69230344093195, "total_power_w": 7.418511590646242}`)
	cases := []struct {
		name string
		got  string
		ok   bool
	}{
		{"identical", string(want), true},
		{"temperature within 1e-6", `{"objective": 1.5, "peak_temp_c": 70.6923034, "total_power_w": 7.418511590646242}`, true},
		{"power within 1e-6", `{"objective": 1.5, "peak_temp_c": 70.69230344093195, "total_power_w": 7.4185112}`, true},
		{"temperature off by 1e-5", `{"objective": 1.5, "peak_temp_c": 70.69231344093195, "total_power_w": 7.418511590646242}`, false},
		{"power off by 1e-5", `{"objective": 1.5, "peak_temp_c": 70.69230344093195, "total_power_w": 7.418521590646242}`, false},
		{"objective in its last bit", `{"objective": 1.5000000000000002, "peak_temp_c": 70.69230344093195, "total_power_w": 7.418511590646242}`, false},
		{"field missing", `{"objective": 1.5, "total_power_w": 7.418511590646242}`, false},
	}
	for _, c := range cases {
		if err := Compare([]byte(c.got), want); (err == nil) != c.ok {
			t.Errorf("%s: Compare = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
