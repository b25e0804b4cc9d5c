package core

import (
	"context"
	"testing"

	"tesa/internal/nop"
)

// TestNoPAssumptionAcrossConfigs verifies the paper's Sec. III assumption
// end to end: for real evaluated MCMs across chiplet counts and ICS
// values, the chiplet-to-DRAM-PHY link latency is orders of magnitude
// below the frame period and the wire power is small against the DRAM
// power — i.e. ignoring the network-on-package in the DSE is sound.
func TestNoPAssumptionAcrossConfigs(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 30, 85)
	params := nop.DefaultParams()
	for _, p := range []DesignPoint{
		{ArrayDim: 200, ICSUM: 1700},
		{ArrayDim: 200, ICSUM: 1400},
		{ArrayDim: 96, ICSUM: 0},
		{ArrayDim: 96, ICSUM: 1000},
	} {
		ev, err := e.EvaluateContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Fits {
			continue
		}
		a, err := e.AssessNoP(ev, params)
		if err != nil {
			t.Fatal(err)
		}
		frame := 1.0 / 30
		if a.WorstLatencySec > 1e-4*frame {
			t.Errorf("%v: link latency %.3g s not negligible vs frame %.3g s", p, a.WorstLatencySec, frame)
		}
		if ev.DRAMPowerW > 0 && a.WirePowerW > 0.05*ev.DRAMPowerW {
			t.Errorf("%v: wire power %.3f W exceeds 5%% of DRAM power %.2f W", p, a.WirePowerW, ev.DRAMPowerW)
		}
	}
}

// TestNoPTrafficAccounting: per-chiplet traffic sums to the workload's
// total DRAM bytes.
func TestNoPTrafficAccounting(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.ChipletTraffic) != ev.Mesh.Count() {
		t.Fatalf("traffic entries = %d, want %d", len(ev.ChipletTraffic), ev.Mesh.Count())
	}
	var perChiplet int64
	for _, b := range ev.ChipletTraffic {
		if b <= 0 {
			t.Error("chiplet with zero DRAM traffic despite assigned DNNs")
		}
		perChiplet += b
	}
	// Cross-check against the DRAM power model's traffic term: power =
	// channels*bg + bytes*fps*energy.
	m := DefaultModels().DRAM
	bg := float64(ev.DRAMChannels) * m.BackgroundWattsPerChannel
	traffic := (ev.DRAMPowerW - bg) / m.AccessEnergyPerByte / e.Cons.FPS
	if diff := traffic - float64(perChiplet); diff > 1 || diff < -1 {
		t.Errorf("traffic mismatch: per-chiplet sum %d, implied by power %f", perChiplet, traffic)
	}
}

// TestNoPRequiresPlacement: assessing an area-infeasible evaluation
// fails cleanly.
func TestNoPRequiresPlacement(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 30, 85)
	if _, err := e.AssessNoP(&Evaluation{}, nop.DefaultParams()); err == nil {
		t.Error("assessment without placement accepted")
	}
}
