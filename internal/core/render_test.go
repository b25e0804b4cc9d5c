package core

import (
	"context"
	"strings"
	"testing"
)

func TestFloorplanASCII2D(t *testing.T) {
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 200, ICSUM: 1700})
	if err != nil {
		t.Fatal(err)
	}
	out := FloorplanASCII(ev)
	if !strings.Contains(out, "A") || !strings.Contains(out, "S") {
		t.Errorf("2-D floorplan missing array/SRAM regions:\n%s", out)
	}
	if !strings.Contains(out, "2x1 grid") {
		t.Errorf("missing mesh label:\n%s", out)
	}
}

func TestFloorplanASCII3D(t *testing.T) {
	e := testEvaluator(t, Tech3D, 400, 15, 85)
	ev, err := e.EvaluateContext(context.Background(), DesignPoint{ArrayDim: 196, ICSUM: 1000})
	if err != nil {
		t.Fatal(err)
	}
	out := FloorplanASCII(ev)
	if !strings.Contains(out, "3") || !strings.Contains(out, "m") {
		t.Errorf("3-D floorplan missing stack/margin markers:\n%s", out)
	}
}

func TestFloorplanASCIINoPlacement(t *testing.T) {
	if out := FloorplanASCII(&Evaluation{}); out != "" {
		t.Error("rendered a floorplan without placement")
	}
	if out := FloorplanASCII(nil); out != "" {
		t.Error("rendered a nil evaluation")
	}
}
