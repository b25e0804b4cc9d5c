package dnn

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Conv: "conv", DWConv: "dwconv", FC: "fc", GEMM: "gemm", Kind(99): "kind(99)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestConvOutDims(t *testing.T) {
	cases := []struct {
		l            Layer
		wantH, wantW int
	}{
		{NewConv("a", 224, 224, 3, 7, 7, 64, 2, 3), 112, 112},
		{NewConv("b", 56, 56, 64, 1, 1, 256, 1, 0), 56, 56},
		{NewConv("c", 56, 56, 64, 3, 3, 128, 2, 1), 28, 28},
		{NewDWConv("d", 112, 112, 32, 3, 3, 1, 1), 112, 112},
		{NewDWConv("e", 112, 112, 64, 3, 3, 2, 1), 56, 56},
	}
	for _, c := range cases {
		h, w := c.l.OutDims()
		if h != c.wantH || w != c.wantW {
			t.Errorf("%s: OutDims() = (%d,%d), want (%d,%d)", c.l.Name, h, w, c.wantH, c.wantW)
		}
	}
}

func TestLayerMACs(t *testing.T) {
	// 1x1 conv: 56*56*256*64 MACs.
	l := NewConv("x", 56, 56, 64, 1, 1, 256, 1, 0)
	if got, want := l.MACs(), int64(56*56*256*64); got != want {
		t.Errorf("conv MACs = %d, want %d", got, want)
	}
	// FC 1024 -> 1000.
	fc := NewFC("f", 1024, 1000)
	if got, want := fc.MACs(), int64(1024*1000); got != want {
		t.Errorf("fc MACs = %d, want %d", got, want)
	}
	// Depthwise 3x3 on 112x112x32 stride 1: 112*112*32*9.
	dw := NewDWConv("d", 112, 112, 32, 3, 3, 1, 1)
	if got, want := dw.MACs(), int64(112*112*32*9); got != want {
		t.Errorf("dw MACs = %d, want %d", got, want)
	}
	// GEMM.
	g := NewGEMM("g", 128, 512, 512)
	if got, want := g.MACs(), int64(128*512*512); got != want {
		t.Errorf("gemm MACs = %d, want %d", got, want)
	}
}

func TestLayerBytes(t *testing.T) {
	l := NewConv("x", 56, 56, 64, 3, 3, 128, 2, 1)
	if got, want := l.IfmapBytes(), int64(56*56*64); got != want {
		t.Errorf("IfmapBytes = %d, want %d", got, want)
	}
	if got, want := l.FilterBytes(), int64(3*3*64*128); got != want {
		t.Errorf("FilterBytes = %d, want %d", got, want)
	}
	if got, want := l.OfmapBytes(), int64(28*28*128); got != want {
		t.Errorf("OfmapBytes = %d, want %d", got, want)
	}
}

func TestLayerValidate(t *testing.T) {
	good := NewConv("ok", 8, 8, 3, 3, 3, 16, 1, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid layer rejected: %v", err)
	}
	bad := []Layer{
		NewConv("neg", -1, 8, 3, 3, 3, 16, 1, 1),
		NewConv("kernel", 2, 2, 3, 5, 5, 16, 1, 0),
		NewConv("stride", 8, 8, 3, 3, 3, 16, 0, 1),
		NewFC("fc", 0, 10),
		{Name: "unknown", Kind: Kind(42)},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layer %q: invalid geometry accepted", l.Name)
		}
	}
}

func TestAllNetworksValidate(t *testing.T) {
	w := ARVRWorkload()
	if err := w.Validate(); err != nil {
		t.Fatalf("AR/VR workload invalid: %v", err)
	}
	if len(w.Networks) != 6 {
		t.Fatalf("AR/VR workload has %d networks, want 6", len(w.Networks))
	}
}

func TestWorkloadValidateRejectsDuplicates(t *testing.T) {
	w := Workload{Name: "dup", Networks: []Network{MobileNet(), MobileNet()}}
	if err := w.Validate(); err == nil {
		t.Error("duplicate network names accepted")
	}
	empty := Workload{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Error("empty workload accepted")
	}
}

// TestResNet50Shape checks the canonical published numbers: roughly
// 3.8 GMACs and 25.5 M weights at 224x224.
func TestResNet50Shape(t *testing.T) {
	n := ResNet50()
	macs := float64(n.MACs())
	if macs < 3.5e9 || macs > 4.3e9 {
		t.Errorf("ResNet-50 MACs = %.3g, want ~3.8e9", macs)
	}
	wb := float64(n.WeightBytes())
	if wb < 2.2e7 || wb > 2.9e7 {
		t.Errorf("ResNet-50 weight bytes = %.3g, want ~2.55e7", wb)
	}
	// 53 convolutions + 1 FC.
	convs := 0
	for _, l := range n.Layers {
		if l.Kind == Conv {
			convs++
		}
	}
	if convs != 53 {
		t.Errorf("ResNet-50 has %d convs, want 53", convs)
	}
}

// TestMobileNetShape checks against the published ~569 MMACs / ~4.2 M
// parameter figures for MobileNetV1.
func TestMobileNetShape(t *testing.T) {
	n := MobileNet()
	macs := float64(n.MACs())
	if macs < 5.2e8 || macs > 6.2e8 {
		t.Errorf("MobileNet MACs = %.3g, want ~5.7e8", macs)
	}
	wb := float64(n.WeightBytes())
	if wb < 3.5e6 || wb > 4.8e6 {
		t.Errorf("MobileNet weight bytes = %.3g, want ~4.2e6", wb)
	}
	// 13 depthwise blocks.
	dw := 0
	for _, l := range n.Layers {
		if l.Kind == DWConv {
			dw++
		}
	}
	if dw != 13 {
		t.Errorf("MobileNet has %d depthwise layers, want 13", dw)
	}
}

// TestUNetIsHeaviest confirms the paper's observation that U-Net dominates
// simulation time (it is by far the largest MAC count in the workload).
func TestUNetIsHeaviest(t *testing.T) {
	w := ARVRWorkload()
	var unet, maxOther int64
	for _, n := range w.Networks {
		if n.Name == "U-Net" {
			unet = n.MACs()
		} else if m := n.MACs(); m > maxOther {
			maxOther = m
		}
	}
	if unet <= maxOther {
		t.Errorf("U-Net MACs = %d not the heaviest (max other = %d)", unet, maxOther)
	}
}

func TestTransformerShape(t *testing.T) {
	n := Transformer()
	// 12 layers x (3 proj + 2x12-head attention + proj + 2 ffn) + head.
	if got, want := len(n.Layers), 12*(3+24+3)+1; got != want {
		t.Errorf("Transformer layers = %d, want %d", got, want)
	}
	for _, l := range n.Layers {
		if l.Kind != GEMM {
			t.Errorf("Transformer layer %q has kind %v, want gemm", l.Name, l.Kind)
		}
	}
}

// TestMACsNonNegative is a property test: any layer the builders can
// produce reports non-negative MACs and byte counts.
func TestMACsNonNegative(t *testing.T) {
	f := func(inH, inW, inC, k, outC, stride uint8) bool {
		h, w := int(inH%64)+1, int(inW%64)+1
		c := int(inC%32) + 1
		kk := int(k%3)*2 + 1 // 1, 3, 5
		oc := int(outC%64) + 1
		s := int(stride%2) + 1
		l := NewConv("q", h, w, c, kk, kk, oc, s, kk/2)
		if err := l.Validate(); err != nil {
			return true // geometrically impossible configs are rejected, fine
		}
		return l.MACs() >= 0 && l.IfmapBytes() > 0 && l.FilterBytes() > 0 && l.OfmapBytes() > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMACsScaleWithFilters: doubling the filter count doubles conv MACs.
func TestMACsScaleWithFilters(t *testing.T) {
	f := func(outC uint8) bool {
		oc := int(outC%100) + 1
		a := NewConv("a", 28, 28, 64, 3, 3, oc, 1, 1)
		b := NewConv("b", 28, 28, 64, 3, 3, 2*oc, 1, 1)
		return b.MACs() == 2*a.MACs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkloadTotalMACs(t *testing.T) {
	w := ARVRWorkload()
	var total float64
	for _, n := range w.Networks {
		m := n.MACs()
		if m <= 0 {
			t.Errorf("%s: non-positive MACs %d", n.Name, m)
		}
		total += float64(m)
	}
	// The six-network workload lands in the hundreds of GMACs —
	// dominated by U-Net segmentation at about 45%%.
	if total < 1e11 || total > 1e12 {
		t.Errorf("workload total MACs = %.3g, expected 1e11..1e12", total)
	}
	var unet float64
	for _, n := range w.Networks {
		if n.Name == "U-Net" {
			unet = float64(n.MACs())
		}
	}
	if share := unet / total; share < 0.3 || share > 0.6 {
		t.Errorf("U-Net share = %.0f%%, expected 30..60%% (drives the mesh sizing)", share*100)
	}
	if math.IsNaN(total) {
		t.Error("total is NaN")
	}
}

// TestARVRWorkloadCopies: the built-in workload is built once, but every
// call returns an equal, independent copy — mutating one call's
// networks and layers leaves the next call's untouched.
func TestARVRWorkloadCopies(t *testing.T) {
	a, b := ARVRWorkload(), ARVRWorkload()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two calls returned different workloads")
	}
	a.Name = "mutated"
	a.Networks[0].Name = "mutated"
	a.Networks[1].Layers[0].OutC++
	a.Networks[2].Layers = a.Networks[2].Layers[:1]
	a.Networks = a.Networks[:1]
	c := ARVRWorkload()
	if !reflect.DeepEqual(b, c) {
		t.Error("mutating one copy changed a later call's workload")
	}
	if c.Name != "AR/VR" || len(c.Networks) != 6 || c.Networks[0].Name != "HandposeNet" {
		t.Errorf("later call returned %q with %d networks, first %q", c.Name, len(c.Networks), c.Networks[0].Name)
	}
}
