// Package dnn defines the layer-level intermediate representation of deep
// neural networks used by TESA, and the six-DNN AR/VR workload the paper
// evaluates (HandposeNet, U-Net, MobileNet, ResNet-50, DNL, Transformer).
//
// Each network is described layer by layer, exactly the granularity the
// SCALE-Sim-equivalent performance model (internal/systolic) consumes.
// All tensors are 8-bit integer (one byte per element) at batch size 1,
// matching the paper's AR/VR inference assumptions.
package dnn

import "fmt"

// Kind identifies how a layer maps onto the systolic array.
type Kind int

const (
	// Conv is a standard 2-D convolution, lowered to a GEMM via im2col:
	// rows = output pixels, cols = filters, depth = R*S*C.
	Conv Kind = iota
	// DWConv is a depthwise convolution: each input channel is convolved
	// with its own single filter. It lowers to C independent single-column
	// GEMMs and therefore utilizes a systolic array poorly, as on real
	// hardware.
	DWConv
	// FC is a fully connected layer at batch 1: a single-row GEMM.
	FC
	// GEMM is an explicit matrix multiply (used by the Transformer):
	// an M-row by N-col output with inner depth K.
	GEMM
)

// String returns the lowercase layer-kind name.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case DWConv:
		return "dwconv"
	case FC:
		return "fc"
	case GEMM:
		return "gemm"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Layer is one inference layer. Only the fields relevant to the layer's
// Kind are meaningful; the constructors below populate them consistently.
type Layer struct {
	Name string
	Kind Kind

	// Convolution / depthwise parameters.
	InH, InW, InC int // input feature-map height, width, channels
	KH, KW        int // kernel (filter) height and width
	OutC          int // number of filters / output channels
	Stride        int // spatial stride (same in both dims)
	Pad           int // spatial zero padding (same in both dims)

	// Explicit GEMM parameters (Kind == GEMM). For FC layers the
	// constructors express the layer as GemmM=1, GemmK=inputs,
	// GemmN=outputs.
	GemmM, GemmN, GemmK int
}

// Validate reports an error if the layer's geometry is inconsistent.
func (l *Layer) Validate() error {
	switch l.Kind {
	case Conv, DWConv:
		if l.InH <= 0 || l.InW <= 0 || l.InC <= 0 {
			return fmt.Errorf("layer %q: non-positive input dims %dx%dx%d", l.Name, l.InH, l.InW, l.InC)
		}
		if l.KH <= 0 || l.KW <= 0 {
			return fmt.Errorf("layer %q: non-positive kernel %dx%d", l.Name, l.KH, l.KW)
		}
		if l.Stride <= 0 {
			return fmt.Errorf("layer %q: non-positive stride %d", l.Name, l.Stride)
		}
		if l.Kind == Conv && l.OutC <= 0 {
			return fmt.Errorf("layer %q: non-positive output channels %d", l.Name, l.OutC)
		}
		if oh, ow := l.OutDims(); oh <= 0 || ow <= 0 {
			return fmt.Errorf("layer %q: kernel %dx%d larger than padded input %dx%d", l.Name, l.KH, l.KW, l.InH+2*l.Pad, l.InW+2*l.Pad)
		}
	case FC, GEMM:
		if l.GemmM <= 0 || l.GemmN <= 0 || l.GemmK <= 0 {
			return fmt.Errorf("layer %q: non-positive GEMM dims %dx%dx%d", l.Name, l.GemmM, l.GemmN, l.GemmK)
		}
	default:
		return fmt.Errorf("layer %q: unknown kind %d", l.Name, int(l.Kind))
	}
	return nil
}

// OutDims returns the output feature-map height and width of a
// convolutional layer.
func (l *Layer) OutDims() (h, w int) {
	h = (l.InH+2*l.Pad-l.KH)/l.Stride + 1
	w = (l.InW+2*l.Pad-l.KW)/l.Stride + 1
	return h, w
}

// MACs returns the number of multiply-accumulate operations the layer
// performs at batch size 1.
func (l *Layer) MACs() int64 {
	switch l.Kind {
	case Conv:
		oh, ow := l.OutDims()
		return int64(oh) * int64(ow) * int64(l.OutC) * int64(l.KH) * int64(l.KW) * int64(l.InC)
	case DWConv:
		oh, ow := l.OutDims()
		return int64(oh) * int64(ow) * int64(l.InC) * int64(l.KH) * int64(l.KW)
	case FC, GEMM:
		return int64(l.GemmM) * int64(l.GemmN) * int64(l.GemmK)
	default:
		return 0
	}
}

// IfmapBytes returns the unique input-activation footprint in bytes
// (int8 data, one byte per element).
func (l *Layer) IfmapBytes() int64 {
	switch l.Kind {
	case Conv, DWConv:
		return int64(l.InH) * int64(l.InW) * int64(l.InC)
	case FC, GEMM:
		return int64(l.GemmM) * int64(l.GemmK)
	default:
		return 0
	}
}

// FilterBytes returns the weight footprint in bytes.
func (l *Layer) FilterBytes() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.KH) * int64(l.KW) * int64(l.InC) * int64(l.OutC)
	case DWConv:
		return int64(l.KH) * int64(l.KW) * int64(l.InC)
	case FC, GEMM:
		return int64(l.GemmK) * int64(l.GemmN)
	default:
		return 0
	}
}

// OfmapBytes returns the output-activation footprint in bytes.
func (l *Layer) OfmapBytes() int64 {
	switch l.Kind {
	case Conv:
		oh, ow := l.OutDims()
		return int64(oh) * int64(ow) * int64(l.OutC)
	case DWConv:
		oh, ow := l.OutDims()
		return int64(oh) * int64(ow) * int64(l.InC)
	case FC, GEMM:
		return int64(l.GemmM) * int64(l.GemmN)
	default:
		return 0
	}
}

// Network is a named, ordered list of layers executed sequentially.
type Network struct {
	Name   string
	Layers []Layer
}

// Validate checks every layer of the network.
func (n *Network) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("network has empty name")
	}
	if len(n.Layers) == 0 {
		return fmt.Errorf("network %q has no layers", n.Name)
	}
	for i := range n.Layers {
		if err := n.Layers[i].Validate(); err != nil {
			return fmt.Errorf("network %q: layer %d: %w", n.Name, i, err)
		}
	}
	return nil
}

// MACs returns the total multiply-accumulate count of the network.
func (n *Network) MACs() int64 {
	var total int64
	for i := range n.Layers {
		total += n.Layers[i].MACs()
	}
	return total
}

// WeightBytes returns the total weight footprint of the network in bytes.
func (n *Network) WeightBytes() int64 {
	var total int64
	for i := range n.Layers {
		total += n.Layers[i].FilterBytes()
	}
	return total
}

// Workload is a multi-DNN workload: a set of independent networks that
// must all complete within one frame period. The networks perform
// independent subtasks, so there is no inter-DNN communication.
type Workload struct {
	Name     string
	Networks []Network
}

// clone returns a deep copy of w: its own Networks slice and, in each
// network, its own Layers slice.
func (w Workload) clone() Workload {
	c := Workload{Name: w.Name, Networks: make([]Network, len(w.Networks))}
	for i, n := range w.Networks {
		c.Networks[i] = Network{Name: n.Name, Layers: append([]Layer(nil), n.Layers...)}
	}
	return c
}

// Validate checks every network in the workload.
func (w *Workload) Validate() error {
	if len(w.Networks) == 0 {
		return fmt.Errorf("workload %q has no networks", w.Name)
	}
	seen := make(map[string]bool, len(w.Networks))
	for i := range w.Networks {
		if err := w.Networks[i].Validate(); err != nil {
			return fmt.Errorf("workload %q: %w", w.Name, err)
		}
		if seen[w.Networks[i].Name] {
			return fmt.Errorf("workload %q: duplicate network name %q", w.Name, w.Networks[i].Name)
		}
		seen[w.Networks[i].Name] = true
	}
	return nil
}
