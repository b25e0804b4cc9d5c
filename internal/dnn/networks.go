package dnn

import (
	"fmt"
	"sync"
)

// Constructors for the layer kinds. They keep the network definitions
// below terse and guarantee geometric consistency.

// NewConv builds a standard convolution layer.
func NewConv(name string, inH, inW, inC, kh, kw, outC, stride, pad int) Layer {
	return Layer{
		Name: name, Kind: Conv,
		InH: inH, InW: inW, InC: inC,
		KH: kh, KW: kw, OutC: outC, Stride: stride, Pad: pad,
	}
}

// NewDWConv builds a depthwise convolution layer (one filter per channel).
func NewDWConv(name string, inH, inW, inC, kh, kw, stride, pad int) Layer {
	return Layer{
		Name: name, Kind: DWConv,
		InH: inH, InW: inW, InC: inC,
		KH: kh, KW: kw, OutC: inC, Stride: stride, Pad: pad,
	}
}

// NewFC builds a fully connected layer at batch 1 (a 1-row GEMM).
func NewFC(name string, in, out int) Layer {
	return Layer{Name: name, Kind: FC, GemmM: 1, GemmN: out, GemmK: in}
}

// NewGEMM builds an explicit M x N x K matrix multiplication layer.
func NewGEMM(name string, m, n, k int) Layer {
	return Layer{Name: name, Kind: GEMM, GemmM: m, GemmN: n, GemmK: k}
}

// netBuilder tracks the spatial feature-map shape while appending layers,
// so chained definitions stay consistent by construction.
type netBuilder struct {
	n       Network
	h, w, c int
}

func newBuilder(name string, h, w, c int) *netBuilder {
	return &netBuilder{n: Network{Name: name}, h: h, w: w, c: c}
}

func (b *netBuilder) conv(kh, kw, outC, stride, pad int) *netBuilder {
	l := NewConv(fmt.Sprintf("%s.conv%d", b.n.Name, len(b.n.Layers)), b.h, b.w, b.c, kh, kw, outC, stride, pad)
	b.n.Layers = append(b.n.Layers, l)
	b.h, b.w = l.OutDims()
	b.c = outC
	return b
}

func (b *netBuilder) dwconv(kh, kw, stride, pad int) *netBuilder {
	l := NewDWConv(fmt.Sprintf("%s.dw%d", b.n.Name, len(b.n.Layers)), b.h, b.w, b.c, kh, kw, stride, pad)
	b.n.Layers = append(b.n.Layers, l)
	b.h, b.w = l.OutDims()
	return b
}

// pool models a pooling stage: it carries no MACs, so it only updates the
// tracked feature-map shape.
func (b *netBuilder) pool(stride int) *netBuilder {
	b.h /= stride
	b.w /= stride
	return b
}

// upsample models a 2x nearest-neighbour/transposed upsampling stage used
// by encoder-decoder networks; shape bookkeeping only.
func (b *netBuilder) upsample() *netBuilder {
	b.h *= 2
	b.w *= 2
	return b
}

// setChannels overrides the tracked channel count (used after feature-map
// concatenation in U-Net style skip connections).
func (b *netBuilder) setChannels(c int) *netBuilder {
	b.c = c
	return b
}

func (b *netBuilder) fc(out int) *netBuilder {
	in := b.c
	l := NewFC(fmt.Sprintf("%s.fc%d", b.n.Name, len(b.n.Layers)), in, out)
	b.n.Layers = append(b.n.Layers, l)
	b.c = out
	return b
}

// globalPool collapses the spatial dims (bookkeeping only).
func (b *netBuilder) globalPool() *netBuilder {
	b.h, b.w = 1, 1
	return b
}

func (b *netBuilder) build() Network { return b.n }

// ResNet50 returns the standard ResNet-50 topology at 224x224x3 input
// (object recognition in the AR/VR workload). All 53 convolutions and the
// final classifier are modeled; batch-norm and activations carry no MACs.
func ResNet50() Network {
	b := newBuilder("ResNet-50", 224, 224, 3)
	b.conv(7, 7, 64, 2, 3) // conv1
	b.pool(2)              // 3x3 max pool /2 -> 56x56x64

	bottleneck := func(mid, out, stride int, downsample bool) {
		inC := b.c
		inH, inW := b.h, b.w
		b.conv(1, 1, mid, 1, 0)
		b.conv(3, 3, mid, stride, 1)
		b.conv(1, 1, out, 1, 0)
		if downsample {
			// Projection shortcut runs on the block's input shape.
			l := NewConv(fmt.Sprintf("%s.proj%d", b.n.Name, len(b.n.Layers)), inH, inW, inC, 1, 1, out, stride, 0)
			b.n.Layers = append(b.n.Layers, l)
		}
	}

	// Stage 2: 3 blocks, 56x56, 64/256.
	bottleneck(64, 256, 1, true)
	bottleneck(64, 256, 1, false)
	bottleneck(64, 256, 1, false)
	// Stage 3: 4 blocks, down to 28x28, 128/512.
	bottleneck(128, 512, 2, true)
	for i := 0; i < 3; i++ {
		bottleneck(128, 512, 1, false)
	}
	// Stage 4: 6 blocks, down to 14x14, 256/1024.
	bottleneck(256, 1024, 2, true)
	for i := 0; i < 5; i++ {
		bottleneck(256, 1024, 1, false)
	}
	// Stage 5: 3 blocks, down to 7x7, 512/2048.
	bottleneck(512, 2048, 2, true)
	bottleneck(512, 2048, 1, false)
	bottleneck(512, 2048, 1, false)

	b.globalPool()
	b.fc(1000)
	return b.build()
}

// MobileNet returns the MobileNetV1 topology at 224x224x3 input (object
// detection backbone in the AR/VR workload): a stem convolution followed
// by 13 depthwise-separable blocks and a classifier.
func MobileNet() Network {
	b := newBuilder("MobileNet", 224, 224, 3)
	b.conv(3, 3, 32, 2, 1)

	sep := func(outC, stride int) {
		b.dwconv(3, 3, stride, 1)
		b.conv(1, 1, outC, 1, 0)
	}
	sep(64, 1)
	sep(128, 2)
	sep(128, 1)
	sep(256, 2)
	sep(256, 1)
	sep(512, 2)
	for i := 0; i < 5; i++ {
		sep(512, 1)
	}
	sep(1024, 2)
	sep(1024, 1)

	b.globalPool()
	b.fc(1000)
	return b.build()
}

// UNet returns the classic U-Net encoder-decoder topology at a 448x448x3
// input resolution (image segmentation for AR/VR passthrough; close to
// the original 572x572 medical-imaging resolution). Skip connections
// concatenate encoder features into the decoder, doubling the input
// channels of the first convolution at each decoder level. At ~178 GMACs
// this is the workload's heaviest network, which is what makes it
// dominate SCALE-Sim simulation time in the paper.
func UNet() Network {
	b := newBuilder("U-Net", 448, 448, 3)

	encLevel := func(c int) {
		b.conv(3, 3, c, 1, 1)
		b.conv(3, 3, c, 1, 1)
	}
	// Encoder: 64, 128, 256, 512 with 2x pooling between levels.
	encLevel(64)
	b.pool(2)
	encLevel(128)
	b.pool(2)
	encLevel(256)
	b.pool(2)
	encLevel(512)
	b.pool(2)
	// Bottleneck: 1024.
	encLevel(1024)

	decLevel := func(c int) {
		// 2x2 up-convolution halves channels, then concatenation with the
		// skip connection doubles them again before two 3x3 convolutions.
		b.upsample()
		b.conv(2, 2, c, 1, 1)
		b.setChannels(2 * c)
		b.conv(3, 3, c, 1, 1)
		b.conv(3, 3, c, 1, 1)
	}
	decLevel(512)
	decLevel(256)
	decLevel(128)
	decLevel(64)

	// Final 1x1 segmentation head (2 classes).
	b.conv(1, 1, 2, 1, 0)
	return b.build()
}

// HandposeNet returns a representative hand-pose estimation CNN at a
// 368x368x3 input: an OpenPose-style VGG-19 feature extractor followed by
// two heatmap refinement stages predicting 21 keypoint maps (~60 GMACs,
// the scale of published hand-keypoint models). The AR/VR workload of
// Kwon et al. (HPCA'21) includes such a network.
func HandposeNet() Network {
	b := newBuilder("HandposeNet", 368, 368, 3)
	// VGG-19 first ten convolutions (the OpenPose backbone cut).
	b.conv(3, 3, 64, 1, 1)
	b.conv(3, 3, 64, 1, 1)
	b.pool(2)
	b.conv(3, 3, 128, 1, 1)
	b.conv(3, 3, 128, 1, 1)
	b.pool(2)
	b.conv(3, 3, 256, 1, 1)
	b.conv(3, 3, 256, 1, 1)
	b.conv(3, 3, 256, 1, 1)
	b.conv(3, 3, 256, 1, 1)
	b.pool(2)
	b.conv(3, 3, 512, 1, 1)
	b.conv(3, 3, 512, 1, 1)
	// Feature compression then two refinement stages at 46x46.
	b.conv(3, 3, 256, 1, 1)
	b.conv(3, 3, 128, 1, 1)
	for stage := 0; stage < 2; stage++ {
		for i := 0; i < 5; i++ {
			b.conv(7, 7, 128, 1, 3)
		}
		b.conv(1, 1, 128, 1, 0)
		b.conv(1, 1, 21, 1, 0) // 21 keypoint heatmaps
		b.setChannels(128 + 21)
	}
	return b.build()
}

// DNL returns a representative dense monocular depth-estimation network
// at 448x448x3 ("DNL" in the AR/VR workload): a deep convolutional
// encoder with a disentangled non-local context block (modeled as 1x1
// projections plus the affinity and aggregation GEMMs) and a wide
// full-resolution decoder (~140 GMACs, the scale of published dense
// prediction models such as DPT).
func DNL() Network {
	b := newBuilder("DNL", 448, 448, 3)
	// VGG-style encoder at full resolution.
	b.conv(3, 3, 64, 1, 1)
	b.conv(3, 3, 64, 1, 1)
	b.pool(2) // 224
	b.conv(3, 3, 128, 1, 1)
	b.conv(3, 3, 128, 1, 1)
	b.pool(2) // 112
	b.conv(3, 3, 256, 1, 1)
	b.conv(3, 3, 256, 1, 1)
	b.conv(3, 3, 256, 1, 1)
	b.pool(2) // 56
	b.conv(3, 3, 512, 1, 1)
	b.conv(3, 3, 512, 1, 1)
	b.conv(3, 3, 512, 1, 1)
	b.pool(2) // 28
	b.conv(3, 3, 512, 1, 1)

	// Non-local (disentangled) block at 28x28x512: theta/phi/g
	// projections then pairwise affinity (HW x HW x C') and aggregation
	// GEMMs.
	hw := b.h * b.w
	cInner := b.c / 2
	b.conv(1, 1, cInner, 1, 0) // theta
	b.setChannels(512)
	b.conv(1, 1, cInner, 1, 0) // phi
	b.setChannels(512)
	b.conv(1, 1, cInner, 1, 0) // g
	b.n.Layers = append(b.n.Layers,
		NewGEMM("DNL.affinity", hw, hw, cInner),
		NewGEMM("DNL.aggregate", hw, cInner, hw),
	)
	b.setChannels(cInner)
	b.conv(1, 1, 512, 1, 0) // output projection back to 512

	// Decoder: four 2x upsampling fusion stages back to full resolution,
	// two convolutions each, then the depth head.
	dec := func(c int) {
		b.upsample()
		b.conv(3, 3, c, 1, 1)
		b.conv(3, 3, c, 1, 1)
	}
	dec(256)
	dec(128)
	dec(64)
	dec(32)
	b.conv(3, 3, 1, 1, 1) // depth map head
	return b.build()
}

// Transformer returns a 12-layer Transformer encoder (d_model=768,
// d_ff=3072, 12 heads, sequence length 512 — roughly two seconds of
// audio frames) for speech recognition, expressed as the GEMM sequence
// each layer performs at batch 1. A final projection maps to a
// 1000-token output vocabulary.
func Transformer() Network {
	const (
		layers  = 12
		seq     = 512
		dModel  = 768
		dFF     = 3072
		heads   = 12
		dHead   = dModel / heads
		vocab   = 1000
		nLayers = layers
	)
	n := Network{Name: "Transformer"}
	for l := 0; l < nLayers; l++ {
		pre := fmt.Sprintf("Transformer.l%d.", l)
		// Q, K, V projections.
		n.Layers = append(n.Layers,
			NewGEMM(pre+"q", seq, dModel, dModel),
			NewGEMM(pre+"k", seq, dModel, dModel),
			NewGEMM(pre+"v", seq, dModel, dModel),
		)
		// Attention scores and context per head.
		for h := 0; h < heads; h++ {
			n.Layers = append(n.Layers,
				NewGEMM(fmt.Sprintf("%sscore.h%d", pre, h), seq, seq, dHead),
				NewGEMM(fmt.Sprintf("%sctx.h%d", pre, h), seq, dHead, seq),
			)
		}
		// Output projection and feed-forward network.
		n.Layers = append(n.Layers,
			NewGEMM(pre+"proj", seq, dModel, dModel),
			NewGEMM(pre+"ff1", seq, dFF, dModel),
			NewGEMM(pre+"ff2", seq, dModel, dFF),
		)
	}
	n.Layers = append(n.Layers, NewGEMM("Transformer.head", seq, vocab, dModel))
	return n
}

// ARVRWorkload returns the paper's six-DNN AR/VR workload: handpose
// detection, image segmentation, object detection, object recognition,
// depth estimation, and speech recognition, each an independent subtask.
// Each call returns its own deep copy of the process-wide workload, so a
// caller may modify the result freely; callers that only read it should
// use SharedARVRWorkload instead.
func ARVRWorkload() Workload { return arvrWorkload().clone() }

// SharedARVRWorkload returns the process-wide AR/VR workload itself, not
// a copy: every caller gets the same Networks and Layers backing arrays.
// It is read-only; a caller that writes to it changes the workload of
// every job in the process.
func SharedARVRWorkload() Workload { return arvrWorkload() }

// arvrWorkload builds the AR/VR workload on first use. Building it
// formats hundreds of layer names, which dominated resolving a job spec.
var arvrWorkload = sync.OnceValue(func() Workload {
	return Workload{
		Name: "AR/VR",
		Networks: []Network{
			HandposeNet(),
			UNet(),
			MobileNet(),
			ResNet50(),
			DNL(),
			Transformer(),
		},
	}
})
