package graph

import (
	"fmt"

	"bitflow/internal/kernels"
)

// Kernel-compression planning (Silfa & Arnau, "Exploiting Kernel
// Compression on BNNs"): packed binary weight banks repeat 64-bit words
// across output channels, and operators whose duplication ratio clears
// kernels.CompressMinRatio carry a CompressPlan compiled at
// construction (see core.NewConvPacked / core.NewDensePacked). The pass
// below is the graph half: it hands each layer the plan its forward
// accumulates through, or nil to stream the packed weights. The plan
// pointer lives on the layer — not the operator — so lanes and clones
// sharing the read-only operators can run either path, which is what the
// differential harness (CloneUncompressed) compares against.
//
// Like fusion, compression is pure runtime planning: it runs at build
// *and* load time off the packed weights, the serialized format carries
// no plan metadata, and save→load keeps artifacts byte-identical. The
// compressed accumulators sum the same integer popcounts as the
// uncompressed kernels and finish through the same epilogue, so logits
// are bit-identical either way.

// LayerCompression reports one layer's duplication analysis and whether
// this network's forward runs it compressed.
type LayerCompression struct {
	// Layer and Kind identify the node ("conv3.1", "conv", …). Fused
	// conv+pool nodes report under their joined name.
	Layer string
	Kind  string
	// Channels × Positions is the packed bank geometry; DistinctWords of
	// the TotalWords survive deduplication.
	Channels, Positions       int
	TotalWords, DistinctWords int
	// Ratio is TotalWords/DistinctWords; Selected reports whether the
	// forward pass takes the compressed path (ratio cleared the
	// threshold and planning was not disabled).
	Ratio    float64
	Selected bool
}

// Compression reports the per-layer kernel-compression analysis of every
// weighted binary layer (the mixed-precision float stem has no packed
// bank and is omitted).
func (n *Network) Compression() []LayerCompression {
	out := make([]LayerCompression, 0, len(n.layers))
	for _, l := range n.layers {
		var st kernels.CompressStats
		var selected bool
		switch t := l.(type) {
		case *convLayer:
			st, selected = t.op.CompressionStats(), t.press != nil
		case *fusedConvPoolLayer:
			st, selected = t.conv.CompressionStats(), t.press != nil
		case *denseLayer:
			st, selected = t.op.CompressionStats(), t.press != nil
		default:
			continue
		}
		out = append(out, LayerCompression{
			Layer: l.name(), Kind: l.kind(),
			Channels: st.Channels, Positions: st.Positions,
			TotalWords: st.TotalWords, DistinctWords: st.DistinctWords,
			Ratio: st.Ratio(), Selected: selected,
		})
	}
	return out
}

// CompressedLayers counts the layers whose forward runs the compressed
// path — the headline number bitflow-info and /model report.
func (n *Network) CompressedLayers() int {
	c := 0
	for _, lc := range n.Compression() {
		if lc.Selected {
			c++
		}
	}
	return c
}

// Compressed reports whether the compression planning pass ran
// (regardless of whether any layer cleared the threshold).
func (n *Network) Compressed() bool { return !n.uncompressed }

// press is the planning pass: every layer whose shared operator carries
// a compression plan runs with it. Runs at build and load time (and
// inside Clone, so lanes inherit the parent's selection).
func (n *Network) press() {
	for _, l := range n.layers {
		switch t := l.(type) {
		case *convLayer:
			t.press = t.op.Compression()
		case *fusedConvPoolLayer:
			t.press = t.conv.Compression()
		case *denseLayer:
			t.press = t.op.Compression()
		}
	}
}

// RefreshCompression re-runs the selection pass, picking up plans forced
// or cleared on the shared operators via SetCompression after the
// network was built — a hook for the differential tests and benchmarks.
// On an uncompressed network (DisableCompression / CloneUncompressed)
// it is a no-op.
func (n *Network) RefreshCompression() {
	if n.uncompressed {
		return
	}
	n.press()
}

// DisableCompression turns off the kernel-compression planning pass:
// every layer keeps the streaming uncompressed kernels. Compression
// never changes logits — this exists for the compressed-vs-uncompressed
// differential harness and apples-to-apples benchmarking, not as a
// production knob.
func (b *Builder) DisableCompression() *Builder {
	b.noPress = true
	return b
}

// CloneUncompressed is Clone with the compression planner disabled: an
// independent buffer chain over the *same* packed weights, running the
// uncompressed kernels everywhere. It inherits the fusion plan, so a
// fused network compares fused-compressed against fused-uncompressed —
// one variable at a time.
func (n *Network) CloneUncompressed() *Network {
	b := &Builder{name: n.Name, feat: n.Feat, inH: n.InH, inW: n.InW, inC: n.InC,
		specs: n.arch, noFuse: n.unfused, noPress: true}
	clone, err := b.buildFrom(&reuseSource{layers: n.layers})
	if err != nil {
		panic(fmt.Sprintf("graph: CloneUncompressed of a compiled network failed: %v", err))
	}
	clone.ec = n.ec
	return clone
}
