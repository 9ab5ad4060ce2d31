package graph

import (
	"fmt"

	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
)

// Fusion planning (Vorabbi et al., "Optimizing data-flow in Binary
// Neural Networks"): once conv → batchnorm-threshold → binarize runs as
// one packed-bit epilogue, the remaining boundary crossing on a
// conv→pool edge is the intermediate packed plane the conv writes and
// the pool immediately re-reads. The planner below collapses every
// eligible convLayer→poolLayer pair into one fusedConvPoolLayer whose
// forward runs core.Conv.ForwardFused — threshold bits OR straight into
// the pool's output buffer and the intermediate plane is dropped from
// the activation chain entirely.
//
// The pass is pure runtime planning: it runs at build *and* load time
// off the architecture specs, the serialized format carries no fusion
// metadata, and Save/readActivations treat a fused node exactly as its
// conv (the pool holds no weights or activation records). Pre-fusion
// artifacts therefore load fused with bit-identical logits, and the
// layer list — names, order, count — is a deterministic function of the
// architecture, so dashboards keyed on layer names see no discontinuity
// across a hot reload from an artifact saved unfused.

// FusionStats summarizes what the planning pass collapsed.
type FusionStats struct {
	// Pairs is the number of conv→pool pairs fused into one node.
	Pairs int
	// EliminatedWords counts the packed intermediate-plane words removed
	// from the pre-allocated activation chain (8 bytes each).
	EliminatedWords int64
}

// Fusion reports the network's fusion planning outcome.
func (n *Network) Fusion() FusionStats { return n.fusion }

// Fused reports whether the fusion planning pass ran (regardless of
// whether it found eligible pairs).
func (n *Network) Fused() bool { return !n.unfused }

// fusedConvPoolLayer executes an eligible conv→pool pair as one fused
// node: conv epilogue bits OR directly into the pooled output.
type fusedConvPoolLayer struct {
	// lname joins the pair as "conv+pool", computed once at fusion so a
	// pass does not build it per layer.
	convName, lname string
	conv            *core.Conv
	pool            *core.Pool
	in              *bitpack.Packed // the conv's input edge
	out             *bitpack.Packed // the pool's output edge
	// ins and outs are in and out across the network's lanes (see wire).
	ins, outs []*bitpack.Packed
	// press is the compression plan the forward runs with (see
	// press.go), nil for the streaming kernels.
	press *kernels.CompressPlan
}

// name is the pair's stable "conv+pool" identity, so per-layer stats
// (/statusz, exec observers) stay continuous across reloads.
func (l *fusedConvPoolLayer) name() string { return l.lname }
func (l *fusedConvPoolLayer) kind() string { return "conv+pool" }
func (l *fusedConvPoolLayer) outDims() string {
	s := l.pool.Shape
	return fmt.Sprintf("%dx%dx%d", s.OutH, s.OutW, s.OutC)
}
func (l *fusedConvPoolLayer) forward(B int, ec *exec.Ctx) {
	l.conv.ForwardFused(l.ins[:B], l.pool, l.press, l.outs[:B], ec)
}
func (l *fusedConvPoolLayer) wire(lanes []layer) {
	l.ins, l.outs = l.ins[:0], l.outs[:0]
	for _, ln := range lanes {
		c := ln.(*fusedConvPoolLayer)
		l.ins, l.outs = append(l.ins, c.in), append(l.outs, c.out)
	}
}
func (l *fusedConvPoolLayer) parallelUnits() int {
	return l.pool.Shape.OutH * l.pool.Shape.OutW
}
func (l *fusedConvPoolLayer) weightStats() (int64, int64) {
	s := l.conv.Shape
	return int64(s.K) * int64(s.KH) * int64(s.KW) * int64(s.InC), 8 * int64(len(l.conv.Filter().Words))
}

// fuse is the planning pass: collapse adjacent convLayer→poolLayer pairs
// whose buffers chain directly and whose geometry core.Conv.CanFusePool
// accepts (non-overlapping windows over exactly the conv's output).
// Non-matching layers — the float input stem, overlapping pools, dense
// heads — keep their existing nodes untouched.
func (n *Network) fuse() {
	fused := make([]layer, 0, len(n.layers))
	for i := 0; i < len(n.layers); i++ {
		if cl, ok := n.layers[i].(*convLayer); ok && i+1 < len(n.layers) {
			if pl, ok := n.layers[i+1].(*poolLayer); ok &&
				cl.out == pl.in && cl.op.CanFusePool(pl.op.Shape) {
				fused = append(fused, &fusedConvPoolLayer{
					convName: cl.lname, lname: cl.lname + "+" + pl.lname,
					conv: cl.op, pool: pl.op,
					in: cl.in, out: pl.out,
				})
				eliminated := int64(len(cl.out.Words))
				n.activationWords -= eliminated
				n.fusion.Pairs++
				n.fusion.EliminatedWords += eliminated
				i++ // the pool is consumed by the fused node
				continue
			}
		}
		fused = append(fused, n.layers[i])
	}
	n.layers = fused
}

// PoolInputBytes reports the size of the packed plane feeding the named
// pool layer, or 0 when no separate pool node carries that name. On an
// unfused network this is exactly the intermediate buffer fusion would
// eliminate, which is what bitflow-bench's fusion report charges as
// per-pass plane traffic.
func (n *Network) PoolInputBytes(name string) int64 {
	for _, l := range n.layers {
		if pl, ok := l.(*poolLayer); ok && pl.lname == name {
			return int64(len(pl.in.Words)) * 8
		}
	}
	return 0
}

// CloneUnfused is Clone with the fusion planner disabled: an independent
// buffer chain over the *same* packed weights, executing the original
// layer-per-node data-flow. It exists for the fused-vs-unfused
// equivalence harness (tests, conformance oracle, bitflow-bench ops) —
// production paths always take the fused plan.
func (n *Network) CloneUnfused() *Network {
	b := &Builder{name: n.Name, feat: n.Feat, inH: n.InH, inW: n.InW, inC: n.InC,
		specs: n.arch, noFuse: true, noPress: n.uncompressed}
	clone, err := b.buildFrom(&reuseSource{layers: n.layers})
	if err != nil {
		panic(fmt.Sprintf("graph: CloneUnfused of a compiled network failed: %v", err))
	}
	clone.ec = n.ec
	return clone
}
