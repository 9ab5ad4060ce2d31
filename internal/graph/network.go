package graph

import (
	"context"
	"fmt"
	"time"

	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/exec"
	"bitflow/internal/faultinject"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// layer is one executable node of the static graph. Buffers are wired at
// build time; forward only computes.
type layer interface {
	name() string
	kind() string
	outDims() string
	// forward runs the layer over the first B lanes of its wiring — the
	// single per-kind dispatch of serial (B = 1) and batched inference.
	forward(B int, ec *exec.Ctx)
	// wire points the layer's lane slices at the same layer of every
	// lane; lanes[0] is the layer itself.
	wire(lanes []layer)
	// weightStats returns (scalar weight count, bytes of weight storage
	// actually held — packed bits for binary layers, float32 for the
	// mixed-precision first layer); zero for weightless layers.
	weightStats() (int64, int64)
	// parallelUnits is the layer's multi-core work-unit count (fused
	// OutH·OutW for conv/pool, K for dense) — the granularity the
	// paper's thread split works at, used by scaling models.
	parallelUnits() int
}

// Network is a compiled binary neural network: operators with pre-packed
// weights plus a pre-allocated buffer chain. Infer is not safe for
// concurrent use on the same Network (buffers are shared state); clone
// the network per goroutine instead.
type Network struct {
	Name          string
	InH, InW, InC int
	Classes       int
	Feat          sched.Features

	// ec is the attached execution context (SetExec); nil runs serially.
	ec *exec.Ctx

	layers []layer
	input  *bitpack.Packed
	// inputFloat replaces input when the first layer is a FloatConv
	// (mixed precision): the network then consumes raw floats.
	inputFloat *tensor.Tensor
	output     []float32
	// arch records the builder specs the network was compiled from, so
	// Save can serialize the architecture alongside the packed weights.
	arch []spec

	activationWords int64 // pre-allocated packed activation words

	// fusion records what the conv→pool fusion planning pass collapsed
	// (see fuse.go); unfused marks a network built with the planner
	// disabled (Builder.DisableFusion / CloneUnfused), so clones inherit
	// the same data-flow plan.
	fusion  FusionStats
	unfused bool

	// uncompressed marks a network built with the kernel-compression
	// planner disabled (Builder.DisableCompression / CloneUncompressed);
	// see press.go.
	uncompressed bool

	// lanes is the buffer pool of the layer sweep (see inferbatch.go):
	// lane 0 is the network itself, the rest are clones sharing the
	// packed weights. Built with one lane, grown by EnsureBatch, never
	// shrunk; every layer's lane slices are wired to it.
	lanes []*Network
}

// LayerInfo describes one layer for reporting.
type LayerInfo struct {
	Name    string
	Kind    string
	OutDims string
}

// Layers lists the network's layers in execution order.
func (n *Network) Layers() []LayerInfo {
	out := make([]LayerInfo, len(n.layers))
	for i, l := range n.layers {
		out[i] = LayerInfo{Name: l.name(), Kind: l.kind(), OutDims: l.outDims()}
	}
	return out
}

// Infer runs one forward pass on x (shape must match InH×InW×InC) and
// returns the Classes logits. The returned slice is freshly allocated.
// Infer panics on a shape mismatch; servers handling untrusted input
// should call InferChecked instead.
func (n *Network) Infer(x *tensor.Tensor) []float32 {
	out, err := n.InferChecked(x)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// CheckInput validates that x matches the network's compiled input shape,
// returning a descriptive error on mismatch. It never panics.
func (n *Network) CheckInput(x *tensor.Tensor) error {
	if x == nil {
		return fmt.Errorf("graph: nil input, network expects %dx%dx%d", n.InH, n.InW, n.InC)
	}
	if x.H != n.InH || x.W != n.InW || x.C != n.InC {
		return fmt.Errorf("graph: input %v, network expects %dx%dx%d", x, n.InH, n.InW, n.InC)
	}
	if len(x.Data) != x.H*x.W*x.C {
		return fmt.Errorf("graph: input data length %d, shape %v wants %d",
			len(x.Data), x, x.H*x.W*x.C)
	}
	return nil
}

// SetExec attaches a prepared execution context: dispatch pool, thread
// budget, and optional per-layer observer. Servers build one base context
// for the whole process and attach it to every replica, so the process
// shares a single worker pool no matter how many replicas run. Passing
// nil detaches, falling back to serial execution.
func (n *Network) SetExec(ec *exec.Ctx) { n.ec = ec }

// Exec returns the attached execution context, or nil when none is
// attached and passes run serially.
func (n *Network) Exec() *exec.Ctx { return n.ec }

// serial is the context of a network with nothing attached, built once
// so a pass does not allocate one.
var serial = exec.Serial()

// execCtx resolves the context a forward pass runs under: the attached
// one, else serial.
func (n *Network) execCtx() *exec.Ctx {
	if n.ec != nil {
		return n.ec
	}
	return serial
}

// InferChecked is Infer with the shape panic converted into a returned
// error, so untrusted user input can never reach a panic path. A non-nil
// error means no forward pass ran.
func (n *Network) InferChecked(x *tensor.Tensor) ([]float32, error) {
	return n.InferContext(context.Background(), x)
}

// InferContext is InferChecked under a cancellation context: the pass
// checks ctx between layers and stops within one layer's latency of
// cancellation, returning ctx's error. An abandoned pass leaves the
// activation buffers in a consistent state — every layer rewrites its
// output in full — so the network is immediately reusable and the next
// Infer is bit-identical to an uninterrupted one. If an observer is
// attached (exec.Ctx.WithObserver), it receives one timing per layer.
//
// A non-nil ctx replaces any context carried by the attached execution
// context for this pass; a nil ctx leaves the attached one in force.
func (n *Network) InferContext(ctx context.Context, x *tensor.Tensor) ([]float32, error) {
	if err := n.CheckInput(x); err != nil {
		return nil, err
	}
	ec := n.execCtx()
	if ctx != nil {
		ec = ec.WithContext(ctx)
	}
	xs := [1]*tensor.Tensor{x}
	if err := n.sweep(xs[:], ec); err != nil {
		return nil, err
	}
	//bitflow:alloc-ok result slice escapes to the caller; returning a view of n.output would race with the next inference
	out := make([]float32, len(n.output))
	copy(out, n.output)
	return out, nil
}

// sweep is the one forward driver: it feeds xs into the first B =
// len(xs) lanes, then runs every layer once across them, checking
// cancellation and the graph.layer fault point before each layer and
// reporting the input pack and every layer to the observer, if one is
// attached. Serial inference is the B = 1 sweep over the network's own
// buffers.
func (n *Network) sweep(xs []*tensor.Tensor, ec *exec.Ctx) error {
	if err := ec.Err(); err != nil {
		return err
	}
	obs := ec.Observer()
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	for b, x := range xs {
		n.lanes[b].feedInput(x)
	}
	if obs != nil {
		obs("input", "pack", time.Since(t0))
	}
	for i, l := range n.layers {
		if err := ec.Err(); err != nil {
			return err
		}
		if err := faultinject.GraphLayer.Fire(ec.Context(), l.name(), i); err != nil {
			return err
		}
		if obs != nil {
			t0 = time.Now()
		}
		l.forward(len(xs), ec)
		if obs != nil {
			obs(l.name(), l.kind(), time.Since(t0))
		}
	}
	return nil
}

// LayerTiming records one layer's wall-clock contribution to a timed pass.
type LayerTiming struct {
	Name     string
	Kind     string
	Duration time.Duration
	// Units is the layer's parallel work-unit count (0 for the serial
	// input-pack stage).
	Units int
}

// InferTimed runs one forward pass and reports per-layer wall-clock times
// (the input binarize+pack is reported as layer "input").
func (n *Network) InferTimed(x *tensor.Tensor) ([]float32, []LayerTiming) {
	//bitflow:alloc-ok InferTimed is a diagnostic entry point, not the serving path; the timings report escapes
	timings := make([]LayerTiming, 0, len(n.layers)+1)
	// The sweep reports "input" first, then the layers in order, so the
	// i-th observation past the input is layer i-1.
	obs := func(name, kind string, d time.Duration) {
		t := LayerTiming{Name: name, Kind: kind, Duration: d}
		if i := len(timings); i > 0 {
			t.Units = n.layers[i-1].parallelUnits()
		}
		//bitflow:alloc-ok diagnostic path, capacity reserved above
		timings = append(timings, t)
	}
	xs := [1]*tensor.Tensor{x}
	if err := n.sweep(xs[:], n.execCtx().WithContext(nil).WithObserver(obs)); err != nil {
		panic(err.Error())
	}
	//bitflow:alloc-ok result slice escapes to the caller
	out := make([]float32, len(n.output))
	copy(out, n.output)
	return out, timings
}

func (n *Network) feedInput(x *tensor.Tensor) {
	if x.H != n.InH || x.W != n.InW || x.C != n.InC {
		panic(fmt.Sprintf("graph: input %v, network expects %dx%dx%d", x, n.InH, n.InW, n.InC))
	}
	if n.inputFloat != nil {
		copy(n.inputFloat.Data, x.Data)
		return
	}
	bitpack.PackTensorInto(x, n.input)
}

// ModelSize reports the storage cost of the network's weights.
type ModelSize struct {
	// Weights is the number of scalar weights.
	Weights int64
	// FullPrecisionBytes is Weights × 4 (float32 storage).
	FullPrecisionBytes int64
	// BinarizedBytes is the weight storage actually held: bit-packed
	// words for binary layers plus float32 bytes for any mixed-precision
	// float layer.
	BinarizedBytes int64
}

// Compression returns the full-precision/binarized storage ratio
// (≈32× for weight-dominated networks — paper Table V).
func (m ModelSize) Compression() float64 {
	if m.BinarizedBytes == 0 {
		return 0
	}
	return float64(m.FullPrecisionBytes) / float64(m.BinarizedBytes)
}

// ModelSize sums weight storage over all layers.
func (n *Network) ModelSize() ModelSize {
	var s ModelSize
	for _, l := range n.layers {
		w, stored := l.weightStats()
		s.Weights += w
		s.FullPrecisionBytes += w * 4
		s.BinarizedBytes += stored
	}
	return s
}

// ActivationBytes reports the pre-allocated packed activation storage —
// the memory the static-graph analysis reserved up front.
func (n *Network) ActivationBytes() int64 { return n.activationWords * 8 }

// ---------------------------------------------------------------------
// Concrete layers.

type convLayer struct {
	lname   string
	op      *core.Conv
	in, out *bitpack.Packed
	// ins and outs are in and out across the network's lanes (see wire).
	ins, outs []*bitpack.Packed
	// press is the compression plan this network's forward runs with
	// (see press.go), nil for the streaming kernels. It is per layer, not
	// per operator: clones sharing op can run either path.
	press *kernels.CompressPlan
}

func (l *convLayer) name() string { return l.lname }
func (l *convLayer) kind() string { return "conv" }
func (l *convLayer) outDims() string {
	s := l.op.Shape
	return fmt.Sprintf("%dx%dx%d", s.OutH, s.OutW, s.OutC)
}
func (l *convLayer) forward(B int, ec *exec.Ctx) {
	l.op.ForwardFused(l.ins[:B], nil, l.press, l.outs[:B], ec)
}
func (l *convLayer) wire(lanes []layer) {
	l.ins, l.outs = l.ins[:0], l.outs[:0]
	for _, ln := range lanes {
		c := ln.(*convLayer)
		l.ins, l.outs = append(l.ins, c.in), append(l.outs, c.out)
	}
}
func (l *convLayer) parallelUnits() int { return l.op.Shape.OutH * l.op.Shape.OutW }
func (l *convLayer) weightStats() (int64, int64) {
	s := l.op.Shape
	return int64(s.K) * int64(s.KH) * int64(s.KW) * int64(s.InC), 8 * int64(len(l.op.Filter().Words))
}

// floatConvLayer is the mixed-precision stem: float-bound, so it runs
// image by image.
type floatConvLayer struct {
	lname string
	op    *core.FloatConv
	in    *tensor.Tensor // owned copy of the network's float input
	out   *bitpack.Packed
	ins   []*tensor.Tensor
	outs  []*bitpack.Packed
}

func (l *floatConvLayer) name() string { return l.lname }
func (l *floatConvLayer) kind() string { return "floatconv" }
func (l *floatConvLayer) outDims() string {
	s := l.op.Shape
	return fmt.Sprintf("%dx%dx%d", s.OutH, s.OutW, s.OutC)
}
func (l *floatConvLayer) forward(B int, ec *exec.Ctx) {
	for b := 0; b < B; b++ {
		l.op.Forward(l.ins[b], l.outs[b], ec)
	}
}
func (l *floatConvLayer) wire(lanes []layer) {
	l.ins, l.outs = l.ins[:0], l.outs[:0]
	for _, ln := range lanes {
		c := ln.(*floatConvLayer)
		l.ins, l.outs = append(l.ins, c.in), append(l.outs, c.out)
	}
}
func (l *floatConvLayer) parallelUnits() int { return l.op.Shape.OutH * l.op.Shape.OutW }
func (l *floatConvLayer) weightStats() (int64, int64) {
	s := l.op.Shape
	w := int64(s.K) * int64(s.KH) * int64(s.KW) * int64(s.InC)
	return w, 4 * w // kept in float32
}

// poolLayer is a max-pool left unfused: weightless, so it runs image by
// image.
type poolLayer struct {
	lname     string
	op        *core.Pool
	in, out   *bitpack.Packed
	ins, outs []*bitpack.Packed
}

func (l *poolLayer) name() string { return l.lname }
func (l *poolLayer) kind() string { return "pool" }
func (l *poolLayer) outDims() string {
	s := l.op.Shape
	return fmt.Sprintf("%dx%dx%d", s.OutH, s.OutW, s.OutC)
}
func (l *poolLayer) forward(B int, ec *exec.Ctx) {
	for b := 0; b < B; b++ {
		l.op.Forward(l.ins[b], l.outs[b], ec)
	}
}
func (l *poolLayer) wire(lanes []layer) {
	l.ins, l.outs = l.ins[:0], l.outs[:0]
	for _, ln := range lanes {
		c := ln.(*poolLayer)
		l.ins, l.outs = append(l.ins, c.in), append(l.outs, c.out)
	}
}
func (l *poolLayer) weightStats() (int64, int64) { return 0, 0 }
func (l *poolLayer) parallelUnits() int          { return l.op.Shape.OutH * l.op.Shape.OutW }

type denseLayer struct {
	lname string
	op    *core.Dense
	in    []uint64

	// Exactly one of packedOut / floatOut is set: hidden dense layers
	// fuse the sign activation and write bits; the final classifier
	// emits float logits.
	packedOut []uint64
	floatOut  []float32

	// ins, packedOuts and floatOuts are the buffers above across the
	// network's lanes (see wire); scratch is sized to the lane count
	// when wired, per network — the shared operator carries no mutable
	// state.
	ins, packedOuts [][]uint64
	floatOuts       [][]float32
	scratch         core.DenseScratch

	// press is the compression plan this network's forward runs with
	// (see press.go), nil for the streaming kernels.
	press *kernels.CompressPlan
}

func (l *denseLayer) name() string    { return l.lname }
func (l *denseLayer) kind() string    { return "fc" }
func (l *denseLayer) outDims() string { return fmt.Sprintf("%d", l.op.Shape.K) }
func (l *denseLayer) forward(B int, ec *exec.Ctx) {
	if l.floatOut != nil {
		l.op.ForwardFloat(l.ins[:B], l.floatOuts[:B], l.press, &l.scratch, ec)
		return
	}
	l.op.ForwardPacked(l.ins[:B], l.packedOuts[:B], l.press, &l.scratch, ec)
}
func (l *denseLayer) wire(lanes []layer) {
	l.ins, l.packedOuts, l.floatOuts = l.ins[:0], l.packedOuts[:0], l.floatOuts[:0]
	for _, ln := range lanes {
		c := ln.(*denseLayer)
		l.ins = append(l.ins, c.in)
		l.packedOuts = append(l.packedOuts, c.packedOut)
		l.floatOuts = append(l.floatOuts, c.floatOut)
	}
	l.scratch.Ensure(l.op, len(lanes))
}
func (l *denseLayer) weightStats() (int64, int64) {
	s := l.op.Shape
	return int64(s.N) * int64(s.K), 8 * int64(len(l.op.Weights().Words))
}
func (l *denseLayer) parallelUnits() int { return l.op.Shape.K }
