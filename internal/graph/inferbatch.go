package graph

import (
	"fmt"
	"math"

	"bitflow/internal/tensor"
)

// This file implements the batched inference path behind internal/batch:
// a Network owns a pool of "lanes" — clones sharing its read-only packed
// weights, each with a private activation-buffer chain (margins included,
// so the zero-cost-padding layout carries over unchanged) — and InferBatch
// runs a layer-major sweep across them: every image's activations for a
// layer are in place before the layer's kernels run, so the layer's packed
// filter words stream through the cache once per batch instead of once per
// image (the engine-level scheduling daBNN-style systems get their
// throughput from). Per-image arithmetic is identical to Infer, so batched
// logits are bit-identical to sequential ones.

// BatchInputError reports which item of a batch failed validation. The
// forward pass does not run when InferBatch returns one; callers doing
// per-request validation (internal/batch) check items individually before
// ever assembling a batch, so a single bad input fails alone.
type BatchInputError struct {
	Index int
	Err   error
}

func (e *BatchInputError) Error() string {
	return fmt.Sprintf("graph: batch item %d: %v", e.Index, e.Err)
}

func (e *BatchInputError) Unwrap() error { return e.Err }

// CheckInputFinite is CheckInput plus a NaN/Inf scan — the validation the
// batched path applies per item, so one malformed tensor can be rejected
// on its own without touching the rest of a batch.
func (n *Network) CheckInputFinite(x *tensor.Tensor) error {
	if err := n.CheckInput(x); err != nil {
		return err
	}
	for i, v := range x.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("graph: input value %d is not finite", i)
		}
	}
	return nil
}

// EnsureBatch grows the network's lane pool to serve batches of up to b
// images without further allocation. Lane 0 is the network itself; extra
// lanes are clones sharing the packed weights. The pool only ever grows —
// a batcher sizes it once to its max-batch at startup, the "grown once"
// buffer scheme of the batched path.
func (n *Network) EnsureBatch(b int) {
	if len(n.lanes) >= b {
		return
	}
	for len(n.lanes) < b {
		n.lanes = append(n.lanes, n.Clone())
	}
	n.wire()
}

// wire points every layer's lane slices at the current lane pool, so the
// sweep hands the operators pre-collected buffers and allocates nothing
// per pass. Build wires the single lane of serial inference.
func (n *Network) wire() {
	lanes := make([]layer, len(n.lanes))
	for li, l := range n.layers {
		for b, lane := range n.lanes {
			lanes[b] = lane.layers[li]
		}
		l.wire(lanes)
	}
}

// MaxBatch reports the current lane-pool capacity (1 until the first
// EnsureBatch or InferBatch call grows it).
func (n *Network) MaxBatch() int { return len(n.lanes) }

// InferBatch runs one forward pass over all of xs and returns one logits
// slice per input, with InferBatch(xs)[i] bit-identical to Infer(xs[i]).
// Inputs are validated up front: a nil, misshapen, or malformed tensor
// fails the call with a *BatchInputError naming the offending index and
// no forward pass runs. The pass runs under the attached execution
// context, observer included. Like Infer, InferBatch is not safe for
// concurrent use on the same Network.
func (n *Network) InferBatch(xs []*tensor.Tensor) ([][]float32, error) {
	B := len(xs)
	if B == 0 {
		return nil, fmt.Errorf("graph: empty batch")
	}
	for i, x := range xs {
		if err := n.CheckInputFinite(x); err != nil {
			//bitflow:alloc-ok validation failure path; no forward pass runs
			return nil, &BatchInputError{Index: i, Err: err}
		}
	}
	n.EnsureBatch(B)
	if err := n.sweep(xs, n.execCtx()); err != nil {
		return nil, err
	}
	//bitflow:alloc-ok result slices escape to the caller; lane buffers are reused by the next batch
	outs := make([][]float32, B)
	for b, lane := range n.lanes[:B] {
		//bitflow:alloc-ok result slices escape to the caller
		outs[b] = make([]float32, len(lane.output))
		copy(outs[b], lane.output)
	}
	return outs, nil
}
