package core

import (
	"fmt"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// Dense is the binary fully connected operator: a binary matrix-matrix
// multiplication with M = 1 (paper §III-C). Vector parallelism runs over
// the N dimension (inside the XOR+popcount kernel), multi-core
// parallelism over the K dimension.
type Dense struct {
	Shape sched.FCShape
	Plan  sched.Plan // selected over N

	weights *bitpack.PackedMatrix // K rows × Plan.Words, fused transform
	// act is the folded activation of the packed path; nil = plain sign.
	act *Thresholds
	// epi is act pre-compiled into the branchless fused epilogue
	// ForwardPacked runs; rebuilt by SetThresholds, never per inference.
	epi *kernels.Epilogue
	// affine post-processes the float path (ForwardFloat); nil = raw
	// inner products.
	affine *Affine
	// press is the kernel-compression plan compiled from the packed
	// weight matrix at construction when its duplication ratio clears
	// kernels.CompressMinRatio (nil otherwise); pressStats always holds
	// the measured analysis. Pure runtime state, never serialized.
	press      *kernels.CompressPlan
	pressStats kernels.CompressStats
}

// SetThresholds installs a folded activation (batch-norm or bias) for
// ForwardPacked. Pass nil to restore the plain sign.
func (d *Dense) SetThresholds(th *Thresholds) error {
	if th != nil {
		if err := th.validate(d.Shape.K); err != nil {
			return err
		}
	}
	d.act = th
	d.epi = th.Epilogue(d.Shape.K)
	return nil
}

// SetAffine installs a float affine (batch-norm or bias) applied by
// ForwardFloat — the classifier-layer counterpart of SetThresholds.
func (d *Dense) SetAffine(a *Affine) error {
	if a != nil {
		if err := a.validate(d.Shape.K); err != nil {
			return err
		}
	}
	d.affine = a
	return nil
}

// NewDense builds a binary dense operator from the float weight matrix w
// (N×K). Binarization, bit-packing and transposition of w are fused into
// a single pass (paper Table III) and happen once, here.
func NewDense(shape sched.FCShape, plan sched.Plan, w *tensor.Matrix) (*Dense, error) {
	if w.Rows != shape.N || w.Cols != shape.K {
		return nil, fmt.Errorf("core: dense weights %v, want %dx%d", w, shape.N, shape.K)
	}
	if plan.C != shape.N {
		return nil, fmt.Errorf("core: plan built for C=%d, dense has N=%d", plan.C, shape.N)
	}
	return NewDensePacked(shape, plan, bitpack.PackMatrixBT(w, plan.Words))
}

// NewDensePacked builds a binary dense operator from an already-packed
// (transposed) weight matrix, e.g. one deserialized from a model file.
func NewDensePacked(shape sched.FCShape, plan sched.Plan, pm *bitpack.PackedMatrix) (*Dense, error) {
	if pm.K != shape.K || pm.N != shape.N {
		return nil, fmt.Errorf("core: packed dense weights %v, want K=%d N=%d", pm, shape.K, shape.N)
	}
	if plan.C != shape.N {
		return nil, fmt.Errorf("core: plan built for C=%d, dense has N=%d", plan.C, shape.N)
	}
	if pm.WPR != plan.Words {
		return nil, fmt.Errorf("core: packed dense wpr=%d, plan wants %d", pm.WPR, plan.Words)
	}
	d := &Dense{Shape: shape, Plan: plan, weights: pm, epi: kernels.NewSignEpilogue(shape.K)}
	d.pressStats = kernels.AnalyzeCompression(pm.Words, shape.K, pm.WPR)
	if d.pressStats.Selectable() {
		d.press = kernels.BuildCompressPlan(pm.Words, shape.K, pm.WPR)
	}
	return d, nil
}

// Weights exposes the packed weight matrix (read-only use).
func (d *Dense) Weights() *bitpack.PackedMatrix { return d.weights }

// Activation returns the folded activation, or nil for the plain sign.
func (d *Dense) Activation() *Thresholds { return d.act }

// OutAffine returns the float-path affine, or nil for raw products.
func (d *Dense) OutAffine() *Affine { return d.affine }

// NewInput allocates a packed activation row for this operator.
func (d *Dense) NewInput() []uint64 { return make([]uint64, d.Plan.Words) }

// DenseScratch is the caller-owned staging the dense forwards share:
// the B×Words activation block bgemm reads when B > 1 (a single image
// is read in place) and the B×K int32 products every sink reads. It
// only ever grows: size it once to the max batch with Ensure and the
// forwards allocate nothing afterwards.
type DenseScratch struct {
	a    []uint64
	prod []int32
}

// Ensure grows the scratch to serve batches of up to B images of d.
func (s *DenseScratch) Ensure(d *Dense, B int) {
	if need := B * d.Plan.Words; B > 1 && cap(s.a) < need {
		s.a = make([]uint64, need)
	}
	if need := B * d.Shape.K; cap(s.prod) < need {
		s.prod = make([]int32, need)
	}
}

// accumulate is the shared accumulate of the dense forwards: the K inner
// products of each of the B = len(ins) packed activation rows (Plan.Words
// words, N valid bits), computed by one bgemm with M = B so every packed
// weight row streams through the cache once per batch. cp nil streams
// the packed weights; a plan pays one XOR+popcount per distinct weight
// word. It returns the B×K products, image-major, held in s. ec splits
// the K dimension.
func (d *Dense) accumulate(ins [][]uint64, nOut int, cp *kernels.CompressPlan, s *DenseScratch, ec *exec.Ctx) []int32 {
	B := len(ins)
	if B == 0 || nOut != B {
		panic(fmt.Sprintf("core: dense batch %d inputs, %d outputs", B, nOut))
	}
	W, K := d.Plan.Words, d.Shape.K
	for b, in := range ins {
		if len(in) != W {
			panic(fmt.Sprintf("core: dense input %d has %d words, want %d", b, len(in), W))
		}
	}
	if cp != nil && (cp.K != K || cp.S != W) {
		panic(fmt.Sprintf("core: compression plan %dx%d does not match dense bank %dx%d", cp.K, cp.S, K, W))
	}
	s.Ensure(d, B) //bitflow:alloc-ok grow-only, a no-op once sized; graph sizes it when it wires the lanes
	a := ins[0]
	if B > 1 {
		a = s.a[:B*W]
		for b, in := range ins {
			copy(a[b*W:(b+1)*W], in)
		}
	}
	prod := s.prod[:B*K]
	if cp != nil {
		kernels.BGemmCompressedExec(a, B, cp, W, d.Shape.N, prod, ec)
	} else {
		kernels.BGemmExec(a, B, d.weights.Words, K, W, d.Shape.N, prod, kernels.BGemmOpts{Kernel: d.Plan.Kernel}, ec)
	}
	return prod
}

// Forward computes the K inner products of each packed activation row
// ins[b] into outs[b] (len K). cp, s and ec are as for accumulate.
func (d *Dense) Forward(ins [][]uint64, outs [][]int32, cp *kernels.CompressPlan, s *DenseScratch, ec *exec.Ctx) {
	prod := d.accumulate(ins, len(outs), cp, s, ec)
	K := d.Shape.K
	for b, out := range outs {
		if len(out) != K {
			panic(fmt.Sprintf("core: dense output %d has len %d, want K=%d", b, len(out), K))
		}
		copy(out, prod[b*K:(b+1)*K])
	}
}

// ForwardFloat is Forward plus a float conversion and the optional
// affine (batch-norm/bias) post-processing — the final classifier path.
func (d *Dense) ForwardFloat(ins [][]uint64, outs [][]float32, cp *kernels.CompressPlan, s *DenseScratch, ec *exec.Ctx) {
	prod := d.accumulate(ins, len(outs), cp, s, ec)
	K := d.Shape.K
	for b, out := range outs {
		p := prod[b*K : (b+1)*K]
		if d.affine != nil {
			d.affine.Apply(p, out)
			continue
		}
		for i, v := range p {
			out[i] = float32(v)
		}
	}
}

// ForwardPacked computes the K inner products and writes their sign (or
// folded threshold) bits into outs[b] (≥ WordsFor(K) words, trailing
// lanes cleared) — the fused activation for fc→fc chains (fc6 → sign →
// fc7).
func (d *Dense) ForwardPacked(ins, outs [][]uint64, cp *kernels.CompressPlan, s *DenseScratch, ec *exec.Ctx) {
	prod := d.accumulate(ins, len(outs), cp, s, ec)
	K := d.Shape.K
	for b, out := range outs {
		d.epi.Pack(prod[b*K:(b+1)*K], out)
	}
}
