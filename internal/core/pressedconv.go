package core

import (
	"fmt"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// maxKH bounds the filter height so per-pixel row slices fit in a fixed
// stack array (no per-pixel allocation on the hot path).
const maxKH = 16

// Conv is a PressedConv binary convolution operator: filters are packed
// once at construction, inputs arrive as channel-packed bit tensors, and
// every multiply-accumulate is an XOR + popcount at the scheduled vector
// width.
type Conv struct {
	Shape sched.ConvShape
	Plan  sched.Plan

	filter *bitpack.PackedFilter
	// rowsKernel accumulates XOR+popcount over all KH row segments of
	// one filter in a single call.
	rowsKernel kernels.XorPopRowsFunc
	// batchKernel is the same width-ladder rung for the gathered batch
	// step: one filter against B receptive fields per call.
	batchKernel kernels.XorPopBatchFunc
	// validLanes is KH*KW*C, the true lane count N of Equation 1 for a
	// full filter application; channel-pad lanes are zero in both
	// operands and contribute nothing.
	validLanes int
	// rowLen is KW*WPP, the contiguous word count of one filter tap row
	// (and of the matching input row segment).
	rowLen int
	// act is the folded activation of the packed path; nil means the
	// plain Equation 3 sign.
	act *Thresholds
	// epi is act pre-compiled into the branchless fused epilogue the
	// packed paths run; rebuilt by SetThresholds, never per inference.
	epi *kernels.Epilogue
	// press is the kernel-compression plan compiled from the packed
	// filter bank at construction when its duplication ratio clears
	// kernels.CompressMinRatio (nil otherwise); pressStats always holds
	// the measured analysis. Pure runtime state, never serialized — the
	// graph layer decides per network which path actually runs.
	press      *kernels.CompressPlan
	pressStats kernels.CompressStats
}

// SetThresholds installs a folded activation (batch-norm or bias) for
// ForwardFused. Pass nil to restore the plain sign.
func (cv *Conv) SetThresholds(th *Thresholds) error {
	if th != nil {
		if err := th.validate(cv.Shape.K); err != nil {
			return err
		}
	}
	cv.act = th
	cv.epi = th.Epilogue(cv.Shape.K)
	return nil
}

// NewConv builds a PressedConv operator. The filter bank's K/KH/KW/C must
// match shape; its weights are binarized (sign) and bit-packed here, once
// — the paper's network-level "binarization and bit-packing of weights
// during network initialization".
func NewConv(shape sched.ConvShape, plan sched.Plan, f *tensor.Filter) (*Conv, error) {
	if f.K != shape.K || f.KH != shape.KH || f.KW != shape.KW || f.C != shape.InC {
		return nil, fmt.Errorf("core: filter %v does not match conv shape %+v", f, shape)
	}
	if plan.C != shape.InC {
		return nil, fmt.Errorf("core: plan built for C=%d, conv has InC=%d", plan.C, shape.InC)
	}
	return NewConvPacked(shape, plan, bitpack.PackFilter(f, plan.Words))
}

// NewConvPacked builds a PressedConv operator from an already-packed
// filter bank (e.g. one deserialized from a model file). The packed
// filter's geometry and words-per-tap must match the shape and plan.
func NewConvPacked(shape sched.ConvShape, plan sched.Plan, pf *bitpack.PackedFilter) (*Conv, error) {
	if pf.K != shape.K || pf.KH != shape.KH || pf.KW != shape.KW || pf.C != shape.InC {
		return nil, fmt.Errorf("core: packed filter %v does not match conv shape %+v", pf, shape)
	}
	if plan.C != shape.InC {
		return nil, fmt.Errorf("core: plan built for C=%d, conv has InC=%d", plan.C, shape.InC)
	}
	if pf.WPP != plan.Words {
		return nil, fmt.Errorf("core: packed filter wpp=%d, plan wants %d", pf.WPP, plan.Words)
	}
	if shape.KH > maxKH {
		return nil, fmt.Errorf("core: filter height %d exceeds supported maximum %d", shape.KH, maxKH)
	}
	if !plan.Width.Divides(shape.KW * plan.Words) {
		// Cannot happen with plans from sched.Select (width divides
		// Words), but guard against hand-built plans.
		return nil, fmt.Errorf("core: width %s does not divide row length %d", plan.Width, shape.KW*plan.Words)
	}
	cv := &Conv{
		Shape:       shape,
		Plan:        plan,
		filter:      pf,
		rowsKernel:  kernels.RowsForWidth(plan.Width),
		batchKernel: kernels.BatchForWidth(plan.Width),
		validLanes:  shape.KH * shape.KW * shape.InC,
		rowLen:      shape.KW * plan.Words,
		epi:         kernels.NewSignEpilogue(shape.K),
	}
	fstride := shape.KH * cv.rowLen
	cv.pressStats = kernels.AnalyzeCompression(pf.Words, shape.K, fstride)
	if cv.pressStats.Selectable() {
		cv.press = kernels.BuildCompressPlan(pf.Words, shape.K, fstride)
	}
	return cv, nil
}

// Filter exposes the packed filter bank (read-only use).
func (cv *Conv) Filter() *bitpack.PackedFilter { return cv.filter }

// Activation returns the folded activation, or nil for the plain sign.
func (cv *Conv) Activation() *Thresholds { return cv.act }

// NewInput allocates a packed input buffer with the margins this operator
// needs for zero-cost padding: interior InH×InW×InC, margins = Pad.
func (cv *Conv) NewInput() *bitpack.Packed {
	return bitpack.NewPacked(cv.Shape.InH, cv.Shape.InW, cv.Shape.InC, cv.Plan.Words, cv.Shape.Pad, cv.Shape.Pad)
}

// checkInput validates that in is a legal input buffer for this operator.
func (cv *Conv) checkInput(in *bitpack.Packed) {
	s := cv.Shape
	if in.H != s.InH || in.W != s.InW || in.C != s.InC {
		panic(fmt.Sprintf("core: conv input %v, want %dx%dx%d", in, s.InH, s.InW, s.InC))
	}
	if in.WPP != cv.Plan.Words {
		panic(fmt.Sprintf("core: conv input wpp=%d, plan wants %d", in.WPP, cv.Plan.Words))
	}
	if in.MarginH < s.Pad || in.MarginW < s.Pad {
		panic(fmt.Sprintf("core: conv input margins %dx%d < pad %d", in.MarginH, in.MarginW, s.Pad))
	}
}

// Forward computes raw pre-activation outputs into out (OutH×OutW×K).
// Outputs are exact integer inner products stored as float32. ec
// controls the multi-core split over the fused OutH·OutW dimension.
func (cv *Conv) Forward(in *bitpack.Packed, out *tensor.Tensor, ec *exec.Ctx) {
	cv.checkInput(in)
	s := cv.Shape
	if out.H != s.OutH || out.W != s.OutW || out.C != s.OutC {
		panic(fmt.Sprintf("core: conv output %v, want %dx%dx%d", out, s.OutH, s.OutW, s.OutC))
	}
	total := s.OutH * s.OutW
	ec.ParallelFor(total, func(start, end int) {
		for idx := start; idx < end; idx++ {
			y := idx / s.OutW
			x := idx % s.OutW
			cv.pixelInto(in, y, x, out.Pixel(y, x))
		}
	})
}

// pixelInto computes the K inner products of output pixel (y, x) into dst.
func (cv *Conv) pixelInto(in *bitpack.Packed, y, x int, dst []float32) {
	s := cv.Shape
	f := cv.rowsKernel
	n32 := int32(cv.validLanes)
	rowLen := cv.rowLen
	y0 := y*s.Stride - s.Pad
	x0 := x*s.Stride - s.Pad
	// Hoist the KH input row segments: each is a contiguous run of
	// KW*WPP words (pixels along a row are adjacent in memory — the
	// locality-aware layout at work).
	var inRows [16][]uint64
	rows := inRows[:s.KH]
	for i := 0; i < s.KH; i++ {
		off := in.PixelOffset(y0+i, x0)
		rows[i] = in.Words[off : off+rowLen : off+rowLen]
	}
	fw := cv.filter.Words
	fstride := s.KH * rowLen // words per filter
	for k := 0; k < s.K; k++ {
		base := k * fstride
		acc := f(rows, fw[base:base+fstride:base+fstride])
		dst[k] = float32(n32 - 2*int32(acc))
	}
}

// CanFusePool reports whether a max-pool with shape ps can fuse into this
// conv's epilogue: ps must consume exactly this conv's output geometry
// with non-overlapping windows (stride ≥ window in both dimensions), so
// every conv pixel belongs to at most one window and the fused sweep
// computes it exactly once. Max-pool commutes with sign — the max of ±1
// values has the sign bit OR — so ORing the per-position threshold bits
// is bit-exact against conv-then-pool.
func (cv *Conv) CanFusePool(ps sched.PoolShape) bool {
	s := cv.Shape
	return ps.InH == s.OutH && ps.InW == s.OutW && ps.InC == s.OutC &&
		ps.Stride >= ps.KH && ps.Stride >= ps.KW
}

// ForwardFused is the PressedConv packed forward: conv → threshold →
// binarize, optionally → max-pool, over B = len(ins) images into outs.
// Three arguments compose into one sweep instead of naming variants:
//
//   - pl is a max-pool fused into the epilogue: for each pool output
//     pixel the conv epilogue runs over the window's positions, the first
//     overwriting and the rest ORing threshold bits in, so the conv's
//     intermediate plane never materializes. pl must satisfy CanFusePool;
//     nil is a 1×1 window with stride 1, the plain conv output.
//   - cp is the accumulate source: nil streams the packed filter bank
//     (skipping a filter's XOR+popcount once its OR bit saturates); a
//     plan (Compression, or any plan SetCompression accepts) pays one
//     XOR+popcount per distinct word and scatter-adds it into the K
//     accumulators.
//   - B picks the step. At B == 1 the kernel reads row slices pointing
//     straight into the input; at B > 1 every image's receptive field is
//     gathered into one block so each filter streams through the cache
//     once per batch. The gathered step is slower for a single image
//     (DESIGN §11), hence the split on the batch size.
//
// ins and outs must be pairwise legal and must not alias across images;
// outs take the pool's output geometry (the conv's without a pool), and
// their margins stay untouched (zero-cost padding for the next layer).
// Every step finishes through the same epilogue, so all combinations are
// bit-identical. ec splits the output pixels.
func (cv *Conv) ForwardFused(ins []*bitpack.Packed, pl *Pool, cp *kernels.CompressPlan, outs []*bitpack.Packed, ec *exec.Ctx) {
	B := len(ins)
	if B == 0 || len(outs) != B {
		panic(fmt.Sprintf("core: conv batch %d inputs, %d outputs", B, len(outs)))
	}
	s := cv.Shape
	p := sched.PoolShape{InH: s.OutH, InW: s.OutW, InC: s.OutC, KH: 1, KW: 1, Stride: 1,
		OutH: s.OutH, OutW: s.OutW, OutC: s.OutC}
	if pl != nil {
		if !cv.CanFusePool(pl.Shape) {
			panic(fmt.Sprintf("core: pool %+v cannot fuse into conv %+v", pl.Shape, cv.Shape))
		}
		p = pl.Shape
	}
	S := s.KH * cv.rowLen // receptive-field words per image
	if cp != nil && (cp.K != s.K || cp.S != S) {
		panic(fmt.Sprintf("core: compression plan %dx%d does not match conv bank %dx%d", cp.K, cp.S, s.K, S))
	}
	packWPP := bitpack.WordsFor(s.K)
	n32 := int32(cv.validLanes)
	for b, in := range ins {
		cv.checkInput(in)
		if o := outs[b]; o.H != p.OutH || o.W != p.OutW || o.C != p.OutC || o.WPP != outs[0].WPP || o.WPP < packWPP {
			panic(fmt.Sprintf("core: conv output %v, want %dx%dx%d", o, p.OutH, p.OutW, p.OutC))
		}
	}
	ec.ParallelFor(p.OutH*p.OutW, func(start, end int) {
		// Per-worker scratch, amortized across the chunk's pixels. The
		// streaming row step's slices leak into the indirect kernel call,
		// so a per-pixel array would be a per-pixel heap allocation
		// (`bitflow-vet codegen` enforces this); the compressed row step
		// does not leak them and keeps them on the stack.
		var rows, pressRows [][]uint64
		var stackRows [maxKH][]uint64
		var gather, packed []uint64
		switch {
		case B > 1:
			gather = make([]uint64, B*S)       //bitflow:alloc-ok per-worker scratch, amortized over the whole batch
			packed = make([]uint64, B*packWPP) //bitflow:alloc-ok per-worker scratch, amortized over the whole batch
		case cp != nil:
			pressRows = stackRows[:s.KH]
		default:
			rows = make([][]uint64, s.KH) //bitflow:alloc-ok one scratch per worker chunk
		}
		var acc []int32
		if cp != nil {
			acc = make([]int32, B*s.K) //bitflow:alloc-ok per-worker scratch: K scatter-add accumulators per image
		} else if B > 1 {
			acc = make([]int32, B) //bitflow:alloc-ok per-worker scratch: one popcount per image
		}
		for idx := start; idx < end; idx++ {
			py := idx / p.OutW
			px := idx % p.OutW
			var dst []uint64 // the B == 1 step writes the output pixel in place
			if B == 1 {
				dst = outs[0].PixelWords(py, px)
			}
			for i := 0; i < p.KH; i++ {
				for j := 0; j < p.KW; j++ {
					y0 := (py*p.Stride+i)*s.Stride - s.Pad
					x0 := (px*p.Stride+j)*s.Stride - s.Pad
					or := i > 0 || j > 0
					switch {
					case B > 1:
						cv.gatherStep(ins, gather, y0, x0, cp, acc, packed, or)
					case cp != nil:
						kernels.CompressedConvEpilogue(cp, cv.rowsAt(ins[0], pressRows, y0, x0), cv.rowLen, n32, cv.epi, acc, dst, or)
					case or:
						kernels.ConvEpilogueOr(cv.rowsKernel, cv.rowsAt(ins[0], rows, y0, x0), cv.filter.Words, S, n32, cv.epi, dst)
					default:
						kernels.ConvEpilogue(cv.rowsKernel, cv.rowsAt(ins[0], rows, y0, x0), cv.filter.Words, S, n32, cv.epi, dst)
					}
				}
			}
			if B == 1 {
				continue
			}
			for b, out := range outs {
				o := out.PixelWords(py, px)
				n := copy(o, packed[b*packWPP:(b+1)*packWPP])
				clear(o[n:])
			}
		}
	})
}

// rowsAt is the B == 1 step's gather, which copies nothing: it points
// the KH row slices at in's rows of the receptive field starting at
// (y0, x0) and returns them.
func (cv *Conv) rowsAt(in *bitpack.Packed, rows [][]uint64, y0, x0 int) [][]uint64 {
	rowLen := cv.rowLen
	for r := range rows {
		off := in.PixelOffset(y0+r, x0)
		rows[r] = in.Words[off : off+rowLen : off+rowLen]
	}
	return rows
}

// gatherStep is the B > 1 step: it copies every image's receptive field
// at (y0, x0) into gather (image-major, KH*rowLen words each), then runs
// the batched epilogue into packed, B pixels of WordsFor(K) words.
func (cv *Conv) gatherStep(ins []*bitpack.Packed, gather []uint64, y0, x0 int, cp *kernels.CompressPlan, acc []int32, packed []uint64, or bool) {
	rowLen := cv.rowLen
	S := cv.Shape.KH * rowLen
	for b, in := range ins {
		g := gather[b*S : (b+1)*S]
		for r := 0; r < cv.Shape.KH; r++ {
			off := in.PixelOffset(y0+r, x0)
			copy(g[r*rowLen:(r+1)*rowLen], in.Words[off:off+rowLen])
		}
	}
	n32 := int32(cv.validLanes)
	wpp := bitpack.WordsFor(cv.Shape.K)
	switch {
	case cp != nil:
		kernels.CompressedConvBatchEpilogue(cp, gather, n32, cv.epi, acc, packed, wpp, or)
	case or:
		kernels.ConvBatchEpilogueOr(cv.batchKernel, gather, cv.filter.Words, S, n32, cv.epi, acc, packed, wpp)
	default:
		kernels.ConvBatchEpilogue(cv.batchKernel, gather, cv.filter.Words, S, n32, cv.epi, acc, packed, wpp)
	}
}
