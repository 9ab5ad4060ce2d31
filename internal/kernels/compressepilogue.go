package kernels

import "bitflow/internal/bitpack"

// Compressed counterparts of the fused conv epilogues: accumulate the
// receptive field's popcounts through the compression plan's distinct-
// word table (one XOR+popcount per distinct word, scatter-added into the
// per-channel accumulators), convert to pre-activations, then reuse the
// existing branchless Pack/PackOr threshold passes. Because integer
// addition commutes, the compressed accumulators equal the uncompressed
// filter-major sums exactly, and the shared epilogue makes the packed
// bits identical word for word.

// preacts converts raw popcount accumulators to Equation 1
// pre-activations in place: acc[i] = N - 2*acc[i].
func preacts(acc []int32, n32 int32) {
	for i := range acc {
		acc[i] = n32 - 2*acc[i]
	}
}

// compressedRowsAccum accumulates one output pixel's receptive field —
// KH gathered input row segments of rowLen words each — through the
// plan's effective (possibly folded) word table, filling the first
// Eff().K accumulator entries. acc must have length K; finishPreacts
// converts and expands the result to all K channels.
func compressedRowsAccum(cp *CompressPlan, rows [][]uint64, rowLen int, acc []int32) {
	if len(acc) != cp.K {
		panicSize("compressedRowsAccum", "acc", len(acc), cp.K)
	}
	eff := cp.Eff()
	head := acc[:eff.K] //bitflow:bce-ok Eff().K ≤ K by fold construction
	clear(head)
	p0 := 0
	for _, row := range rows {
		if len(row) != rowLen {
			panicSize("compressedRowsAccum", "row", len(row), rowLen)
		}
		CompressedAccum(eff, p0, row, head)
		p0 += rowLen
	}
}

// finishPreacts converts the effective-plan accumulators to Equation 1
// pre-activations and expands a folded result to all K channels.
func finishPreacts(cp *CompressPlan, acc []int32, n32 int32) {
	eff := cp.Eff()
	preacts(acc[:eff.K], n32) //bitflow:bce-ok Eff().K ≤ K by fold construction
	cp.Expand(acc)
}

// CompressedConvEpilogue is the compressed ConvEpilogue: one output
// pixel's accumulate→threshold→set-bit ladder through the compression
// plan. rows holds the KH gathered input row segments (rowLen words
// each), acc is caller-owned K-length popcount scratch. With or false
// dst is overwritten fully (trailing words cleared); with or true the
// threshold bits OR into dst — the remaining positions of a pool window
// (max-pool commutes with sign). Unlike ConvEpilogueOr there is no
// per-filter saturation skip: the compressed accumulate is
// position-major, so all channels are produced together; the plan is
// only selected when its duplication ratio already beats the skip's
// average savings.
func CompressedConvEpilogue(cp *CompressPlan, rows [][]uint64, rowLen int, n32 int32, e *Epilogue, acc []int32, dst []uint64, or bool) {
	compressedRowsAccum(cp, rows, rowLen, acc)
	finishPreacts(cp, acc, n32)
	if or {
		e.PackOr(acc, dst)
		return
	}
	e.Pack(acc, dst)
}

// compressedBatchAccum accumulates B gathered receptive fields (cp.S
// words each, image-major in gather) into the B*K flat accumulator
// block and converts to pre-activations, returning B.
func compressedBatchAccum(cp *CompressPlan, gather []uint64, n32 int32, accK []int32) int {
	S := cp.S
	B := len(gather) / S
	if len(gather) != B*S {
		panicSize("compressedBatchAccum", "gather", len(gather), B*S)
	}
	if len(accK) != B*cp.K {
		panicSize("compressedBatchAccum", "accK", len(accK), B*cp.K)
	}
	k := cp.K
	eff := cp.Eff()
	for b := 0; b < B; b++ {
		acc := accK[b*k : (b+1)*k]   //bitflow:bce-ok one slice per image; shape pinned by the panicSize preamble
		row := gather[b*S : (b+1)*S] //bitflow:bce-ok one slice per image; shape pinned by the panicSize preamble
		head := acc[:eff.K]          //bitflow:bce-ok Eff().K ≤ K by fold construction
		clear(head)
		CompressedAccum(eff, 0, row, head)
		finishPreacts(cp, acc, n32)
	}
	return B
}

// CompressedConvBatchEpilogue is the compressed ConvBatchEpilogue: one
// output pixel across B images, each image's receptive field walked
// through the plan once. accK is caller-owned B*K flat scratch; out
// receives B packed pixels of outWPP words each, overwritten per image,
// or ORed into when or is set (the remaining positions of a pool
// window).
func CompressedConvBatchEpilogue(cp *CompressPlan, gather []uint64, n32 int32, e *Epilogue, accK []int32, out []uint64, outWPP int, or bool) {
	B := compressedBatchAccum(cp, gather, n32, accK)
	if len(out) != B*outWPP || outWPP < bitpack.WordsFor(e.K) {
		panicSize("CompressedConvBatchEpilogue", "out", len(out), B*outWPP)
	}
	k := cp.K
	for b := 0; b < B; b++ {
		acc, dst := accK[b*k:(b+1)*k], out[b*outWPP:(b+1)*outWPP] //bitflow:bce-ok one slice pair per image; shapes pinned by the preambles
		if or {
			e.PackOr(acc, dst)
		} else {
			e.Pack(acc, dst)
		}
	}
}
